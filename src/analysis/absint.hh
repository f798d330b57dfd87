/**
 * @file
 * Abstract-interpretation value analysis over the guest ISA.
 *
 * A worklist fixed-point dataflow engine in the style of LLVM's
 * ConstantRange / ValueTracking machinery, run at *instruction*
 * granularity over a Program. Two composable abstract domains track
 * every architectural register and a small set of r0-relative memory
 * slots:
 *
 *  - signed and unsigned **intervals** [smin, smax] / [umin, umax]
 *  - **known bits**: masks of bits proven 0 resp. proven 1
 *
 * The domains reduce against each other (known low bits tighten the
 * unsigned bounds, agreeing high bounds pin high bits, ...), so e.g.
 * an `andi r, r, 1` both clamps the interval to [0, 1] and proves 63
 * zero bits. Transfer functions over-approximate isa::evaluate()
 * exactly — including DIVQ's divide-by-zero result (~0), the &63 shift
 * masking, and two's-complement wrap-around — so every concretely
 * retired value is contained in the abstract value at its program
 * point (the soundness property test in tests/analysis/test_absint.cpp
 * checks this in lockstep against FuncSim).
 *
 * Termination: interval widening at the loop heads derived from the
 * back-edge structure (the same address-interval loop view freq.cc
 * uses), with a visit-count backstop for loops introduced by resolved
 * indirect edges, followed by bounded narrowing sweeps that descend
 * from the post-fixpoint (sound: every iterate of a monotone transfer
 * from a post-fixpoint stays above the least fixpoint).
 *
 * Control flow:
 *  - conditional branches refine both operand values per out-edge
 *    (e.g. the taken edge of `blt a, b` meets a with [−inf, b.smax−1]);
 *    an infeasible edge is a *proof* that the arm never executes
 *  - CALL forks a callee edge (link register = pc+4) and a summary
 *    fall-through edge that havocs every register and memory slot:
 *    the Cfg is intra-procedural, so the callee's effect is unknown
 *  - JR/RET with an enumerable abstract target set get precise edges
 *    (this resolves `li rX, addr; jr rX` idioms and upgrades the
 *    linter's cfm-unverifiable findings); otherwise the out-state is
 *    joined into every instruction ("smear"), which keeps the analysis
 *    sound at the cost of most precision downstream of the jump
 */

#ifndef DMP_ANALYSIS_ABSINT_HH
#define DMP_ANALYSIS_ABSINT_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "analysis/flowgraph.hh"
#include "isa/isa.hh"
#include "isa/program.hh"

namespace dmp::analysis
{

/**
 * One abstract value: the reduced product of a signed interval, an
 * unsigned interval, and known-bits masks. The empty (bottom) value is
 * represented by a contradictory tuple (smin > smax, umin > umax, or
 * zeros & ones != 0); top() constrains nothing.
 */
struct AbsVal
{
    SWord smin = 0; ///< least possible value, signed view
    SWord smax = 0; ///< greatest possible value, signed view
    Word umin = 0;  ///< least possible value, unsigned view
    Word umax = 0;  ///< greatest possible value, unsigned view
    Word zeros = ~Word(0); ///< bits proven to be 0
    Word ones = 0;         ///< bits proven to be 1

    static AbsVal top();
    static AbsVal constant(Word v);
    /** The unconstrained-but-nonempty bottom complement: no value. */
    static AbsVal empty();

    bool isEmpty() const;
    bool isConstant() const { return !isEmpty() && umin == umax; }
    /** The single feasible value (valid only when isConstant()). */
    Word constantValue() const { return umin; }
    /** True when the tuple constrains nothing. */
    bool isTop() const;
    /** Does the concrete value satisfy every constraint? */
    bool contains(Word v) const;

    /** Number of feasible values, saturated at `cap`. */
    Word count(Word cap) const;

    /**
     * Mutually tighten the three domains (bits -> unsigned bounds,
     * agreeing bound bits -> known bits, signed <-> unsigned when the
     * range does not straddle the sign boundary) for a fixed two
     * rounds. Not idempotent: facts found late in the last round can
     * tighten a second call's result, so join(a, a) may differ from a.
     */
    void reduce();

    /** Least upper bound. */
    static AbsVal join(const AbsVal &a, const AbsVal &b);
    /** Greatest lower bound (may be empty). */
    static AbsVal meet(const AbsVal &a, const AbsVal &b);
    /**
     * Widening: interval bounds that moved since `prev` jump to their
     * extremes; known bits only ever shrink (bounded by 64), so they
     * join. Guarantees convergence of ascending chains.
     */
    static AbsVal widen(const AbsVal &prev, const AbsVal &next);

    bool operator==(const AbsVal &o) const = default;
};

/** Abstract machine state before one instruction executes. */
struct AbsState
{
    /** False: no execution reaches this program point (bottom). */
    bool reachable = false;
    /**
     * True once a store may have written untracked memory: constant-
     * address loads can no longer read the pristine initial image.
     */
    bool memHavoc = false;
    std::array<AbsVal, isa::kNumArchRegs> regs{};
    /** Values of the tracked slots (parallel to AbsintResult::slotAddrs). */
    std::vector<AbsVal> slots;
};

/** Knobs of the engine. */
struct AbsintOptions
{
    /**
     * Let constant-address loads read the program's initial data
     * image. Disable when proofs must hold across *data* variations
     * of the same code. Note the workload generators also bake their
     * data seed into code immediates, so this alone does not make
     * proofs portable across seeds — consumers that evaluate a
     * specific build (verifier, linter, marking synthesis) analyze
     * exactly the image they run/report on and keep this on.
     */
    bool assumeInitialData = true;
    /** Narrowing sweeps after the widened fixpoint (>=1 recommended). */
    unsigned narrowIters = 2;
    /** Joins at a loop head before widening kicks in. */
    unsigned widenDelay = 8;
};

/** Proof status of one conditional branch. */
struct BranchProof
{
    enum class Status : std::uint8_t
    {
        None,    ///< both arms feasible (or branch unreachable)
        Taken,   ///< fall-through arm infeasible: always taken
        NotTaken ///< taken arm infeasible: never taken
    };
    Status status = Status::None;
    bool backward = false; ///< loop (back-edge) branch
    /**
     * Feasible-value count of the branch's variable operand: an upper
     * bound on consecutive same-direction executions for a counted
     * loop branch. 0 = unbounded / not proven.
     */
    std::uint64_t tripMax = 0;
};

/** Aggregate counters for reports (dmp lint --deep JSON). */
struct AbsintStats
{
    std::size_t insts = 0;          ///< program size analyzed
    std::size_t unreachable = 0;    ///< bottom in-states at fixpoint
    std::size_t branches = 0;       ///< conditional branches seen
    std::size_t provedTaken = 0;    ///< proved always-taken
    std::size_t provedNotTaken = 0; ///< proved never-taken
    std::size_t tripBounded = 0;    ///< loop branches with a trip bound
    std::size_t indirectResolved = 0;   ///< JR/RET with precise edges
    std::size_t indirectUnresolved = 0; ///< JR/RET that smeared
    std::size_t nontrivialRegs = 0; ///< non-top reg values at branches
    std::size_t iterations = 0;     ///< worklist pops until fixpoint
};

/** Fixpoint result: per-instruction in-states plus derived proofs. */
struct AbsintResult
{
    /**
     * False when the engine declined (program too large, iteration cap
     * hit): no states, no proofs — trivially sound.
     */
    bool ran = false;
    /** An unresolved indirect jump joined its state everywhere. */
    bool smeared = false;
    /** Abstract state before instruction i executes. */
    std::vector<AbsState> in;
    /** Tracked r0-relative slot addresses (sorted, deduplicated). */
    std::vector<Word> slotAddrs;
    /** Proof status of every conditional branch, by address. */
    std::map<Addr, BranchProof> branchProofs;
    /** Precise successor sets of resolved JR/RET instructions. */
    IndirectResolution resolvedIndirects;
    AbsintStats stats;

    /** Abstract value of register r before instruction idx (top when
     *  the analysis did not run). */
    AbsVal regBefore(std::size_t idx, ArchReg r) const;
    /** Proof for the branch at pc, or a default None proof. */
    BranchProof proofAt(Addr pc) const;
};

/** Run the engine over `program`. Deterministic per (program, opts). */
AbsintResult runAbsint(const isa::Program &program,
                       const AbsintOptions &opts = AbsintOptions{});

/**
 * Abstract wrap-aware addition — the same transfer the engine uses for
 * ADD/ADDI and load/store effective addresses. Exposed so consumers
 * (the verifier's memory checks) can reconstruct address values from
 * regBefore() without reimplementing the arithmetic.
 */
AbsVal absintAdd(const AbsVal &a, const AbsVal &b);

} // namespace dmp::analysis

#endif // DMP_ANALYSIS_ABSINT_HH
