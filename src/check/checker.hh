/**
 * @file
 * Microarchitectural self-checking: per-cycle structural invariant
 * checks over the core's renaming/predication/memory structures, plus a
 * lockstep retirement oracle that re-executes every committed
 * instruction on the functional reference simulator and diffs
 * architectural state.
 *
 * The checker is a core::CoreObserver (core/observer.hh) and fails
 * fast: the first broken invariant or architectural divergence throws
 * CheckError carrying one analysis::Finding (code, cycle, PC, structure
 * id) and a first-divergence diagnosis (recent retires,
 * episode/predication state, flush history). The invariant catalogue
 * is in DESIGN.md.
 */

#ifndef DMP_CHECK_CHECKER_HH
#define DMP_CHECK_CHECKER_HH

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/report.hh"
#include "common/types.hh"
#include "core/core.hh"
#include "core/observer.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"

namespace dmp::check
{

/** Which check families run. */
enum class Mode : std::uint8_t
{
    Off,
    Invariants, ///< structural invariants only
    Lockstep,   ///< retirement oracle only
    All,        ///< both
};

/** "off" / "invariants" / "lockstep" / "all". */
const char *modeName(Mode m);

/**
 * Parse a `--selfcheck[=...]` value. The empty string means All (bare
 * `--selfcheck`). @return false on an unknown name.
 */
bool parseMode(const std::string &s, Mode &out);

inline bool
wantsInvariants(Mode m)
{
    return m == Mode::Invariants || m == Mode::All;
}

inline bool
wantsLockstep(Mode m)
{
    return m == Mode::Lockstep || m == Mode::All;
}

/**
 * Test-only fault injection: each kind corrupts exactly one invariant,
 * and the fault-injection tests assert that precisely the expected
 * finding fires (no masking, no false neighbors).
 */
enum class FaultKind : std::uint8_t
{
    None,
    LeakPhysReg,       ///< allocate a PhysReg and drop it
    ReorderStore,      ///< swap the seqs of the two oldest SB entries
    SkipFuncSimStep,   ///< do not advance the oracle for one commit
    ClobberCheckpoint, ///< write a free PhysReg into a checkpoint RAT
    DanglingPredicate, ///< tag a ROB entry with an unknown predicate id
    RobSeqSwap,        ///< swap the seqs of the two oldest ROB entries
};

/** An armed fault: injected at the first opportunity >= notBefore. */
struct FaultPlan
{
    FaultKind kind = FaultKind::None;
    /** Earliest cycle at which injection is attempted. */
    Cycle notBefore = 0;

    /** Visit every field as f(name, value), in declaration order. */
    template <class F>
    constexpr void
    forEachField(F &&f) const
    {
        f("kind", kind);
        f("notBefore", notBefore);
    }
};

struct CheckerOptions
{
    Mode mode = Mode::All;
    /**
     * The cheap structural pass (ROB/SB walks) runs every cycle; the
     * deep structural pass (free lists, RAT validity, leak
     * reachability, episode/predicate consistency) every N cycles and
     * after every flush; 0 = flush-only.
     */
    unsigned deepStride = 64;
};

/** A self-check failed; carries the finding and the diagnosis. */
class CheckError : public std::runtime_error
{
  public:
    CheckError(std::string what_, analysis::Report report_,
               std::string diagnosis_);

    /** Exactly one Error finding (the checker fails fast). */
    const analysis::Report &report() const noexcept { return rep; }

    /** Human-readable first-divergence state dump. */
    const std::string &diagnosis() const noexcept { return diag; }

  private:
    analysis::Report rep;
    std::string diag;
};

/**
 * The concrete checker. Owns its own memory image and FuncSim over the
 * same program the core runs; reads core state directly (friend of
 * Core). Attach with core.addObserver(&checker); cycle skipping is
 * off while it is attached, since it samples every real tick.
 */
class CoreChecker final : public core::CoreObserver
{
  public:
    /**
     * @param program the exact program `core_` executes
     * @param core_ the core to observe (must outlive the checker)
     */
    CoreChecker(const isa::Program &program, core::Core &core_,
                CheckerOptions opts_ = {});

    /** Arm a test-only fault (injected from onCycleEnd). */
    void injectFault(const FaultPlan &fault_plan) { plan = fault_plan; }
    bool faultInjected() const { return injected; }

    /** Committed program instructions cross-checked by the oracle. */
    std::uint64_t checkedCommits() const { return nCommits; }
    /** Cheap structural passes run. */
    std::uint64_t invariantPasses() const { return nCheapPasses; }
    /** Deep structural passes run. */
    std::uint64_t deepPasses() const { return nDeepPasses; }

    void onCycleEnd(const core::AcctCycleSample &s) override;
    void onRetire(const core::DynInst &di, std::uint64_t seq,
                  PredId pred) override;
    void onFlush(const core::FlushEvent &e) override;
    bool allowsCycleSkip() const override { return false; }

  private:
    struct RetiredRec
    {
        std::uint64_t seq;
        Addr pc;
        core::UopKind kind;
        PredId pred;
        bool predValue;
        Cycle cycle;
    };
    struct FlushRec
    {
        Cycle cycle;
        std::uint64_t surviveSeq;
        Addr redirectPc;
    };

    [[noreturn]] void fail(const std::string &code, Addr pc,
                           std::string object, std::string message);
    std::string diagnosis() const;

    void checkCheap();
    void checkDeep();
    void checkRob();
    void checkStoreBuffer();
    void checkPrfFreeList();
    void checkCheckpoints();
    bool predicationQuiescent() const;
    void checkRatValidity();
    void checkLeaks();
    void checkEpisodesAndPredicates();
    void validateMap(const core::RenameMap &m, const std::string &object);
    void lockstepCommit(const core::DynInst &di, PredId pred);

    void tryInject();

    core::Core &core;
    CheckerOptions opt;

    // Lockstep oracle: private architectural memory + interpreter.
    isa::MemoryImage refMem;
    isa::FuncSim oracle;
    bool skipNextStep = false; ///< armed by the SkipFuncSimStep fault

    FaultPlan plan;
    bool injected = false;

    // Diagnosis rings.
    std::deque<RetiredRec> history;
    std::deque<FlushRec> flushes;

    std::uint64_t nCommits = 0;
    std::uint64_t nCheapPasses = 0;
    std::uint64_t nDeepPasses = 0;

    // Per-pass scratch (kept across passes to avoid re-allocation).
    std::vector<std::uint64_t> robStoreSeqs;
    std::vector<char> regScratch;
    std::unordered_map<core::EpisodeId, std::int32_t> markerTally;
};

/**
 * Render a self-check outcome as one JSON object:
 * {"schema":1,"mode":"all","target":"bzip2","failed":false,
 *  "checked_commits":N,"findings":[...],"diagnosis":null|"..."}.
 * Schema documented in EXPERIMENTS.md.
 */
std::string selfcheckJson(Mode mode, const std::string &target,
                          bool failed, std::uint64_t checked_commits,
                          const analysis::Report &report,
                          const std::string &diagnosis);

} // namespace dmp::check

#endif // DMP_CHECK_CHECKER_HH
