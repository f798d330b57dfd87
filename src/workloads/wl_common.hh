/**
 * @file
 * Shared code-emission idioms for the synthetic SPEC-like workloads.
 *
 * Every workload is a loop nest over pseudo-random data whose branch
 * structure is engineered to match one paper benchmark's control-flow
 * character: the mix of simple hammocks, complex diverge structures
 * (paper Figure 3 shapes), non-mergeable complex control flow, loop
 * behaviour, and memory footprint.
 *
 * Register conventions used by all workloads:
 *   r10 loop counter     r11 loop bound      r12 data base address
 *   r13 output base      r14 LCG state       r15-r30 scratch values
 */

#ifndef DMP_WORKLOADS_WL_COMMON_HH
#define DMP_WORKLOADS_WL_COMMON_HH

#include <cstdint>

#include "common/random.hh"
#include "isa/program.hh"

namespace dmp::workloads
{

/** Base address of every workload's data region. */
inline constexpr Addr kDataBase = 0x100000;

/** Construction parameters shared by every workload. */
struct WorkloadParams
{
    /** Outer-loop iterations (sized for a few hundred K instructions). */
    std::uint64_t iterations = 4000;
    /** Data seed; the profiler uses a different seed ("train input"). */
    std::uint64_t seed = 0x5eed;

    /** Visit every field as f(name, value), in declaration order. */
    template <class F>
    constexpr void
    forEachField(F &&f) const
    {
        f("iterations", iterations);
        f("seed", seed);
    }
};

// Well-known registers.
inline constexpr ArchReg rCnt = 10;
inline constexpr ArchReg rBound = 11;
inline constexpr ArchReg rData = 12;
inline constexpr ArchReg rOut = 13;
inline constexpr ArchReg rRng = 14;

/**
 * Emit one LCG step: rRng = rRng * A + C; dst = rRng.
 * Branches conditioned on LCG bits model data-dependent,
 * hard-to-predict branches (the predictor cannot learn them).
 */
void emitLcg(isa::ProgramBuilder &b, ArchReg dst);

/** Scratch bank used by predictable padding (consumed continuously). */
inline constexpr ArchReg kPaddingBank[8] = {15, 16, 17, 18,
                                            19, 20, 21, 22};
/**
 * Scratch bank used by hard-region arms. Keeping it distinct from the
 * padding bank models real code: values produced under a hard branch
 * are consumed *lazily*, so dynamic predication's select-uops do not
 * serialize the whole downstream instruction stream on the predicate.
 */
inline constexpr ArchReg kHardBank[8] = {32, 33, 34, 35, 36, 37, 38, 39};

/**
 * Emit `n` dependent-ish ALU instructions over an 8-register scratch
 * bank, derived from `mix`; gives hammock arms real register writes so
 * select-uops have work to merge.
 */
void emitAluBlock(isa::ProgramBuilder &b, Random &rng, unsigned n,
                  ArchReg mix, const ArchReg *bank = kPaddingBank);

/**
 * Emit a *simple hammock*: if/if-else on bit `bit` of `condReg`, with
 * straight-line arms of the given lengths (no internal control flow).
 * taken_permille controls the arm bias via a threshold compare instead
 * when nonzero (condReg % 1024 < taken_permille).
 */
void emitSimpleHammock(isa::ProgramBuilder &b, Random &rng,
                       ArchReg condReg, unsigned bit, unsigned thenLen,
                       unsigned elseLen);

/**
 * Emit the paper's Figure 3 complex-diverge shape:
 *
 *       A (hard-to-predict, on `condReg` bit0)
 *      / \
 *     B   C           (each with a biased internal branch)
 *    /|   |\
 *   D E   F G
 *    \|   |/
 *     \   /
 *       H  <- CFM on the frequently executed paths
 *
 * A side path occasionally jumps past H to a cold block, so H is a
 * frequent-path merge point but not the post-dominator. The escape is
 * loop-counter-periodic — `(iteration & esc_mask) == 0` — which makes
 * the escape branch itself predictable while still denying the CFM
 * point at a controlled rate (the knob behind the case-1/3-heavy
 * benchmarks like gap and gzip). esc_mask == 0 disables escapes.
 * @param reconv_permille bias of the *internal* branches toward the
 *        arms that rejoin at H directly.
 */
void emitComplexDiverge(isa::ProgramBuilder &b, Random &rng,
                        ArchReg condReg, unsigned armLen,
                        unsigned reconv_permille,
                        std::uint64_t esc_mask);

/**
 * Emit a chained multi-merge diverge region:
 *
 *        A  (hard)
 *       / \
 *      Bx  By          (hard branches nested in each arm)
 *     /|    |\
 *   H1 H2  H1 H2       (cross-merging at two alternative points)
 *    |   \ /   |
 *   [~34 insts] [~34 insts]
 *        \    /
 *         END          (common post-dominator, > 120 insts from A)
 *
 * A's profiled CFM points are {H1, H2} (each reached by ~50% of both
 * sides); END, although closer than the search bound, is shadowed by
 * them (first-reconvergence crediting in the profiler). The basic machine marks
 * only H1 and therefore fails to merge half of its episodes — the
 * multiple-CFM-point enhancement (section 2.7.1) recovers them. Bx/By
 * are themselves marked diverge branches (CFM = END), which exercises
 * the multiple-diverge-branch policy (section 2.7.3).
 */
void emitMultiMergeDiverge(isa::ProgramBuilder &b, Random &rng,
                           ArchReg condReg, unsigned hBodyLen = 34);

/**
 * Emit a deep chained diverge region (the multiple-diverge-branch
 * showcase, section 2.7.3):
 *
 *        A (hard)
 *       /        \
 *   armX;Bx     armY;By      (nested hard branches)
 *    /   \       /   \
 *  sub1 detour sub3 detour   (detour ~112 straight-line insts)
 *    \     |     /     |
 *     H    |    H      |
 *      \   |   /       |
 *        FAR  <--------+
 *
 * From A, the only qualifying CFM is H (reached by ~50% of both
 * sides): the detour routes put FAR beyond A's 120-instruction search
 * bound. From Bx/By, FAR is within bound on every route, so the nested
 * branches carry a *reliable* CFM. An episode on A therefore often
 * fails to merge, while converting to the nested branch (the 2.7.3
 * policy) covers its misprediction dependably.
 */
void emitDeepDiverge(isa::ProgramBuilder &b, Random &rng,
                     ArchReg condReg, unsigned detourLen = 112);

/**
 * Emit a deeply nested, non-reconverging control-flow region (gcc-like
 * "other complex" branches): each arm runs longer than the 120-
 * instruction CFM search bound before rejoining.
 */
void emitNonMergeable(isa::ProgramBuilder &b, Random &rng,
                      ArchReg condReg, unsigned armLen);

/**
 * Emit a switch-style indirect dispatch over `cases` equally sized
 * targets selected by `selReg % cases` (gcc/perl-like indirect jumps).
 * Must be called with the table emitted inline; control falls through
 * to the code after the dispatch.
 */
void emitIndirectSwitch(isa::ProgramBuilder &b, Random &rng,
                        ArchReg selReg, unsigned cases,
                        unsigned caseLen);

/**
 * Seed `words` pseudo-random data words at `base` and return the base.
 */
Addr seedData(isa::ProgramBuilder &b, Random &rng, Addr base,
              std::size_t words, std::uint64_t value_mask = ~0ULL);

/**
 * Emit predictable filler work calibrated against Table 3: each unit is
 * roughly a dozen ALU instructions plus one strongly *biased* branch.
 * Biased (rather than pattern-periodic) branches model SPEC's
 * predictable-branch population: they stay predictable even when
 * dynamic predication perturbs the global history.
 *
 * @param noise_permille approximate misprediction probability of each
 *        padding branch in 1/1024 units (1 = ~0.1%).
 */
void emitPadding(isa::ProgramBuilder &b, Random &rng, unsigned units,
                 unsigned noise_permille = 8);

/**
 * Emit FP-flavoured filler (independent fmul/fadd chains + one biased
 * branch per unit) for the SPEC-FP workloads.
 */
void emitFpPadding(isa::ProgramBuilder &b, Random &rng, unsigned units,
                   unsigned noise_permille = 4);

/**
 * Open a loop-counter-periodic guard: the guarded region runs only when
 * (iteration & mask) == 0 — a perfectly learnable branch, used to set
 * the *frequency* of hard regions without adding mispredictions.
 * Bind the returned label right after the guarded region.
 */
isa::Label emitPeriodicGuardBegin(isa::ProgramBuilder &b,
                                  std::uint64_t mask);

} // namespace dmp::workloads

#endif // DMP_WORKLOADS_WL_COMMON_HH
