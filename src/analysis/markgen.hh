/**
 * @file
 * Profile-free static marking synthesis.
 *
 * The paper's compiler selects diverge branches and CFM points from
 * edge profiles (section 3.2, reproduced in src/profile). This pass
 * competes with it using the program text alone:
 *
 *  1. CFG + post-dominator trees (src/cfg) over the unmodified image;
 *  2. branch probabilities and block frequencies estimated with the
 *     Wu-Larus heuristics (freq.hh);
 *  3. candidate CFM points from hammock joins (classifyHammock) and
 *     from immediate post-dominators of both the full CFG and a
 *     *frequent-path* CFG with low-probability edges pruned — the
 *     static analogue of the paper's "CFM point on the frequently
 *     executed paths";
 *  4. selection by an explicit cost model: expected flush savings
 *     (estimated misprediction rate x pipeline refill) against
 *     predicated-work overhead (expected false-path instructions per
 *     episode over retire bandwidth), weighted by estimated execution
 *     frequency — the static mirror of the per-branch net-cycle
 *     estimate the accounting sink measures dynamically.
 *
 * Every candidate CFM point is validated against the same
 * FlowGraph::reach ground truth the legality linter uses, so the
 * synthesized marking is lint-clean by construction; a final legalize
 * pass re-runs the linter and drops anything it still objects to.
 *
 * The synthesis depends only on (program, MarkGenConfig) — never on
 * per-run core parameters — so one marking serves every core sweep,
 * exactly like a profiled marking (the batch profile cache relies on
 * this).
 */

#ifndef DMP_ANALYSIS_MARKGEN_HH
#define DMP_ANALYSIS_MARKGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/absint.hh"
#include "analysis/freq.hh"
#include "common/json.hh"
#include "isa/program.hh"
#include "profile/profiler.hh"

namespace dmp::analysis
{

/** Knobs of the static marker. */
struct MarkGenConfig
{
    /**
     * Legality bounds shared with the profiled marker: maxCfmPoints,
     * maxCfmDistance, minMispredictRate (applied to the *estimated*
     * rate), and markLoopBranches. The early-exit threshold comes from
     * profile::earlyExitThreshold, as for the profiled marker.
     */
    profile::MarkerConfig marker{};
    /** Predicate-depth bound forwarded to the legalize lint. */
    unsigned maxPredicateDepth = 32;

    /**
     * Successor edges with probability below this are pruned from the
     * frequent-path CFG before its post-dominator pass.
     */
    double pruneProbability = 0.10;
    /** Also mark simple hammocks (the DHP baseline marking). */
    bool markHammocks = true;
    /**
     * Refine the frequency estimate with abstract interpretation
     * (absint.hh): branches proved one-sided get probability 0/1 in
     * the frequency propagation and proved loop trip bounds cap the
     * fixed iteration guess; per-branch proof status lands in the
     * report. The selection gate keeps the heuristic mispredict
     * estimate (see MarkCandidate::mispredictEstimate). Off reproduces
     * the pre-absint pure-heuristic marking.
     */
    bool useAbsint = true;
};

/** One examined conditional branch with its full cost breakdown. */
struct MarkCandidate
{
    Addr pc = kNoAddr;
    /** Estimated taken probability and the heuristic behind it. */
    double takenProb = 0.5;
    ProbHeuristic heuristic = ProbHeuristic::None;
    /** Estimated executions of the branch per run. */
    double blockFreq = 0;
    /** Estimated misprediction rate: min(p, 1-p) of the *heuristic*
     *  probability (proof overrides sharpen takenProb but are not a
     *  predictor model, so they do not feed the selection gate). */
    double mispredictEstimate = 0;
    /** Chosen CFM points, nearest merge first (empty: none legal). */
    std::vector<Addr> cfmPoints;
    /** Static mean of taken/fall shortest distances to the first CFM. */
    double meanDistance = 0;
    /** Expected false-path instructions fetched per episode. */
    double predicatedWork = 0;
    /** Expected flush cycles saved per execution. */
    double flushSavings = 0;
    /** Frequency-weighted net cycles (savings - overhead). */
    double netBenefit = 0;
    /** Backward (loop) diverge candidate (section 2.7.4 extension). */
    bool isLoop = false;
    bool selected = false;
    /** "selected" or the reason the candidate was rejected. */
    std::string reason;
    /** Value-analysis proof status: "none", "taken", or "not-taken". */
    std::string proof = "none";
    /** Proved loop trip bound (0: none). */
    std::uint64_t tripBound = 0;
};

/** Synthesis output: every candidate examined plus mark counts. */
struct MarkGenReport
{
    /** All conditional branches examined, in address order. */
    std::vector<MarkCandidate> candidates;
    std::size_t markedDiverge = 0;
    std::size_t markedSimpleHammock = 0;
    std::size_t markedLoop = 0;
    /** Marks removed by the final legalize lint pass. */
    std::size_t droppedIllegal = 0;
    /** Findings of the final lint pass over the synthesized marking. */
    std::size_t lintErrors = 0;
    std::size_t lintWarnings = 0;
    std::size_t lintInfos = 0;
    /** The absint refinement ran (MarkGenConfig::useAbsint and the
     *  engine did not decline). */
    bool absintRan = false;
    /** Engine counters when absintRan (for the JSON absint block). */
    AbsintStats absintStats;
};

/**
 * Clear any existing marks of `program` and synthesize a static
 * marking in place.
 */
MarkGenReport synthesizeMarks(isa::Program &program,
                              const MarkGenConfig &cfg = MarkGenConfig{});

/** Static-vs-profiled marking agreement (markings of two programs). */
struct MarkAgreement
{
    /** Diverge-branch sets (hammock-only marks excluded). */
    std::size_t staticDiverge = 0;
    std::size_t profileDiverge = 0;
    std::size_t commonDiverge = 0;
    /** |common| / |static| resp. |common| / |profile|; 1.0 on 0/0. */
    double divergePrecision = 1.0;
    double divergeRecall = 1.0;
    /** Of the common branches: share with any CFM point in common and
     *  share whose *first* (primary) CFM points agree. */
    std::size_t cfmComparable = 0;
    std::size_t cfmAnyMatch = 0;
    std::size_t cfmPrimaryMatch = 0;
    double cfmMatchRate = 1.0; ///< cfmAnyMatch / cfmComparable
};

/**
 * Compare the markings of a statically marked program against a
 * profiled reference marking of the same image.
 */
MarkAgreement compareMarkings(const isa::Program &statically_marked,
                              const isa::Program &profiled);

/**
 * Version of the `dmp mark --json` document schema. Bump when a field
 * is renamed or removed; adding fields is backward compatible.
 */
constexpr int kMarkGenSchemaVersion = 1;

/**
 * Write one target's worth of the dmp mark JSON document as the next
 * value of `w`: an object with the mark counts, lint totals, the
 * per-candidate cost breakdown, and — when `agreement` is non-null —
 * the static-vs-profile agreement block. Deterministic byte-for-byte
 * for a given (program, config): the golden tests diff it across runs.
 */
void markGenTargetJson(json::Writer &w, const std::string &target,
                       const MarkGenReport &report,
                       const MarkAgreement *agreement);

/** Human-readable report of one synthesis run (multi-line). */
std::string markGenText(const std::string &target,
                        const MarkGenReport &report,
                        const MarkAgreement *agreement,
                        bool show_candidates);

} // namespace dmp::analysis

#endif // DMP_ANALYSIS_MARKGEN_HH
