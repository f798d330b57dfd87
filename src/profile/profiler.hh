/**
 * @file
 * The compiler/profiling side of the diverge-merge system (paper
 * section 3.2). profileAndMark runs the train input once on FuncSim,
 * recording every retired jump (an instruction whose successor is not
 * the next one) and every conditional branch's direction. A simulated
 * branch predictor then replays the branches to count mispredictions
 * per static branch. CFM discovery walks that record: each sampled
 * instance of a candidate owns an interval of it, rebuilt from the
 * branch and its position among the jumps, and two walks over the
 * same intervals first qualify the addresses both paths reach and
 * then credit each instance's first qualifying one. The marker applies the
 * paper's heuristics (>= 0.1% of total mispredictions; CFM reached on
 * both paths by >= 20% of dynamic instances; <= 120 dynamic
 * instructions away), marks simple hammocks statically (CFG analysis)
 * for the DHP baseline, and writes DivergeMarks into the Program.
 */

#ifndef DMP_PROFILE_PROFILER_HH
#define DMP_PROFILE_PROFILER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"

namespace dmp::profile
{

/** Per-static-branch statistics from the train run. */
struct BranchStats
{
    std::uint64_t execs = 0;
    std::uint64_t taken = 0;
    std::uint64_t mispredicts = 0;
    bool isBackward = false;
};

/** Result of the branch-profiling pass. */
struct BranchProfile
{
    std::map<Addr, BranchStats> branches;
    std::uint64_t totalInsts = 0;
    std::uint64_t totalCondBranches = 0;
    std::uint64_t totalMispredicts = 0;
};

/** One discovered CFM candidate for a diverge branch. */
struct CfmCandidate
{
    Addr addr = kNoAddr;
    /** Fraction of taken-side instances that reach it within range. */
    double takenFraction = 0;
    /** Fraction of not-taken-side instances that reach it. */
    double notTakenFraction = 0;
    /** Mean dynamic distance (instructions) over both sides. */
    double meanDistance = 0;

    double
    score() const
    {
        return std::min(takenFraction, notTakenFraction);
    }
};

/** CFM discovery output for one branch. */
struct CfmProfile
{
    std::vector<CfmCandidate> candidates; ///< sorted by score, desc
};

/** Candidate filter: share of all mispredictions (section 3.2: 0.1%). */
inline constexpr double kMispredShare = 0.001;
/** Early-exit N = clamp(kEarlyExitScale * mean distance, min, max). */
inline constexpr double kEarlyExitScale = 2.0;
inline constexpr unsigned kEarlyExitMin = 16;
inline constexpr unsigned kEarlyExitMax = 192;

/**
 * Early-exit threshold of a diverge branch whose CFM points lie
 * `meanDistance` instructions away on average; the profiled and the
 * static marker both use it.
 */
unsigned earlyExitThreshold(double meanDistance);

/** Thresholds of section 3.2 plus implementation knobs. */
struct MarkerConfig
{
    /**
     * Candidate filter: per-branch misprediction *rate* floor. The
     * paper's share-based rule assumes SPEC-scale misprediction counts;
     * at this reproduction's run lengths it would admit branches with a
     * single training misprediction. Dynamic predication of a branch
     * that mispredicts a fraction of a percent of the time can only
     * cost, so the marker skips them.
     */
    double minMispredictRate = 0.10;
    /** CFM must reconverge this fraction of instances on both sides. */
    double reconvergeFraction = 0.20;
    /** Maximum dynamic distance to the CFM point (instructions). */
    unsigned maxCfmDistance = 120;
    /** CFM points kept per branch (enhanced machine CAM size). */
    unsigned maxCfmPoints = 4;
    /** Sample one of every N instances per branch in the CFM pass. */
    unsigned cfmSampleRate = 4;
    /** Mark backward diverge loop branches (section 2.7.4 extension). */
    bool markLoopBranches = false;
    /** Train-run length in instructions. */
    std::uint64_t profileInsts = 400000;

    /** Visit every field as f(name, value), in declaration order. */
    template <class F>
    constexpr void
    forEachField(F &&f) const
    {
        f("minMispredictRate", minMispredictRate);
        f("reconvergeFraction", reconvergeFraction);
        f("maxCfmDistance", maxCfmDistance);
        f("maxCfmPoints", maxCfmPoints);
        f("cfmSampleRate", cfmSampleRate);
        f("markLoopBranches", markLoopBranches);
        f("profileInsts", profileInsts);
    }
};

/** Classification of mispredictions for Figure 6. */
struct MispredictClassification
{
    std::uint64_t simpleHammockDiverge = 0;
    std::uint64_t complexDiverge = 0;
    std::uint64_t otherComplex = 0;
    std::uint64_t totalInsts = 0;
};

/** Full report of a profile-and-mark run. */
struct MarkingReport
{
    BranchProfile profile;
    std::uint64_t candidateBranches = 0;
    std::uint64_t markedDiverge = 0;
    std::uint64_t markedSimpleHammock = 0;
    std::uint64_t markedLoop = 0;
    MispredictClassification classification;
};

/**
 * Run the train-input branch-profiling pass.
 * @param program the (train-input) program
 * @param mem_bytes data-space size
 * @param max_insts instruction budget
 */
BranchProfile profileBranches(const isa::Program &program,
                              std::size_t mem_bytes,
                              std::uint64_t max_insts);

/**
 * Run the CFM-discovery pass for the given candidate branches.
 * Fatal when cfg.cfmSampleRate or cfg.maxCfmDistance is 0.
 * @return per-branch CFM profiles.
 */
std::map<Addr, CfmProfile>
profileCfmPoints(const isa::Program &program, std::size_t mem_bytes,
                 std::uint64_t max_insts,
                 const std::vector<Addr> &candidates,
                 const MarkerConfig &cfg);

/**
 * Full compiler pass: profile, select diverge branches and CFM points,
 * statically mark simple hammocks, and annotate `program` in place.
 */
MarkingReport profileAndMark(isa::Program &program, std::size_t mem_bytes,
                             const MarkerConfig &cfg = MarkerConfig{});

/**
 * Copy the markings of `from` onto `to` (same code, different data):
 * the paper profiles with the train input and measures with ref. The
 * marks are copied unchecked: lint `to` before anything runs it.
 */
void transferMarks(const isa::Program &from, isa::Program &to);

} // namespace dmp::profile

#endif // DMP_PROFILE_PROFILER_HH
