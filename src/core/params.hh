/**
 * @file
 * Core configuration: Table 2 of the paper. The parts that every
 * configuration of the evaluation shares are constants (fetch branch
 * budget, execution latencies, BTB/RAS/ITC sizes); the parts the
 * figures and sweeps vary are CoreParams fields whose defaults are the
 * Table 2 machine: 8-wide fetch ending at the first taken branch,
 * 30-cycle minimum misprediction penalty, 512-entry reorder buffer,
 * 8-wide execute/retire, perceptron predictor, JRS confidence
 * estimator.
 */

#ifndef DMP_CORE_PARAMS_HH
#define DMP_CORE_PARAMS_HH

#include <cstdint>

#include "common/types.hh"

namespace dmp::core
{

/** Which branches are eligible for dynamic predication. */
enum class PredicationScope : std::uint8_t
{
    /** Baseline: no dynamic predication. */
    None,
    /** Dynamic Hammock Predication: simple-hammock marks only. */
    SimpleHammock,
    /** Diverge-Merge: compiler diverge marks (simple + complex). */
    Diverge,
};

/** Overall front-end speculation mode. */
enum class CoreMode : std::uint8_t
{
    /** Conventional speculative OoO core (possibly with predication). */
    Normal,
    /** Selective dual-path execution (Heil & Smith), section 5.3. */
    DualPath,
};

/** Which direction predictor the front-end instantiates. */
enum class PredictorKind : std::uint8_t
{
    Perceptron,
    Gshare,
    Bimodal,
    Hybrid,
};

// ---- Fixed Table 2 parameters ----
/** Conditional branches fetched per cycle at most. */
inline constexpr unsigned kMaxCondBranchesPerFetch = 3;
/** Execution latencies, in cycles. */
inline constexpr Cycle kAluLatency = 1;
inline constexpr Cycle kMulLatency = 3;
inline constexpr Cycle kDivLatency = 20;
inline constexpr Cycle kFpLatency = 4;
inline constexpr Cycle kBranchLatency = 1;
/** Address generation before a cache access. */
inline constexpr Cycle kAgenLatency = 1;
/** Store-buffer forward. */
inline constexpr Cycle kForwardLatency = 1;
/** Branch target buffer, return address stack and indirect target
 *  cache entries. */
inline constexpr unsigned kBtbEntries = 4096;
inline constexpr unsigned kRasEntries = 64;
inline constexpr unsigned kItcEntries = 65536;

/** All knobs of one core instance. */
struct CoreParams
{
    // ---- Front end (Table 2) ----
    unsigned fetchWidth = 8;
    /**
     * Fetch-to-rename pipeline depth; this is the minimum branch
     * misprediction penalty (Table 2: 30 cycles).
     */
    unsigned frontendDepth = 30;

    // ---- Window / execution (Table 2) ----
    unsigned robSize = 512;
    unsigned issueWidth = 8;
    unsigned retireWidth = 8;
    unsigned numPhysRegs = 0; ///< 0: robSize + 2 * kNumArchRegs
    unsigned storeBufferSize = 128;
    unsigned maxCheckpoints = 96;

    // ---- Prediction ----
    PredictorKind predictor = PredictorKind::Perceptron;
    bool perfectCondPredictor = false; ///< perfect-cbp configuration
    bool perfectConfidence = false;    ///< -perf-conf configurations
    /**
     * Treat every conditional branch as low-confidence (predicate every
     * dynamic instance of a marked branch). Used by directed tests and
     * the confidence-ablation bench.
     */
    bool alwaysLowConfidence = false;

    // ---- Dynamic predication ----
    CoreMode mode = CoreMode::Normal;
    PredicationScope predication = PredicationScope::None;
    /** Enhancement: multiple CFM points (section 2.7.1). */
    bool enhMultiCfm = false;
    /** Enhancement: early exit from dpred mode (section 2.7.2). */
    bool enhEarlyExit = false;
    /** Enhancement: multiple diverge branches (section 2.7.3). */
    bool enhMultiDiverge = false;
    /** Extension: dynamic predication of loop diverge branches (2.7.4). */
    bool extLoopBranches = false;
    /** Extension: selective branch predictor update policy (2.7.4) —
     *  do not train the direction predictor with dynamically predicated
     *  diverge branches to avoid destructive counter interference. */
    bool extSelectiveUpdate = false;
    /**
     * Static early-exit threshold used when a diverge branch carries no
     * compiler-selected one (or when forceStaticEarlyExit is set).
     */
    unsigned staticEarlyExitThreshold = 96;
    /** Ablation: ignore compiler-selected thresholds. */
    bool forceStaticEarlyExit = false;
    /** Hardware limit on unresolved predicate ids in flight. */
    unsigned predRegisters = 32;
    /** CFM CAM capacity (enhanced mode loads up to this many points). */
    unsigned cfmCamEntries = 8;
    /**
     * Hard cap on dynamically predicated instructions per path; a path
     * that exceeds it reverts the episode to normal branch prediction
     * (safety net mirroring the 120-instruction profiling bound).
     */
    unsigned maxDpredPathInsts = 256;

    // ---- Measurement ----
    /** Classify wrong-path fetches as control-dep/indep (Figure 1). */
    bool classifyWrongPath = false;
    /** Architectural memory image size for this core's data space. */
    std::size_t memoryBytes = 16 * 1024 * 1024;

    unsigned
    effectiveFetchQueueCapacity() const
    {
        return frontendDepth * fetchWidth;
    }

    unsigned
    effectivePhysRegs() const
    {
        return numPhysRegs ? numPhysRegs : robSize + 128;
    }

    /** Visit every field as f(name, value), in declaration order. */
    template <class F>
    constexpr void
    forEachField(F &&f) const
    {
        f("fetchWidth", fetchWidth);
        f("frontendDepth", frontendDepth);
        f("robSize", robSize);
        f("issueWidth", issueWidth);
        f("retireWidth", retireWidth);
        f("numPhysRegs", numPhysRegs);
        f("storeBufferSize", storeBufferSize);
        f("maxCheckpoints", maxCheckpoints);
        f("predictor", predictor);
        f("perfectCondPredictor", perfectCondPredictor);
        f("perfectConfidence", perfectConfidence);
        f("alwaysLowConfidence", alwaysLowConfidence);
        f("mode", mode);
        f("predication", predication);
        f("enhMultiCfm", enhMultiCfm);
        f("enhEarlyExit", enhEarlyExit);
        f("enhMultiDiverge", enhMultiDiverge);
        f("extLoopBranches", extLoopBranches);
        f("extSelectiveUpdate", extSelectiveUpdate);
        f("staticEarlyExitThreshold", staticEarlyExitThreshold);
        f("forceStaticEarlyExit", forceStaticEarlyExit);
        f("predRegisters", predRegisters);
        f("cfmCamEntries", cfmCamEntries);
        f("maxDpredPathInsts", maxDpredPathInsts);
        f("classifyWrongPath", classifyWrongPath);
        f("memoryBytes", memoryBytes);
    }
};

} // namespace dmp::core

#endif // DMP_CORE_PARAMS_HH
