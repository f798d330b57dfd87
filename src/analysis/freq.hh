/**
 * @file
 * Static branch-probability and block-frequency estimation.
 *
 * The profiled marker measures edge frequencies by running the train
 * input; this pass *estimates* them from the program text alone so the
 * static marker (markgen.hh) can rank and select diverge branches
 * without any training run. The approach is the classic Wu-Larus
 * scheme: a set of syntactic branch heuristics (loop back-edge, exit,
 * return, pointer-guard, opcode, call), evidence-combined per branch,
 * then block frequencies propagated through the CFG with loop feedback.
 *
 * Everything here is deterministic and depends only on the Program:
 * the same image always yields byte-identical estimates, which the
 * dmp mark golden tests rely on.
 */

#ifndef DMP_ANALYSIS_FREQ_HH
#define DMP_ANALYSIS_FREQ_HH

#include <cstdint>
#include <vector>

#include "cfg/cfg.hh"
#include "isa/program.hh"

namespace dmp::analysis
{

struct AbsintResult;

/** The branch-probability heuristic that contributed most evidence. */
enum class ProbHeuristic : std::uint8_t
{
    None,     ///< no heuristic matched; probability 0.5
    LoopBack, ///< backward taken target: loop iteration branch
    LoopExit, ///< taken target leaves the innermost enclosing loop
    HaltExit, ///< one side leads to HALT (program exit)
    Return,   ///< one side leads to an indirect return
    Guard,    ///< null-test guarding a dereference side
    Call,     ///< exactly one side performs a call
    Opcode,   ///< equality compares are rarely true (BEQ/BNE bias)
    Proved,   ///< abstract interpretation proved the probability
};

/** Stable lowercase name of a heuristic (report/JSON vocabulary). */
const char *probHeuristicName(ProbHeuristic h);

/**
 * Static control-flow frequency estimate of one Program. All vectors
 * are indexed by cfg::BlockId of the Cfg the estimate was built from.
 */
struct FreqEstimate
{
    /** Estimated executions per program run (entry block = 1.0). */
    std::vector<double> blockFreq;
    /**
     * Estimated taken probability of the conditional branch ending the
     * block; 0.5 for blocks that do not end in one.
     */
    std::vector<double> takenProb;
    /**
     * takenProb before any value-analysis proof override: the pure
     * syntactic estimate, clamped to [0.01, 0.99]. The marking cost
     * model derives its mispredict estimate from this one — a proved
     * bias sharpens frequencies but says nothing about the dynamic
     * predictor, so it must not unmark branches the heuristics keep.
     */
    std::vector<double> heurTakenProb;
    /** Strongest heuristic behind takenProb. */
    std::vector<ProbHeuristic> heuristic;
    /** Natural-loop nesting depth (address-interval approximation). */
    std::vector<unsigned> loopDepth;

    /** blockFreq of the block containing pc (0 when outside). */
    double freqAt(const cfg::Cfg &cfg, Addr pc) const;
};

/**
 * Estimate branch probabilities and block frequencies for `program`.
 * `cfg` must be the Cfg of the same program.
 *
 * When `absint` is non-null and ran, proofs override the heuristics:
 * a branch proved one-sided gets probability exactly 1 (always taken)
 * or 0 (never taken), and a backward branch with a proved trip bound T
 * gets T/(T+1) — replacing the fixed "loops iterate ~8 times" guess
 * with a program-specific bound. All three report ProbHeuristic::Proved
 * and skip the [0.01, 0.99] heuristic clamp.
 */
FreqEstimate estimateFrequencies(const isa::Program &program,
                                 const cfg::Cfg &cfg,
                                 const AbsintResult *absint = nullptr);

} // namespace dmp::analysis

#endif // DMP_ANALYSIS_FREQ_HH
