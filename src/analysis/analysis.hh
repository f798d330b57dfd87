/**
 * @file
 * Facade of the static-analysis subsystem.
 *
 * One call runs the program verifier (verifier.hh) and the
 * diverge-marking legality linter (lint.hh) over a Program, building
 * the shared CFG / post-dominator / flow-graph scaffolding once.
 * Consumers:
 *
 *  - `dmp lint` (src/tools/dmp.cc)
 *  - sim::loadTarget, which verifies an assembly file, value analysis
 *    on, before anything executes it
 *  - the pre-flights of sim::markProgram and sim::markRefBuild, which
 *    mark every program that `dmp run`, runSim and BatchRunner (once
 *    per profile-cache entry) simulate: a marking error throws
 *    LintError before any simulation consumes the program.
 */

#ifndef DMP_ANALYSIS_ANALYSIS_HH
#define DMP_ANALYSIS_ANALYSIS_HH

#include <cstddef>
#include <stdexcept>
#include <string>

#include "analysis/absint.hh"
#include "analysis/report.hh"
#include "isa/program.hh"
#include "profile/profiler.hh"

namespace dmp::analysis
{

/** Combined knobs of verifier + linter. */
struct AnalysisOptions
{
    /** Marker heuristics whose bounds the markings must respect. */
    profile::MarkerConfig marker{};
    /** Predicate-depth bound (mirror CoreParams::predRegisters). */
    unsigned maxPredicateDepth = 32;
    /** Data-memory size for load/store bound checks; 0 disables. */
    std::size_t memoryBytes = 0;
    /** Run the program verifier passes. */
    bool verify = true;
    /**
     * Deep mode: run the abstract-interpretation value analysis
     * (absint.hh) first and feed it into the other passes — proved
     * memory violations become Errors, proved-dead branch arms are
     * reported, and JR/RET instructions with a proved target set get
     * precise flow edges (upgrading `cfm-unverifiable` Infos to a
     * definitive verdict). Off by default: the marking pre-flights
     * and plain dmp lint keep the cheap structural-only behaviour;
     * sim::loadTarget turns it on for an assembly file, the one input
     * that comes from outside, and dmp lint --deep for its report.
     */
    bool absint = false;
    /** Narrowing sweeps when absint is on (dmp lint --deep=N). */
    unsigned absintIterations = 2;
};

/** Optional per-run analysis metadata beyond the findings. */
struct AnalysisSummary
{
    /** The value analysis ran (AnalysisOptions::absint and the engine
     *  did not decline). */
    bool absintRan = false;
    /** An unresolved indirect forced the conservative smear. */
    bool absintSmeared = false;
    /** Engine counters (valid when absintRan). */
    AbsintStats absintStats;
    /** Proof status of every conditional branch, by address. */
    std::map<Addr, BranchProof> branchProofs;
};

/** Run all enabled passes over `program` and collect the findings. */
Report analyzeProgram(const isa::Program &program,
                      const AnalysisOptions &opts,
                      AnalysisSummary *summary = nullptr);

/** A pre-flight analysis found error-severity findings. */
class LintError : public std::runtime_error
{
  public:
    LintError(std::string what_, Report report_, AnalysisSummary summary_);

    /** The full report, including the non-error findings. */
    const Report &report() const noexcept { return rep; }

    /** The analysis metadata (absint's only when the options ran it). */
    const AnalysisSummary &summary() const noexcept { return sum; }

  private:
    Report rep;
    AnalysisSummary sum;
};

/**
 * Analyze `program` and throw LintError when any finding has Error
 * severity. `subject` names the program in the exception message
 * (e.g. the workload name).
 */
void preflightOrThrow(const isa::Program &program,
                      const AnalysisOptions &opts,
                      const std::string &subject);

} // namespace dmp::analysis

#endif // DMP_ANALYSIS_ANALYSIS_HH
