/**
 * @file
 * Experiment facade: builds a workload, runs the compiler/profiling
 * pass on the train input, transfers the markings onto the ref-input
 * binary, and runs the timing core — the full flow of paper section 3.
 */

#ifndef DMP_SIM_SIMULATOR_HH
#define DMP_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/checker.hh"
#include "core/core.hh"
#include "core/params.hh"
#include "isa/program.hh"
#include "profile/profiler.hh"
#include "workloads/workloads.hh"

namespace dmp::analysis
{
struct AnalysisOptions;
class CycleAccounting;
} // namespace dmp::analysis

namespace dmp::sim
{

/** How the ref program obtains its diverge/CFM markings. */
enum class MarkMode : std::uint8_t
{
    /** Profile the train input and transfer the marks (the paper). */
    Profile,
    /** Synthesize marks statically (analysis::synthesizeMarks). */
    Static,
    /** Run unmarked (hammock/diverge predication finds nothing). */
    None,
};

/** One named machine configuration of the evaluation. */
struct Machine
{
    const char *name;
    core::CoreParams params;
};

/**
 * Every named machine, in the order `dmp run --sweep=all` lists them:
 * base (Table 2), dhp (simple hammocks), dmp (basic diverge-merge),
 * mcfm and mcfm-eexit (the cumulative section 2.7 enhancements),
 * dmp-enhanced (all three) and dual (selective dual-path). `dmp run
 * --mode`, `dmp paper` and the tests take their machines from here.
 */
const std::vector<Machine> &machines();

/** The machine called `name`; fatal when no machine has that name. */
const core::CoreParams &machine(const std::string &name);

/** "profile" / "static" / "none". */
const char *markModeName(MarkMode m);

/** Parse a markModeName spelling (false on anything else). */
bool parseMarkMode(const std::string &name, MarkMode &out);

/** One experiment's configuration. */
struct SimConfig
{
    std::string workload = "bzip2";
    core::CoreParams core;             ///< Table 2 defaults
    profile::MarkerConfig marker;      ///< section 3.2 heuristics
    /** Profile ("train") input. */
    workloads::WorkloadParams train{.seed = 0x7e41a};
    /** Measurement ("ref") input. */
    workloads::WorkloadParams ref{.seed = 0x4ef};
    /**
     * Marking source for the ref program. Profile reproduces the
     * paper's train-run flow; Static needs no training run at all
     * (ROADMAP "unmarked programs" axis); None leaves the image bare.
     */
    MarkMode markMode = MarkMode::Profile;
    /** Timing-run instruction budget (0 = to completion). */
    std::uint64_t maxInsts = 0;
    /** Timing-run cycle budget (0 = unlimited). */
    std::uint64_t maxCycles = 0;
    /**
     * Attach a CoreChecker to the timing run. A check failure throws
     * check::CheckError out of runSim/runSimOnProgram; under
     * BatchRunner this fails that run's future, not the batch.
     */
    check::Mode selfcheck = check::Mode::Off;
    /**
     * Test-only fault plan armed on the attached checker (non-owning;
     * must outlive the run). Ignored when selfcheck is Off.
     */
    const check::FaultPlan *faultPlan = nullptr;
    /**
     * Attach cycle accounting (analysis::CycleAccounting) to the
     * timing run: the result gains "acct_" counters and an accounting
     * JSON block.
     */
    bool accounting = false;

    /** Visit every field as f(name, value), in declaration order. */
    template <class F>
    constexpr void
    forEachField(F &&f) const
    {
        f("workload", workload);
        f("core", core);
        f("marker", marker);
        f("train", train);
        f("ref", ref);
        f("markMode", markMode);
        f("maxInsts", maxInsts);
        f("maxCycles", maxCycles);
        f("selfcheck", selfcheck);
        f("faultPlan", faultPlan);
        f("accounting", accounting);
    }
};

/** Condensed results of one timing run. */
struct SimResult
{
    double ipc = 0;
    std::uint64_t cycles = 0;
    std::uint64_t retiredInsts = 0;
    std::unordered_map<std::string, std::uint64_t> counters;
    std::unordered_map<std::string, DistSnapshot> distributions;
    profile::MarkingReport marking;

    double hostSeconds = 0; ///< host wall-clock of the timing run

    // Cycle accounting (present only when SimConfig::accounting ran;
    // the bucket/branch counters also appear in `counters` with an
    // "acct_" prefix).
    bool hasAccounting = false;
    std::string accountingJson; ///< analysis::CycleAccounting::json()

    /**
     * Counter lookup tolerating unknown names (returns 0, with a
     * one-shot dmp_warn so typos do not silently zero a figure).
     */
    std::uint64_t get(const std::string &name) const;

    /** Counter lookup that is fatal on an unknown name. */
    std::uint64_t require(const std::string &name) const;

    /** Distribution snapshot, or nullptr when the name is unknown. */
    const DistSnapshot *dist(const std::string &name) const;
};

/**
 * Version of the JSONL stats-record schema emitted by simResultJson
 * (dmp run --stats-json, dmp paper --stats-json; documented in
 * EXPERIMENTS.md). Every record carries it as its first field,
 * "schema". Bump when a field is renamed or removed, or when a field
 * that readers rely on is added: schema 2 added "marking", schema 3
 * dropped every field derived from "counters" and renamed the terms of
 * "fingerprint".
 */
constexpr int kStatsSchemaVersion = 3;

/**
 * Render one run as a single-line JSON object (a JSONL record):
 * {"schema":3, "label":..., "workload":..., "host_seconds":...,
 *  "counters":{...}, "distributions":{...}, "marking":{...}
 *  [, "accounting":{...}]}. Ratios such as IPC are left to the reader.
 * The marking block holds `r.marking`'s counts and misprediction
 * classification; the accounting block appears only for runs with
 * SimConfig::accounting.
 *
 * @param fingerprint when non-empty, "fingerprint" (this string) and
 *        "bench_iters" (`bench_iters`) follow host_seconds: dmp paper
 *        tags each record with its config fingerprint and iteration
 *        count.
 */
std::string simResultJson(const SimResult &r, const std::string &label,
                          const std::string &workload,
                          const std::string &fingerprint = "",
                          std::uint64_t bench_iters = 0);

/**
 * Condense a finished timing run on `machine`: cycles, IPC, every core
 * counter and distribution, and `hostSeconds`. With `acct` (already
 * finish()ed) the result also gains the "acct_" counters and the
 * accounting block. runSimOnProgram and
 * `dmp run --stats-json` both build their records here. The marking
 * report is left empty.
 */
SimResult resultOfRun(const core::Core &machine,
                      const analysis::CycleAccounting *acct,
                      double hostSeconds);

/**
 * Build + profile + mark + run one configuration.
 *
 * The profiling pass always runs (it is cheap and deterministic) so
 * that Figure 6 style classification data is available even for
 * baseline configurations; the core simply ignores markings when
 * predication is off.
 */
SimResult runSim(const SimConfig &cfg);

/**
 * Timing-run only: execute `cfg.core` over an already marked ref
 * program. `ref` is read-only (shareable across concurrent runs); the
 * report is copied into the result. runSim(cfg) is exactly
 * runSimOnProgram(prepareMarkedProgram(cfg)..., cfg).
 */
SimResult runSimOnProgram(const isa::Program &ref,
                          const profile::MarkingReport &report,
                          const SimConfig &cfg);

/**
 * The verifier and linter bounds of `cfg` (marker, predicate registers,
 * data-memory size), with the value analysis off.
 */
analysis::AnalysisOptions analysisOptions(const SimConfig &cfg);

/**
 * The unmarked program cfg.workload names: that workload built from
 * `input`, or else an assembly file. A file comes from outside, so it
 * is verified here with the value analysis; an error finding throws
 * analysis::LintError with the full report before anything executes
 * it. Generated workloads skip that pass: a test proves them clean.
 */
isa::Program loadTarget(const SimConfig &cfg,
                        const workloads::WorkloadParams &input);

/**
 * Mark `program` in place according to cfg.markMode — profile-and-mark
 * (Profile), static synthesis (Static) or clear (None) — and lint the
 * result against analysisOptions(cfg). The verifier checks the
 * unmarked program once, before marking; a program it rejects, or an
 * illegal marking, throws analysis::LintError before anything runs it.
 * For Static, pass the program that will actually run — synthesis
 * leans on a value analysis whose proofs are exact only for the
 * analyzed image, and the workload generators bake the data seed into
 * code immediates.
 */
profile::MarkingReport markProgram(isa::Program &program,
                                   const SimConfig &cfg);

/** A marked program and the report of its marking. */
struct MarkedProgram
{
    isa::Program program;
    profile::MarkingReport report;
};

/**
 * First step of preparing every run and `dmp lint`/`mark` target: load
 * the train build and mark it (markProgram). Null in Static mode, which
 * needs no training run.
 */
std::shared_ptr<const MarkedProgram> markTrainBuild(const SimConfig &cfg);

/**
 * Second step: load the ref build, the image that runs, and copy the
 * marks of `train` onto it by PC, then verify and lint it as
 * markProgram does; without `train` (Static mode), mark it in place.
 */
MarkedProgram markRefBuild(const SimConfig &cfg,
                           const MarkedProgram *train);

/** Both steps, for callers that need the marked program itself. */
MarkedProgram prepareMarkedProgram(const SimConfig &cfg);

/** Percentage helper: 100 * (a - b) / b. */
double pctDelta(double a, double b);

} // namespace dmp::sim

#endif // DMP_SIM_SIMULATOR_HH
