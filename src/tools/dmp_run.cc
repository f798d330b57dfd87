/**
 * @file
 * dmp-run — command-line driver for the diverge-merge simulator.
 *
 * Runs one workload (or an assembly file) through a chosen machine
 * configuration and prints the full statistics dump. Numeric option
 * values must parse whole (decimal, 0x hex or 0 octal).
 *
 *   dmp-run [options] <workload-name | file.s>
 *
 *   --mode=base|dhp|dmp|dmp-enhanced|dual   machine mode
 *   --sweep=m1,m2,...    run several machine modes in parallel and
 *                        print a comparison table ("all" = every mode)
 *   --jobs=N             worker threads for --sweep (default: all
 *                        cores, or DMP_BENCH_JOBS)
 *   --iters=N            workload loop iterations (default 2000)
 *   --seed=N             data seed of the measured run
 *   --rob=N              reorder buffer size
 *   --depth=N            front-end depth (min. mispredict penalty)
 *   --width=N            fetch/issue/retire width
 *   --predictor=perceptron|gshare|bimodal|hybrid
 *   --perfect-cbp        perfect conditional branch prediction
 *   --perfect-conf       perfect confidence estimation
 *   --loop-ext           diverge loop branches (section 2.7.4)
 *   --mark=MODE          marking source for the measured program:
 *                        profile (train-run profiler, the paper's
 *                        flow; default), static (profile-free
 *                        synthesis, see dmp-mark), none (unmarked)
 *   --verify             statically verify the marked program before
 *                        simulating (error findings abort the run;
 *                        see dmp-lint for the standalone checker)
 *   --selfcheck[=MODE]   run under the microarchitectural self-checker
 *                        (MODE: all | invariants | lockstep | off;
 *                        bare --selfcheck = all). Also: DMP_SELFCHECK
 *                        env. The first broken invariant or
 *                        architectural divergence aborts with a
 *                        diagnosis and exit 1
 *   --selfcheck-json=PATH  write the self-check outcome (schema 1,
 *                        see EXPERIMENTS.md) to PATH
 *   --list               list workloads and exit
 *   --marks              print the marked-program listing and exit
 *
 * Observability:
 *   --debug-flags=F1,F2  print a text trace of the named event classes
 *                        (Commit, Flush, Dpred, Dual; "all" = every
 *                        one; single-run only)
 *   --list-debug-flags   print the flag table and exit
 *   --trace-file=PATH    write the text trace to PATH instead of stderr
 *   --pipeview=PATH      write a Konata/O3PipeView pipeline trace
 *                        (single-run only)
 *   --stats-json=PATH    append one JSONL stats record per run to PATH
 *   --accounting         attach top-down cycle accounting: prints the
 *                        bucket breakdown and per-branch diverge
 *                        analytics, and embeds the accounting block
 *                        in --stats-json records
 *   --perfetto=PATH      write a Chrome/Perfetto trace-event JSON file
 *                        (top-down slices, episode async spans, flush
 *                        instants; implies --accounting; single-run
 *                        only)
 */

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "analysis/analysis.hh"
#include "check/checker.hh"
#include "common/trace.hh"
#include "core/core.hh"
#include "core/pipeview.hh"
#include "core/text_trace.hh"
#include "isa/assembler.hh"
#include "profile/profiler.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace dmp;

namespace
{

struct Options
{
    std::string target;
    std::string mode = "dmp-enhanced";
    std::string sweep;
    unsigned jobs = 0; // 0: BatchRunner default
    std::uint64_t iters = 2000;
    std::uint64_t seed = 0x4ef;
    unsigned rob = 0;
    unsigned depth = 0;
    unsigned width = 0;
    std::string predictor;
    bool perfectCbp = false;
    bool perfectConf = false;
    bool loopExt = false;
    sim::MarkMode markMode = sim::MarkMode::Profile;
    bool verify = false;
    check::Mode selfcheck = check::Mode::Off;
    bool selfcheckGiven = false;
    std::string selfcheckJsonPath;
    bool list = false;
    bool marks = false;
    std::string debugFlags;
    std::string traceFile;
    std::string pipeview;
    std::string statsJson;
    bool accounting = false;
    std::string perfetto;
    bool listDebugFlags = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: dmp-run [options] <workload|file.s>\n"
                         "see the file header or README for options\n");
    std::exit(2);
}

bool
flagValue(const char *arg, const char *name, std::string &out)
{
    std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        out = arg + n + 1;
        return true;
    }
    return false;
}

/** `v` as a whole number no larger than `max`; fatal naming `name`. */
std::uint64_t
number(const char *name, const std::string &v,
       std::uint64_t max = ~std::uint64_t(0))
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 0);
    // strtoull alone would skip blanks, accept a sign and stop at junk.
    if (!std::isdigit(static_cast<unsigned char>(v[0])) || *end != '\0' ||
        errno == ERANGE || n > max)
        dmp_fatal(name, ": not a valid number: '", v, "'");
    return n;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (flagValue(a, "--mode", v))
            o.mode = v;
        else if (flagValue(a, "--sweep", v)) {
            if (v.empty())
                dmp_fatal("--sweep: no modes given");
            o.sweep = v;
        }
        else if (flagValue(a, "--jobs", v))
            o.jobs = unsigned(number("--jobs", v, UINT_MAX));
        else if (flagValue(a, "--iters", v))
            o.iters = number("--iters", v);
        else if (flagValue(a, "--seed", v))
            o.seed = number("--seed", v);
        else if (flagValue(a, "--rob", v))
            o.rob = unsigned(number("--rob", v, UINT_MAX));
        else if (flagValue(a, "--depth", v))
            o.depth = unsigned(number("--depth", v, UINT_MAX));
        else if (flagValue(a, "--width", v))
            o.width = unsigned(number("--width", v, UINT_MAX));
        else if (flagValue(a, "--predictor", v))
            o.predictor = v;
        else if (std::strcmp(a, "--perfect-cbp") == 0)
            o.perfectCbp = true;
        else if (std::strcmp(a, "--perfect-conf") == 0)
            o.perfectConf = true;
        else if (std::strcmp(a, "--loop-ext") == 0)
            o.loopExt = true;
        else if (flagValue(a, "--mark", v)) {
            if (!sim::parseMarkMode(v, o.markMode))
                dmp_fatal("--mark: unknown mode: ", v);
        }
        else if (std::strcmp(a, "--verify") == 0)
            o.verify = true;
        else if (std::strcmp(a, "--selfcheck") == 0 ||
                 flagValue(a, "--selfcheck", v)) {
            if (!check::parseMode(v, o.selfcheck))
                dmp_fatal("--selfcheck: unknown mode: ", v);
            o.selfcheckGiven = true;
        }
        else if (flagValue(a, "--selfcheck-json", v))
            o.selfcheckJsonPath = v;
        else if (std::strcmp(a, "--list") == 0)
            o.list = true;
        else if (std::strcmp(a, "--marks") == 0)
            o.marks = true;
        else if (flagValue(a, "--debug-flags", v))
            o.debugFlags = v;
        else if (flagValue(a, "--trace-file", v))
            o.traceFile = v;
        else if (flagValue(a, "--pipeview", v))
            o.pipeview = v;
        else if (flagValue(a, "--stats-json", v))
            o.statsJson = v;
        else if (std::strcmp(a, "--accounting") == 0)
            o.accounting = true;
        else if (flagValue(a, "--perfetto", v)) {
            o.perfetto = v;
            o.accounting = true;
        }
        else if (std::strcmp(a, "--list-debug-flags") == 0)
            o.listDebugFlags = true;
        else if (a[0] == '-')
            usage();
        else if (o.target.empty())
            o.target = a;
        else
            usage();
    }
    return o;
}

core::CoreParams
machineFor(const Options &o, const std::string &mode)
{
    core::CoreParams p;
    if (mode == "base") {
    } else if (mode == "dhp") {
        p.predication = core::PredicationScope::SimpleHammock;
    } else if (mode == "dmp") {
        p.predication = core::PredicationScope::Diverge;
    } else if (mode == "dmp-enhanced") {
        p.predication = core::PredicationScope::Diverge;
        p.enhMultiCfm = true;
        p.enhEarlyExit = true;
        p.enhMultiDiverge = true;
    } else if (mode == "dual") {
        p.mode = core::CoreMode::DualPath;
    } else {
        dmp_fatal("unknown machine mode: ", mode);
    }
    if (o.rob)
        p.robSize = o.rob;
    if (o.depth)
        p.frontendDepth = o.depth;
    if (o.width) {
        p.fetchWidth = o.width;
        p.issueWidth = o.width;
        p.retireWidth = o.width;
    }
    if (!o.predictor.empty()) {
        if (o.predictor == "perceptron")
            p.predictor = core::PredictorKind::Perceptron;
        else if (o.predictor == "gshare")
            p.predictor = core::PredictorKind::Gshare;
        else if (o.predictor == "bimodal")
            p.predictor = core::PredictorKind::Bimodal;
        else if (o.predictor == "hybrid")
            p.predictor = core::PredictorKind::Hybrid;
        else
            dmp_fatal("unknown --predictor: ", o.predictor);
    }
    p.perfectCondPredictor = o.perfectCbp;
    p.perfectConfidence = o.perfectConf;
    p.extLoopBranches = o.loopExt;
    return p;
}

bool
isWorkload(const std::string &name)
{
    for (const auto &info : workloads::workloadList())
        if (info.name == name)
            return true;
    return false;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** Append one JSONL record to `path` (fatal if it cannot be opened). */
void
appendStatsJson(const std::string &path, const std::string &line)
{
    std::ofstream out(path, std::ios::app);
    if (!out)
        dmp_fatal("--stats-json: cannot open ", path);
    out << line << "\n";
}

/** Write the --selfcheck-json outcome record (overwrites `path`). */
void
writeSelfcheckJson(const std::string &path, const std::string &json)
{
    std::ofstream out(path);
    if (!out)
        dmp_fatal("--selfcheck-json: cannot open ", path);
    out << json << "\n";
}

/** Report a self-check failure on stderr (and optionally as JSON). */
void
reportCheckFailure(const Options &o, const check::CheckError &e,
                   std::uint64_t checked_commits)
{
    std::fputs(e.report().text().c_str(), stderr);
    std::fputs(e.diagnosis().c_str(), stderr);
    std::fputc('\n', stderr);
    if (!o.selfcheckJsonPath.empty()) {
        writeSelfcheckJson(
            o.selfcheckJsonPath,
            check::selfcheckJson(o.selfcheck, o.target, true,
                                 checked_commits, e.report(),
                                 e.diagnosis()));
    }
}

/**
 * --sweep: run the target workload through several machine modes on
 * the BatchRunner pool and print an IPC comparison. The profiling pass
 * is shared across all modes via the batch profile cache.
 */
int
runSweep(const Options &o)
{
    if (!isWorkload(o.target))
        dmp_fatal("--sweep needs a workload name, got: ", o.target);

    std::vector<std::string> modes =
        o.sweep == "all"
            ? std::vector<std::string>{"base", "dhp", "dmp",
                                       "dmp-enhanced", "dual"}
            : splitCommas(o.sweep);
    if (modes.empty())
        dmp_fatal("--sweep: no modes given");

    std::vector<sim::SimConfig> grid;
    grid.reserve(modes.size());
    for (const std::string &mode : modes) {
        sim::SimConfig cfg;
        cfg.workload = o.target;
        cfg.core = machineFor(o, mode);
        cfg.marker.markLoopBranches = o.loopExt;
        cfg.markMode = o.markMode;
        cfg.train.iterations = o.iters;
        cfg.train.seed = 0x7e41a;
        cfg.ref.iterations = o.iters;
        cfg.ref.seed = o.seed;
        cfg.selfcheck = o.selfcheck;
        cfg.accounting = o.accounting;
        grid.push_back(cfg);
    }

    sim::BatchRunner runner(o.jobs);
    std::vector<sim::SimResult> results;
    try {
        results = runner.run(grid);
    } catch (const check::CheckError &e) {
        reportCheckFailure(o, e, 0);
        return 1;
    }

    std::printf("=== %s: %zu modes on %u worker(s) ===\n",
                o.target.c_str(), modes.size(), runner.jobs());
    std::printf("%-14s %8s %12s %12s %10s\n", "mode", "IPC", "cycles",
                "retired", "flushes");
    for (std::size_t i = 0; i < modes.size(); ++i) {
        const sim::SimResult &r = results[i];
        std::printf("%-14s %8.3f %12llu %12llu %10llu\n",
                    modes[i].c_str(), r.ipc,
                    (unsigned long long)r.cycles,
                    (unsigned long long)r.retiredInsts,
                    (unsigned long long)r.require("pipeline_flushes"));
        if (!o.statsJson.empty())
            appendStatsJson(o.statsJson,
                            sim::simResultJson(r, modes[i], o.target));
    }
    sim::BatchStats st = runner.stats();
    std::printf("profile passes: %llu (hits %llu), sims: %llu "
                "(%.2fs sim wall-clock)\n",
                (unsigned long long)st.profileRuns,
                (unsigned long long)st.profileHits,
                (unsigned long long)st.simRuns, st.simSeconds);
    if (o.selfcheck != check::Mode::Off) {
        std::printf("selfcheck: clean (mode=%s across %zu runs)\n",
                    check::modeName(o.selfcheck), grid.size());
        if (!o.selfcheckJsonPath.empty()) {
            writeSelfcheckJson(
                o.selfcheckJsonPath,
                check::selfcheckJson(o.selfcheck, o.target, false, 0,
                                     analysis::Report{}, ""));
        }
    }
    return 0;
}

int
runMain(int argc, char **argv)
{
    Options o = parse(argc, argv);

    if (o.listDebugFlags) {
        for (const core::TraceFlagInfo &fi : core::kTraceFlags)
            std::printf("%-10s %s\n", fi.name, fi.desc);
        return 0;
    }
    const unsigned trace_flags = core::parseTraceFlags(o.debugFlags);

    if (o.list) {
        for (const auto &info : workloads::workloadList())
            std::printf("%-10s %s\n", info.name.c_str(),
                        info.summary.c_str());
        return 0;
    }
    if (o.target.empty())
        usage();

    if (!o.selfcheckGiven) {
        if (const char *env = std::getenv("DMP_SELFCHECK")) {
            if (!check::parseMode(env, o.selfcheck))
                dmp_fatal("DMP_SELFCHECK: unknown mode: ", env);
        }
    }
    if (!o.sweep.empty()) {
        const char *single_run = !o.perfetto.empty() ? "--perfetto"
                                 : !o.pipeview.empty() ? "--pipeview"
                                 : trace_flags         ? "--debug-flags"
                                                       : nullptr;
        if (single_run)
            dmp_fatal(single_run, " is single-run only (the trace would "
                      "interleave sweep runs); drop --sweep");
        return runSweep(o);
    }

    core::CoreParams params = machineFor(o, o.mode);

    // Build or load the program. All three --mark modes flow through
    // sim::markTrainProgram so this path and the batch pool agree.
    sim::SimConfig mcfg;
    mcfg.core = params;
    mcfg.marker.markLoopBranches = o.loopExt;
    mcfg.markMode = o.markMode;

    isa::Program prog;
    profile::MarkingReport report;
    if (isWorkload(o.target)) {
        workloads::WorkloadParams ref;
        ref.iterations = o.iters;
        ref.seed = o.seed;
        prog = workloads::buildWorkload(o.target, ref);
        if (o.markMode == sim::MarkMode::Static) {
            // Static synthesis marks the binary that runs: the train
            // build's seeded immediates differ, so value-analysis
            // proofs made there need not hold here.
            report = sim::markTrainProgram(prog, mcfg);
        } else {
            workloads::WorkloadParams train;
            train.iterations = o.iters;
            train.seed = 0x7e41a;
            isa::Program tp = workloads::buildWorkload(o.target, train);
            report = sim::markTrainProgram(tp, mcfg);
            profile::transferMarks(tp, prog);
        }
    } else {
        std::ifstream in(o.target);
        if (!in)
            dmp_fatal("cannot open ", o.target);
        std::ostringstream text;
        text << in.rdbuf();
        prog = isa::assemble(text.str());
        report = sim::markTrainProgram(prog, mcfg);
    }

    if (o.marks) {
        std::fputs(prog.listing().c_str(), stdout);
        return 0;
    }

    if (o.verify) {
        analysis::AnalysisOptions ao;
        ao.marker.markLoopBranches = o.loopExt;
        ao.maxPredicateDepth = params.predRegisters;
        ao.memoryBytes = params.memoryBytes;
        analysis::Report vr = analysis::analyzeProgram(prog, ao);
        if (!vr.empty())
            std::fputs(vr.text().c_str(), stderr);
        if (!vr.clean())
            dmp_fatal("--verify: ", vr.errors(),
                      " error finding(s); not simulating");
        std::printf("verify: clean (%zu warning(s), %zu info(s))\n",
                    vr.warnings(), vr.infos());
    }

    std::printf("target=%s mode=%s mark=%s marked: %llu diverge, "
                "%llu hammock\n",
                o.target.c_str(), o.mode.c_str(),
                sim::markModeName(o.markMode),
                (unsigned long long)report.markedDiverge,
                (unsigned long long)report.markedSimpleHammock);

    core::Core machine(prog, params);
    std::unique_ptr<core::TextTraceObserver> text_trace;
    if (trace_flags) {
        text_trace = std::make_unique<core::TextTraceObserver>(
            machine, trace_flags, o.traceFile);
        machine.addObserver(text_trace.get());
    }
    std::unique_ptr<trace::PipeView> pv;
    std::unique_ptr<core::PipeViewObserver> pv_obs;
    if (!o.pipeview.empty()) {
        pv = std::make_unique<trace::PipeView>(o.pipeview);
        pv_obs = std::make_unique<core::PipeViewObserver>(machine, *pv);
        machine.addObserver(pv_obs.get());
    }
    std::unique_ptr<check::CoreChecker> checker;
    if (o.selfcheck != check::Mode::Off) {
        check::CheckerOptions copt;
        copt.mode = o.selfcheck;
        checker = std::make_unique<check::CoreChecker>(prog, machine, copt);
        machine.addObserver(checker.get());
    }
    std::unique_ptr<analysis::CycleAccounting> acct;
    std::unique_ptr<trace::TraceEventWriter> perfetto;
    if (o.accounting) {
        acct = std::make_unique<analysis::CycleAccounting>(
            params.frontendDepth, params.retireWidth);
        if (!o.perfetto.empty()) {
            perfetto =
                std::make_unique<trace::TraceEventWriter>(o.perfetto);
            acct->attachTrace(perfetto.get());
        }
        machine.addObserver(acct.get());
    }
    auto host_start = std::chrono::steady_clock::now();
    try {
        machine.run();
    } catch (const check::CheckError &e) {
        reportCheckFailure(o, e,
                           checker ? checker->checkedCommits() : 0);
        return 1;
    }
    double host_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - host_start)
                              .count();

    if (checker) {
        std::printf("selfcheck: clean (mode=%s, %llu commits "
                    "cross-checked, %llu invariant passes)\n",
                    check::modeName(o.selfcheck),
                    (unsigned long long)checker->checkedCommits(),
                    (unsigned long long)checker->invariantPasses());
        if (!o.selfcheckJsonPath.empty()) {
            writeSelfcheckJson(
                o.selfcheckJsonPath,
                check::selfcheckJson(o.selfcheck, o.target, false,
                                     checker->checkedCommits(),
                                     analysis::Report{}, ""));
        }
    }

    const core::CoreStats &st = machine.stats();
    double ipc = st.cycles.value()
                     ? double(st.retiredInsts.value()) /
                           double(st.cycles.value())
                     : 0.0;
    std::printf("IPC %.3f over %llu cycles\n\n", ipc,
                (unsigned long long)st.cycles.value());
    std::fputs(st.group.dump().c_str(), stdout);
    if (pv)
        std::printf("pipeview: %llu records -> %s\n",
                    (unsigned long long)pv->count(), o.pipeview.c_str());
    if (acct) {
        acct->finish();
        std::fputs(acct->summary().c_str(), stdout);
    }
    if (perfetto) {
        perfetto->close();
        std::printf("perfetto: %llu events -> %s\n",
                    (unsigned long long)perfetto->count(),
                    o.perfetto.c_str());
    }

    if (!o.statsJson.empty()) {
        sim::SimResult r;
        r.cycles = st.cycles.value();
        r.retiredInsts = st.retiredInsts.value();
        r.ipc = ipc;
        r.hostSeconds = host_seconds;
        r.hostInstRate = host_seconds > 0
                             ? double(r.retiredInsts) / host_seconds
                             : 0.0;
        for (const std::string &name : st.group.names())
            r.counters.emplace(name, st.group.get(name));
        for (const std::string &name : st.group.distributionNames())
            r.distributions.emplace(
                name, st.group.distribution(name).snapshot());
        for (const std::string &name : st.group.formulaNames())
            r.formulas.emplace(name, st.group.formula(name));
        if (acct) {
            const StatGroup &ag = acct->stats();
            for (const std::string &name : ag.names())
                r.counters.emplace("acct_" + name, ag.get(name));
            r.hasAccounting = true;
            r.accountingJson = acct->json();
        }
        appendStatsJson(o.statsJson,
                        sim::simResultJson(r, o.mode, o.target));
    }
    return machine.halted() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Surface stray exceptions (LintError from --verify, filesystem
    // errors) as a clean diagnostic instead of std::terminate.
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dmp-run: %s\n", e.what());
        return 1;
    }
}
