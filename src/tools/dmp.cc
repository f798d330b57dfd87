/**
 * @file
 * dmp — the command-line tool: one binary whose first argument picks
 * a subcommand.
 *
 *   dmp run    [options] <workload-name | file.s>
 *   dmp lint   [options] <workload-name | file.s | all> ...
 *   dmp mark   [options] <workload-name | file.s | all> ...
 *   dmp report [options] <stats.jsonl> ...
 *   dmp paper  [options] <figure | all>
 *
 * Every numeric option value must parse whole (decimal, 0x hex or 0
 * octal; --prune takes a decimal fraction), or the command fails
 * naming the option. Exit status: 0 when clean, 1 on findings or a
 * fatal error, 2 on usage errors (a missing or unknown subcommand
 * prints the subcommand list).
 *
 * dmp run — run one workload (or an assembly file) through a chosen
 * machine configuration and print the full statistics dump. The
 * marked program is linted first, as dmp lint does; an error finding
 * refuses the run (exit 1), and dmp lint prints the full report. A
 * program the verifier rejects is refused before a profile train run
 * would execute it (dmp lint reports it unmarked, dmp mark refuses it).
 *
 *   --mode=NAME          machine mode, from sim::machines(): base,
 *                        dhp, dmp, mcfm, mcfm-eexit, dmp-enhanced
 *                        (default) or dual
 *   --sweep=m1,m2,...    run several machine modes in parallel and
 *                        print dmp report's summary table of the runs
 *                        ("all" = every mode)
 *   --jobs=N             worker threads for --sweep (default: all
 *                        cores, at most 256)
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
 *                        synthesis, see dmp mark), none (unmarked)
 *   --selfcheck[=MODE]   run under the microarchitectural self-checker
 *                        (MODE: all | invariants | lockstep | off;
 *                        bare --selfcheck = all). The first broken
 *                        invariant or architectural divergence aborts
 *                        with a diagnosis and exit 1
 *   --selfcheck-json=PATH  write the self-check outcome (schema 1,
 *                        see EXPERIMENTS.md) to PATH
 *   --list               list workloads and exit
 *   --marks              print the marked-program listing and exit
 *   --debug-flags=F1,F2  print a text trace of the named event classes
 *                        (Commit, Flush, Dpred, Dual; "all" = every
 *                        one; single-run only)
 *   --list-debug-flags   print the flag table and exit
 *   --trace-file=PATH    write the text trace to PATH instead of stderr
 *   --pipeview=PATH      write a Konata/O3PipeView pipeline trace
 *                        (single-run only)
 *   --stats-json=PATH    append one JSONL stats record per run to PATH
 *   --accounting         attach top-down cycle accounting: prints dmp
 *                        report's --topdown and --branches tables of
 *                        the run, and embeds the accounting block in
 *                        --stats-json records
 *   --perfetto=PATH      write a Chrome/Perfetto trace-event JSON file
 *                        (top-down slices, episode async spans, flush
 *                        instants; implies --accounting; single-run
 *                        only)
 *
 * dmp lint — static verifier and diverge-marking legality linter.
 * Builds (or assembles) each target, marks it the way dmp run's train
 * pass does, then checks the program itself (branch targets,
 * reachability, call discipline, register init, memory sanity) and
 * every diverge marking against CFG / dominator-tree ground truth.
 * Exits 1 when any target has error findings.
 *
 *   --iters=N       workload loop iterations for the train build
 *                   (default 2000)
 *   --seed=N        train-run data seed (default: dmp run's train seed)
 *   --loop-ext      mark loop diverge branches (section 2.7.4)
 *   --no-mark       lint the unmarked program (verifier passes only)
 *   --depth=N       predicate-depth bound (default:
 *                   CoreParams::predRegisters)
 *   --mem=N         data-memory bytes for load/store bound checks
 *                   (default: CoreParams::memoryBytes)
 *   --deep[=N]      run the abstract-interpretation value analysis
 *                   (N narrowing sweeps, default 2): proved memory
 *                   violations become Errors, proved-dead branch arms
 *                   and semantic unreachability are reported, resolved
 *                   indirect jumps upgrade cfm-unverifiable, and the
 *                   JSON gains per-target absint/branch-proof blocks
 *   --json[=PATH]   machine-readable report to PATH, or to stdout
 *                   (the text report then goes to stderr, so stdout
 *                   holds only the document); schema in EXPERIMENTS.md
 *   --quiet         suppress per-finding text output (summary only)
 *
 * dmp mark — profile-free static marking synthesis report. Builds (or
 * assembles) each target, synthesizes diverge/CFM markings from static
 * analysis alone (analysis/markgen.hh), lints them and, unless told
 * otherwise, runs the profiled marker on a second copy of the same
 * image to report how closely the two agree. Exits 1 when any
 * synthesized marking has error findings.
 *
 *   --iters=N       workload loop iterations (default 2000)
 *   --seed=N        data seed of the built image (default: dmp run's
 *                   train seed, so the comparison profiles the same
 *                   program dmp run trains on)
 *   --loop-ext      mark loop diverge branches (section 2.7.4)
 *   --no-hammock    skip the simple-hammock (DHP) marks
 *   --prune=P       frequent-path edge-pruning threshold (default 0.1)
 *   --no-compare    skip the profiled-marker agreement pass
 *   --no-absint     pure-heuristic synthesis; by default abstract
 *                   interpretation refines the frequency estimate and
 *                   per-branch proof status appears in the reports
 *   --mem=N         data-memory bytes for the comparison train run
 *                   (default: CoreParams::memoryBytes)
 *   --json[=PATH]   machine-readable report to PATH, or to stdout
 *                   (the text report then goes to stderr, so stdout
 *                   holds only the document); schema in EXPERIMENTS.md.
 *                   Byte-deterministic per target.
 *   --quiet         suppress the per-candidate cost table
 *
 * dmp report — aggregate --stats-json JSONL records (dmp run, dmp paper)
 * into figure-ready tables, without re-running any simulation.
 *
 *   --summary            per-run overview (the default section)
 *   --topdown            top-down cycle breakdown, % of cycles per
 *                        bucket (records carrying an accounting block)
 *   --diff=A,B           mode-vs-mode comparison of labels A and B:
 *                        IPC delta and flush reduction per workload
 *   --branches[=N]       per-branch "who benefits from DMP" ranking by
 *                        estimated net cycles (top N rows; default 20,
 *                        0 = all); needs accounting records
 *   --figure=NAME        dmp paper's tables of figure NAME ("all" =
 *                        every one) from its --stats-json records, each
 *                        cell found by config fingerprint; a missing
 *                        cell fails naming figure, workload and cell
 *   --markings=PATH      static-marking agreement table from a
 *                        dmp mark --json report (per workload: mark
 *                        counts, lint totals, diverge precision /
 *                        recall and CFM match rate vs the profiler).
 *                        PATH is a dmp mark report, not a stats JSONL;
 *                        with only this section, no JSONL inputs are
 *                        needed
 *   --proofs=PATH        abstract-interpretation proof summary from a
 *                        dmp lint --deep --json report (per workload:
 *                        proved one-sided branches, trip bounds,
 *                        resolved indirects, smear/decline status).
 *                        Like --markings, PATH is its own report file
 *                        and no JSONL inputs are needed
 *   --format=text|json|md  output rendering (default text)
 *
 * Passing any section flag suppresses the default summary; several
 * section flags compose in the order given. Records from multiple
 * input files are concatenated.
 *
 * dmp paper — regenerate tables and figures of the paper's evaluation
 * (sim/paper.hh; "all" = every one, in order). Every cell of every
 * selected figure runs through one worker pool, so a configuration
 * two figures share simulates once; then the tables print in order,
 * rendered from the runs' stats records as dmp report --figure does.
 *
 *   --iters=N            workload loop iterations (default 2000)
 *   --workloads=a,b,...  table rows (default: all 15 workloads)
 *   --jobs=N             worker threads (default: all cores, at
 *                        most 256)
 *   --accounting         attach cycle accounting to every run (the
 *                        records gain the accounting block)
 *   --stats-json=PATH    append one JSONL record per distinct run to
 *                        PATH, with its config fingerprint and
 *                        bench_iters
 */

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/accounting.hh"
#include "analysis/analysis.hh"
#include "analysis/markgen.hh"
#include "check/checker.hh"
#include "common/json.hh"
#include "common/trace.hh"
#include "core/core.hh"
#include "core/pipeview.hh"
#include "core/text_trace.hh"
#include "isa/assembler.hh"
#include "profile/profiler.hh"
#include "sim/batch.hh"
#include "sim/paper.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace dmp;

namespace
{

/** Workload loop iterations when --iters is not given. */
constexpr std::uint64_t kDefaultIters = 2000;

/** Largest --jobs: each job is one worker thread. */
constexpr std::uint64_t kMaxJobs = 256;

/** Each subcommand's name and synopsis, in the order usage lists them. */
constexpr const char *kSubcommands[][2] = {
    {"run", "[options] <workload|file.s>"},
    {"lint", "[options] <workload|file.s|all> ..."},
    {"mark", "[options] <workload|file.s|all> ..."},
    {"report", "[options] <stats.jsonl> ..."},
    {"paper", "[options] <figure|all>"},
};

/**
 * Print the synopsis of subcommand `sub`, or of every subcommand when
 * `sub` names none, and exit 2.
 */
[[noreturn]] void
usage(const std::string &sub)
{
    bool known = false;
    for (const auto &[name, synopsis] : kSubcommands)
        known = known || sub == name;
    std::fputs("usage:\n", stderr);
    for (const auto &[name, synopsis] : kSubcommands)
        if (!known || sub == name)
            std::fprintf(stderr, "  dmp %s %s\n", name, synopsis);
    std::fputs("see the file header or README for options\n", stderr);
    std::exit(2);
}

/**
 * Whether `arg` is option `name`. With `value` null only the bare
 * `name` matches; otherwise only `name=VALUE` does, and VALUE is
 * stored in `*value`.
 */
bool
option(const char *arg, const char *name, std::string *value = nullptr)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0)
        return false;
    if (!value)
        return arg[n] == '\0';
    if (arg[n] != '=')
        return false;
    *value = arg + n + 1;
    return true;
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

/** `v` as a finite non-negative decimal fraction; fatal naming `name`. */
double
fraction(const char *name, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const double d = std::strtod(v.c_str(), &end);
    // As in number(): no blanks, sign, junk, inf or nan.
    if (!(std::isdigit(static_cast<unsigned char>(v[0])) || v[0] == '.') ||
        *end != '\0' || errno == ERANGE || !std::isfinite(d))
        dmp_fatal(name, ": not a valid number: '", v, "'");
    return d;
}

bool
isWorkload(const std::string &name)
{
    for (const auto &info : workloads::workloadList())
        if (info.name == name)
            return true;
    return false;
}

/** Build workload `target` from `params`, or assemble the file `target`. */
isa::Program
loadTarget(const std::string &target,
           const workloads::WorkloadParams &params)
{
    if (isWorkload(target))
        return workloads::buildWorkload(target, params);
    std::ifstream in(target);
    if (!in)
        dmp_fatal("cannot open ", target);
    std::ostringstream text;
    text << in.rdbuf();
    return isa::assemble(text.str());
}

/**
 * The verifier's findings on `prog` as loaded, unmarked. Marking by
 * profile executes the program, so a target with an error here is
 * reported with these findings instead of being profiled.
 */
analysis::Report
verifyUnmarked(const isa::Program &prog, std::size_t memoryBytes)
{
    analysis::AnalysisOptions ao;
    ao.memoryBytes = memoryBytes;
    return analysis::analyzeProgram(prog, ao);
}

/** `targets` with each "all" replaced by every workload name. */
std::vector<std::string>
expandAll(const std::vector<std::string> &targets)
{
    std::vector<std::string> out;
    for (const std::string &t : targets) {
        if (t == "all") {
            for (const auto &info : workloads::workloadList())
                out.push_back(info.name);
        } else {
            out.push_back(t);
        }
    }
    return out;
}

/** Write a --json document to `path`, or to stdout when it is empty. */
void
writeJson(const std::string &path, const std::string &doc)
{
    if (path.empty()) {
        std::fputs(doc.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    if (!out)
        dmp_fatal("--json: cannot open ", path);
    out << doc;
}

/**
 * The options `dmp lint` and `dmp mark` share: the targets, how
 * workloads are built, the data-memory size and the report sinks.
 */
struct TargetOptions
{
    std::vector<std::string> targets;
    workloads::WorkloadParams build;
    bool loopExt = false;
    std::size_t mem = 0; // 0: CoreParams::memoryBytes
    bool quiet = false;
    bool json = false;
    std::string jsonPath; // empty with json=true: stdout

    TargetOptions()
    {
        build.iterations = kDefaultIters;
        build.seed = sim::SimConfig{}.train.seed;
    }

    /** Consume `a` if it is one of these options; false otherwise. */
    bool
    take(const char *a)
    {
        std::string v;
        if (option(a, "--iters", &v))
            build.iterations = number("--iters", v);
        else if (option(a, "--seed", &v))
            build.seed = number("--seed", v);
        else if (option(a, "--loop-ext"))
            loopExt = true;
        else if (option(a, "--mem", &v))
            mem = number("--mem", v);
        else if (option(a, "--quiet"))
            quiet = true;
        else if (option(a, "--json"))
            json = true;
        else if (option(a, "--json", &v)) {
            json = true;
            jsonPath = v;
        } else
            return false;
        return true;
    }
};

// ---------------------------------------------------------------- run

struct RunOptions
{
    std::string target;
    std::string mode = "dmp-enhanced";
    std::string sweep;
    unsigned jobs = 0; // 0: BatchRunner default
    std::uint64_t iters = kDefaultIters;
    std::uint64_t seed = sim::SimConfig{}.ref.seed;
    unsigned rob = 0;
    unsigned depth = 0;
    unsigned width = 0;
    std::string predictor;
    bool perfectCbp = false;
    bool perfectConf = false;
    bool loopExt = false;
    sim::MarkMode markMode = sim::MarkMode::Profile;
    check::Mode selfcheck = check::Mode::Off;
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

RunOptions
parseRun(int argc, char **argv)
{
    RunOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (option(a, "--mode", &v))
            o.mode = v;
        else if (option(a, "--sweep", &v)) {
            if (v.empty())
                dmp_fatal("--sweep: no modes given");
            o.sweep = v;
        }
        else if (option(a, "--jobs", &v))
            o.jobs = unsigned(number("--jobs", v, kMaxJobs));
        else if (option(a, "--iters", &v))
            o.iters = number("--iters", v);
        else if (option(a, "--seed", &v))
            o.seed = number("--seed", v);
        else if (option(a, "--rob", &v))
            o.rob = unsigned(number("--rob", v, UINT_MAX));
        else if (option(a, "--depth", &v))
            o.depth = unsigned(number("--depth", v, UINT_MAX));
        else if (option(a, "--width", &v))
            o.width = unsigned(number("--width", v, UINT_MAX));
        else if (option(a, "--predictor", &v))
            o.predictor = v;
        else if (option(a, "--perfect-cbp"))
            o.perfectCbp = true;
        else if (option(a, "--perfect-conf"))
            o.perfectConf = true;
        else if (option(a, "--loop-ext"))
            o.loopExt = true;
        else if (option(a, "--mark", &v)) {
            if (!sim::parseMarkMode(v, o.markMode))
                dmp_fatal("--mark: unknown mode: ", v);
        }
        else if (option(a, "--selfcheck") ||
                 option(a, "--selfcheck", &v)) {
            if (!check::parseMode(v, o.selfcheck))
                dmp_fatal("--selfcheck: unknown mode: ", v);
        }
        else if (option(a, "--selfcheck-json", &v))
            o.selfcheckJsonPath = v;
        else if (option(a, "--list"))
            o.list = true;
        else if (option(a, "--marks"))
            o.marks = true;
        else if (option(a, "--debug-flags", &v))
            o.debugFlags = v;
        else if (option(a, "--trace-file", &v))
            o.traceFile = v;
        else if (option(a, "--pipeview", &v))
            o.pipeview = v;
        else if (option(a, "--stats-json", &v))
            o.statsJson = v;
        else if (option(a, "--accounting"))
            o.accounting = true;
        else if (option(a, "--perfetto", &v)) {
            o.perfetto = v;
            o.accounting = true;
        }
        else if (option(a, "--list-debug-flags"))
            o.listDebugFlags = true;
        else if (a[0] == '-' || !o.target.empty())
            usage("run");
        else
            o.target = a;
    }
    return o;
}

core::CoreParams
machineFor(const RunOptions &o, const std::string &mode)
{
    core::CoreParams p = sim::machine(mode);
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

/** The simulation `o` asks for on machine mode `mode`. */
sim::SimConfig
simConfigFor(const RunOptions &o, const std::string &mode)
{
    sim::SimConfig cfg;
    cfg.workload = o.target;
    cfg.core = machineFor(o, mode);
    cfg.marker.markLoopBranches = o.loopExt;
    cfg.markMode = o.markMode;
    cfg.train.iterations = o.iters;
    cfg.ref.iterations = o.iters;
    cfg.ref.seed = o.seed;
    cfg.selfcheck = o.selfcheck;
    cfg.accounting = o.accounting;
    return cfg;
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
reportCheckFailure(const RunOptions &o, const check::CheckError &e,
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
runSweep(const RunOptions &o)
{
    if (!isWorkload(o.target))
        dmp_fatal("--sweep needs a workload name, got: ", o.target);

    std::vector<std::string> modes;
    if (o.sweep == "all") {
        for (const sim::Machine &m : sim::machines())
            modes.emplace_back(m.name);
    } else {
        modes = splitCommas(o.sweep);
    }
    if (modes.empty())
        dmp_fatal("--sweep: no modes given");

    std::vector<sim::SimConfig> grid;
    grid.reserve(modes.size());
    for (const std::string &mode : modes)
        grid.push_back(simConfigFor(o, mode));

    sim::BatchRunner runner(o.jobs);
    std::vector<sim::SimResult> results;
    try {
        results = runner.run(grid);
    } catch (const check::CheckError &e) {
        reportCheckFailure(o, e, 0);
        return 1;
    }

    std::vector<sim::StatsRecord> records(modes.size());
    for (std::size_t i = 0; i < modes.size(); ++i) {
        const std::string line =
            sim::simResultJson(results[i], modes[i], o.target);
        if (!o.statsJson.empty())
            appendStatsJson(o.statsJson, line);
        std::string err;
        if (!sim::parseStatsRecord(line, records[i], err))
            dmp_fatal("--sweep: ", err);
    }
    sim::ReportTable table = sim::summaryTable(records);
    table.title = o.target + ": " + std::to_string(modes.size()) +
                  " modes on " + std::to_string(runner.jobs()) + " worker(s)";
    std::fputs(sim::renderTables({table}, sim::ReportFormat::Text).c_str(),
               stdout);
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
runCommand(int argc, char **argv)
{
    RunOptions o = parseRun(argc, argv);

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
        usage("run");

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

    // A workload goes through the same train/ref flow as the batch
    // pool; an assembly file is marked in place. Either way the marked
    // program is linted first, and an error finding refuses the run.
    const sim::SimConfig cfg = simConfigFor(o, o.mode);
    const core::CoreParams &params = cfg.core;
    isa::Program prog;
    profile::MarkingReport report;
    if (isWorkload(o.target)) {
        std::tie(prog, report) = sim::prepareMarkedProgram(cfg);
    } else {
        prog = loadTarget(o.target, cfg.ref);
        report = sim::markProgram(prog, cfg);
    }

    if (o.marks) {
        std::fputs(prog.listing().c_str(), stdout);
        return 0;
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

    if (acct)
        acct->finish();
    sim::SimResult r = sim::resultOfRun(machine, acct.get(), host_seconds);
    r.marking = std::move(report);
    std::printf("IPC %.3f over %llu cycles\n\n", r.ipc,
                (unsigned long long)r.cycles);
    std::fputs(dumpStats("core", machine.stats()).c_str(), stdout);
    if (pv)
        std::printf("pipeview: %llu records -> %s\n",
                    (unsigned long long)pv->count(), o.pipeview.c_str());
    const std::string record = sim::simResultJson(r, o.mode, o.target);
    if (acct) {
        // The same tables dmp report --topdown --branches prints.
        std::vector<sim::StatsRecord> recs(1);
        std::string err;
        if (!sim::parseStatsRecord(record, recs[0], err))
            dmp_fatal("dmp run: ", err);
        std::fputs(sim::renderTables({sim::topdownTable(recs),
                                      sim::branchTable(recs, 20)},
                                     sim::ReportFormat::Text)
                       .c_str(),
                   stdout);
    }
    if (perfetto) {
        perfetto->close();
        std::printf("perfetto: %llu events -> %s\n",
                    (unsigned long long)perfetto->count(),
                    o.perfetto.c_str());
    }

    if (!o.statsJson.empty())
        appendStatsJson(o.statsJson, record);
    return machine.halted() ? 0 : 1;
}

// --------------------------------------------------------------- lint

int
lintCommand(int argc, char **argv)
{
    TargetOptions o;
    bool noMark = false, deep = false;
    unsigned depth = 0;    // 0: CoreParams::predRegisters
    unsigned deepIters = 2;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (o.take(a))
            continue;
        if (option(a, "--no-mark"))
            noMark = true;
        else if (option(a, "--depth", &v))
            depth = unsigned(number("--depth", v, UINT_MAX));
        else if (option(a, "--deep"))
            deep = true;
        else if (option(a, "--deep", &v)) {
            deep = true;
            deepIters = unsigned(number("--deep", v, UINT_MAX));
        }
        else if (a[0] == '-')
            usage("lint");
        else
            o.targets.push_back(a);
    }
    if (o.targets.empty())
        usage("lint");
    const std::vector<std::string> targets = expandAll(o.targets);

    const core::CoreParams defaults;
    analysis::AnalysisOptions ao;
    ao.marker.markLoopBranches = o.loopExt;
    ao.maxPredicateDepth = depth ? depth : defaults.predRegisters;
    ao.memoryBytes = o.mem ? o.mem : defaults.memoryBytes;
    ao.absint = deep;
    ao.absintIterations = deepIters;

    json::Writer doc;
    doc.beginObject().field("schema", analysis::kReportSchemaVersion);
    doc.key("targets").beginArray();

    // With the document on stdout, the text report goes to stderr.
    std::FILE *text = o.json && o.jsonPath.empty() ? stderr : stdout;
    std::size_t total_errors = 0, total_warnings = 0, total_infos = 0;
    for (const std::string &target : targets) {
        // Mark the way dmp run's train pass would, unless the verifier
        // rejects the unmarked program: then its findings are reported.
        isa::Program prog = loadTarget(target, o.build);
        if (!noMark && verifyUnmarked(prog, ao.memoryBytes).errors() == 0)
            profile::profileAndMark(prog, ao.memoryBytes, ao.marker);
        analysis::AnalysisSummary summary;
        analysis::Report report =
            analysis::analyzeProgram(prog, ao, &summary);

        total_errors += report.errors();
        total_warnings += report.warnings();
        total_infos += report.infos();

        if (!o.quiet && !report.empty()) {
            std::fprintf(text, "== %s ==\n", target.c_str());
            std::fputs(report.text().c_str(), text);
        }
        std::fprintf(text, "%-12s %zu marks: %zu error(s), %zu warning(s), "
                     "%zu info(s)\n",
                     target.c_str(), prog.allMarks().size(),
                     report.errors(), report.warnings(), report.infos());
        if (deep && !o.quiet) {
            const analysis::AbsintStats &s = summary.absintStats;
            if (summary.absintRan)
                std::fprintf(text, "             absint: %zu/%zu branches "
                             "proved one-sided, %zu trip-bounded, "
                             "%zu/%zu indirects resolved, %zu/%zu insts "
                             "unreachable%s\n",
                             s.provedTaken + s.provedNotTaken, s.branches,
                             s.tripBounded, s.indirectResolved,
                             s.indirectResolved + s.indirectUnresolved,
                             s.unreachable, s.insts,
                             summary.absintSmeared ? " (smeared)" : "");
            else
                std::fputs("             absint: declined "
                           "(program too large or no fixpoint)\n",
                           text);
        }

        if (!o.json)
            continue;
        doc.newline().beginObject().field("target", target);
        doc.field("marks", prog.allMarks().size());
        doc.field("errors", report.errors());
        doc.field("warnings", report.warnings());
        doc.field("infos", report.infos());
        if (deep) {
            const analysis::AbsintStats &s = summary.absintStats;
            doc.key("absint").beginObject().field("ran", summary.absintRan);
            doc.field("smeared", summary.absintSmeared);
            doc.field("insts", s.insts).field("unreachable", s.unreachable);
            doc.field("branches", s.branches);
            doc.field("proved_taken", s.provedTaken);
            doc.field("proved_not_taken", s.provedNotTaken);
            doc.field("trip_bounded", s.tripBounded);
            doc.field("indirect_resolved", s.indirectResolved);
            doc.field("indirect_unresolved", s.indirectUnresolved);
            doc.field("iterations", s.iterations).endObject();
            doc.key("branch_proofs").beginArray();
            for (const auto &[pc, proof] : summary.branchProofs) {
                using Status = analysis::BranchProof::Status;
                if (proof.status == Status::None && proof.tripMax == 0)
                    continue;
                doc.beginObject().field("pc", trace::hex(pc));
                doc.field("status", proof.status == Status::Taken ? "taken"
                                    : proof.status == Status::NotTaken
                                        ? "not-taken"
                                        : "none");
                doc.field("backward", proof.backward);
                doc.field("trip_max", proof.tripMax).endObject();
            }
            doc.endArray();
        }
        report.json(doc.key("findings"));
        doc.endObject();
    }

    if (o.json) {
        // Aggregate summary so automation sees warning/info totals
        // (the exit status only reflects errors, which used to make
        // expected Warns — twolf/fma3d diverge-overlap — invisible).
        doc.newline().endArray().key("summary").beginObject();
        doc.field("targets", targets.size()).field("errors", total_errors);
        doc.field("warnings", total_warnings).field("infos", total_infos);
        writeJson(o.jsonPath, doc.endObject().endObject().take() + "\n");
    }

    if (targets.size() > 1)
        std::fprintf(text, "total: %zu error(s), %zu warning(s), %zu info(s) "
                     "across %zu target(s)\n",
                     total_errors, total_warnings, total_infos,
                     targets.size());
    return total_errors ? 1 : 0;
}

// --------------------------------------------------------------- mark

int
markCommand(int argc, char **argv)
{
    TargetOptions o;
    const core::CoreParams defaults;
    analysis::MarkGenConfig mg;
    mg.maxPredicateDepth = defaults.predRegisters;
    bool compare = true;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (o.take(a))
            continue;
        if (option(a, "--no-hammock"))
            mg.markHammocks = false;
        else if (option(a, "--no-compare"))
            compare = false;
        else if (option(a, "--no-absint"))
            mg.useAbsint = false;
        else if (option(a, "--prune", &v))
            mg.pruneProbability = fraction("--prune", v);
        else if (a[0] == '-')
            usage("mark");
        else
            o.targets.push_back(a);
    }
    if (o.targets.empty())
        usage("mark");
    const std::vector<std::string> targets = expandAll(o.targets);
    mg.marker.markLoopBranches = o.loopExt;
    const std::size_t mem = o.mem ? o.mem : defaults.memoryBytes;

    json::Writer doc;
    doc.beginObject().field("schema", analysis::kMarkGenSchemaVersion);
    doc.key("targets").beginArray();

    // With the document on stdout, the text report goes to stderr.
    std::FILE *text = o.json && o.jsonPath.empty() ? stderr : stdout;
    std::size_t total_errors = 0;
    for (const std::string &target : targets) {
        isa::Program prog = loadTarget(target, o.build);
        // A program the verifier rejects is refused with its findings,
        // as dmp run refuses it; the comparison pass would execute it.
        if (const analysis::Report bad = verifyUnmarked(prog, mem);
            bad.errors()) {
            std::fprintf(text, "== %s ==\n", target.c_str());
            std::fputs(bad.text().c_str(), text);
            total_errors += bad.errors();
            continue;
        }
        analysis::MarkGenReport report =
            analysis::synthesizeMarks(prog, mg);
        total_errors += report.lintErrors;

        analysis::MarkAgreement agreement;
        if (compare) {
            isa::Program profiled = loadTarget(target, o.build);
            profile::profileAndMark(profiled, mem, mg.marker);
            agreement = analysis::compareMarkings(prog, profiled);
        }
        const analysis::MarkAgreement *agree =
            compare ? &agreement : nullptr;

        std::fputs(
            analysis::markGenText(target, report, agree, !o.quiet).c_str(),
            text);
        if (o.json)
            analysis::markGenTargetJson(doc.newline(), target, report,
                                        agree);
    }

    if (o.json)
        writeJson(o.jsonPath,
                  doc.newline().endArray().endObject().take() + "\n");

    if (targets.size() > 1)
        std::fprintf(text, "total: %zu lint error(s) across %zu target(s)\n",
                     total_errors, targets.size());
    return total_errors ? 1 : 0;
}

// ------------------------------------------------------------- report

/** Split "A,B" exactly in two (fatal otherwise). */
void
splitPair(const std::string &v, const char *flag, std::string &a,
          std::string &b)
{
    std::size_t comma = v.find(',');
    if (comma == std::string::npos || comma == 0 || comma + 1 == v.size())
        dmp_fatal(flag, ": expected two comma-separated labels, got: ",
                  v);
    a = v.substr(0, comma);
    b = v.substr(comma + 1);
}

struct Section
{
    enum Kind {
        Summary, Topdown, Diff, Branches, Figure, Markings, Proofs
    } kind;
    std::string a, b;     // Diff labels; figure name; report paths
    std::size_t topN = 0; // Branches
};

/** The figures called `name` ("all" = every one); fatal on none. */
std::vector<const sim::Figure *>
figuresNamed(const std::string &name, const char *what)
{
    std::vector<const sim::Figure *> figs;
    for (const sim::Figure &f : sim::figures())
        if (name == "all" || name == f.name)
            figs.push_back(&f);
    if (figs.empty()) {
        std::fprintf(stderr, "%s: unknown figure: %s\nfigures: all", what,
                     name.c_str());
        for (const sim::Figure &f : sim::figures())
            std::fprintf(stderr, " %s", f.name);
        std::fputc('\n', stderr);
        std::exit(2);
    }
    return figs;
}

int
reportCommand(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::vector<Section> sections;
    sim::ReportFormat format = sim::ReportFormat::Text;

    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *arg = argv[i];
        if (option(arg, "--summary")) {
            sections.push_back({Section::Summary, "", "", 0});
        } else if (option(arg, "--topdown")) {
            sections.push_back({Section::Topdown, "", "", 0});
        } else if (option(arg, "--diff", &v)) {
            Section s{Section::Diff, "", "", 0};
            splitPair(v, "--diff", s.a, s.b);
            sections.push_back(std::move(s));
        } else if (option(arg, "--branches")) {
            sections.push_back({Section::Branches, "", "", 20});
        } else if (option(arg, "--branches", &v)) {
            sections.push_back(
                {Section::Branches, "", "", number("--branches", v)});
        } else if (option(arg, "--figure", &v)) {
            figuresNamed(v, "dmp report: --figure");
            sections.push_back({Section::Figure, v, "", 0});
        } else if (option(arg, "--markings", &v)) {
            sections.push_back({Section::Markings, v, "", 0});
        } else if (option(arg, "--proofs", &v)) {
            sections.push_back({Section::Proofs, v, "", 0});
        } else if (option(arg, "--format", &v)) {
            if (!sim::parseReportFormat(v, format))
                dmp_fatal("--format: expected text|json|md, got: ", v);
        } else if (arg[0] == '-') {
            usage("report");
        } else {
            inputs.push_back(arg);
        }
    }
    if (sections.empty())
        sections.push_back({Section::Summary, "", "", 0});
    // --markings/--proofs read their own report files; JSONL inputs
    // are required only when some section aggregates stats records.
    bool needRecords = false;
    for (const Section &s : sections)
        if (s.kind != Section::Markings && s.kind != Section::Proofs)
            needRecords = true;
    if (inputs.empty() && needRecords)
        usage("report");

    std::vector<sim::StatsRecord> records;
    for (const std::string &path : inputs) {
        std::string err;
        if (!sim::loadStatsJsonl(path, records, err))
            dmp_fatal("dmp report: ", err);
    }
    if (records.empty() && needRecords)
        dmp_fatal("dmp report: no records in ",
                  inputs.size() == 1 ? inputs[0] : "the input files");

    std::vector<sim::ReportTable> tables;
    for (const Section &s : sections) {
        switch (s.kind) {
          case Section::Summary:
            tables.push_back(sim::summaryTable(records));
            break;
          case Section::Topdown:
            tables.push_back(sim::topdownTable(records));
            break;
          case Section::Diff:
            tables.push_back(sim::diffTable(records, s.a, s.b));
            break;
          case Section::Branches:
            tables.push_back(sim::branchTable(records, s.topN));
            break;
          case Section::Figure: {
            std::string err;
            if (!sim::figureTables(figuresNamed(s.a, "dmp report: --figure"),
                                   records, tables, err))
                dmp_fatal("dmp report: --figure: ", err);
            continue;
          }
          case Section::Markings: {
            sim::ReportTable t;
            std::string err;
            if (!sim::loadMarkingsTable(s.a, t, err))
                dmp_fatal("dmp report: --markings: ", err);
            tables.push_back(std::move(t));
            break;
          }
          case Section::Proofs: {
            sim::ReportTable t;
            std::string err;
            if (!sim::loadProofsTable(s.a, t, err))
                dmp_fatal("dmp report: --proofs: ", err);
            tables.push_back(std::move(t));
            break;
          }
        }
        if (tables.back().rows.empty() &&
            format == sim::ReportFormat::Text) {
            std::fprintf(stderr,
                         "dmp report: note: \"%s\" matched no records\n",
                         tables.back().title.c_str());
        }
    }
    std::fputs(sim::renderTables(tables, format).c_str(), stdout);
    return 0;
}

// -------------------------------------------------------------- paper

int
paperCommand(int argc, char **argv)
{
    sim::PaperOptions opts;
    std::string name;
    std::string workloadList;
    bool workloadsGiven = false;
    unsigned jobs = 0; // 0: BatchRunner default
    std::string statsJson;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (option(a, "--iters", &v))
            opts.iters = number("--iters", v);
        else if (option(a, "--workloads", &v)) {
            workloadList = v;
            workloadsGiven = true;
        } else if (option(a, "--jobs", &v))
            jobs = unsigned(number("--jobs", v, kMaxJobs));
        else if (option(a, "--accounting"))
            opts.accounting = true;
        else if (option(a, "--stats-json", &v))
            statsJson = v;
        else if (a[0] == '-' || !name.empty())
            usage("paper");
        else
            name = a;
    }
    if (name.empty())
        usage("paper");

    const std::vector<const sim::Figure *> figs =
        figuresNamed(name, "dmp paper");

    // Every name is checked before any job is submitted, so a bad list
    // fails here rather than inside the worker pool.
    if (!workloadsGiven) {
        for (const auto &info : workloads::workloadList())
            opts.workloads.push_back(info.name);
    }
    for (const std::string &wl : splitCommas(workloadList)) {
        if (!isWorkload(wl))
            dmp_fatal("--workloads: unknown workload: ", wl);
        for (const std::string &seen : opts.workloads)
            if (seen == wl)
                dmp_fatal("--workloads: repeated workload: ", wl);
        opts.workloads.push_back(wl);
    }
    if (opts.workloads.empty())
        dmp_fatal("--workloads: no workloads given");

    std::ofstream out;
    if (!statsJson.empty()) {
        out.open(statsJson, std::ios::app);
        if (!out)
            dmp_fatal("--stats-json: cannot open ", statsJson);
    }
    sim::BatchRunner runner(jobs);
    const std::vector<std::string> lines = sim::runPaper(figs, opts, runner);
    std::vector<sim::StatsRecord> records(lines.size());
    std::string err;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (out.is_open())
            out << lines[i] << "\n";
        if (!sim::parseStatsRecord(lines[i], records[i], err))
            dmp_fatal("dmp paper: ", err);
    }
    std::vector<sim::ReportTable> tables;
    if (!sim::figureTables(figs, records, tables, err))
        dmp_fatal("dmp paper: ", err);
    std::fputs(sim::renderTables(tables, sim::ReportFormat::Text).c_str(),
               stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string sub = argc > 1 ? argv[1] : "";
    // Each subcommand sees argv[0] as its own name. Stray exceptions
    // (LintError from the pre-flight lint, assembler or filesystem
    // errors) become a clean diagnostic instead of std::terminate.
    try {
        if (sub == "run")
            return runCommand(argc - 1, argv + 1);
        if (sub == "lint")
            return lintCommand(argc - 1, argv + 1);
        if (sub == "mark")
            return markCommand(argc - 1, argv + 1);
        if (sub == "report")
            return reportCommand(argc - 1, argv + 1);
        if (sub == "paper")
            return paperCommand(argc - 1, argv + 1);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dmp %s: %s\n", sub.c_str(), e.what());
        return 1;
    }
    usage(sub);
}
