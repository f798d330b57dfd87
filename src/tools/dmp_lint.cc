/**
 * @file
 * dmp-lint — static verifier + diverge-marking legality linter.
 *
 * Builds (or assembles) a guest program, runs the profiling/marking
 * pass exactly as dmp-run would, and then statically checks both the
 * program itself (branch targets, reachability, call discipline,
 * register init, memory sanity) and every diverge marking against
 * CFG / dominator-tree ground truth.
 *
 *   dmp-lint [options] <workload-name | file.s | all>
 *
 *   --iters=N       workload loop iterations for the train build
 *                   (default 2000)
 *   --seed=N        train-run data seed (default: dmp-run's train seed)
 *   --loop-ext      mark loop diverge branches (section 2.7.4)
 *   --postdom       enable the static post-dominator CFM fallback
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
 *   --json[=PATH]   machine-readable report (stdout or PATH); schema
 *                   in EXPERIMENTS.md
 *   --quiet         suppress per-finding text output (summary only)
 *
 * Exit status: 0 when no target has error findings, 1 when at least
 * one does, 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/params.hh"
#include "isa/assembler.hh"
#include "profile/profiler.hh"
#include "workloads/workloads.hh"

using namespace dmp;

namespace
{

struct Options
{
    std::vector<std::string> targets;
    std::uint64_t iters = 2000;
    std::uint64_t seed = 0x7e41a;
    bool loopExt = false;
    bool postDom = false;
    bool noMark = false;
    bool quiet = false;
    unsigned depth = 0;   // 0: CoreParams::predRegisters
    std::size_t mem = 0;  // 0: CoreParams::memoryBytes
    bool deep = false;
    unsigned deepIters = 2;
    bool json = false;
    std::string jsonPath; // empty with json=true: stdout
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: dmp-lint [options] <workload|file.s|all>\n"
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

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        const char *a = argv[i];
        if (flagValue(a, "--iters", v))
            o.iters = std::strtoull(v.c_str(), nullptr, 0);
        else if (flagValue(a, "--seed", v))
            o.seed = std::strtoull(v.c_str(), nullptr, 0);
        else if (std::strcmp(a, "--loop-ext") == 0)
            o.loopExt = true;
        else if (std::strcmp(a, "--postdom") == 0)
            o.postDom = true;
        else if (std::strcmp(a, "--no-mark") == 0)
            o.noMark = true;
        else if (std::strcmp(a, "--quiet") == 0)
            o.quiet = true;
        else if (flagValue(a, "--depth", v))
            o.depth = unsigned(std::strtoul(v.c_str(), nullptr, 0));
        else if (flagValue(a, "--mem", v))
            o.mem = std::strtoull(v.c_str(), nullptr, 0);
        else if (std::strcmp(a, "--deep") == 0)
            o.deep = true;
        else if (flagValue(a, "--deep", v)) {
            o.deep = true;
            o.deepIters = unsigned(std::strtoul(v.c_str(), nullptr, 0));
        }
        else if (std::strcmp(a, "--json") == 0)
            o.json = true;
        else if (flagValue(a, "--json", v)) {
            o.json = true;
            o.jsonPath = v;
        }
        else if (a[0] == '-')
            usage();
        else
            o.targets.push_back(a);
    }
    if (o.targets.empty())
        usage();
    return o;
}

bool
isWorkload(const std::string &name)
{
    for (const auto &info : workloads::workloadList())
        if (info.name == name)
            return true;
    return false;
}

/** Build + mark one target the way dmp-run's train pass would. */
isa::Program
loadTarget(const std::string &target, const Options &o,
           const profile::MarkerConfig &mc, std::size_t memoryBytes)
{
    isa::Program prog;
    if (isWorkload(target)) {
        workloads::WorkloadParams train;
        train.iterations = o.iters;
        train.seed = o.seed;
        prog = workloads::buildWorkload(target, train);
    } else {
        std::ifstream in(target);
        if (!in)
            dmp_fatal("cannot open ", target);
        std::ostringstream text;
        text << in.rdbuf();
        prog = isa::assemble(text.str());
    }
    if (!o.noMark)
        profile::profileAndMark(prog, memoryBytes, mc);
    return prog;
}

int
runMain(int argc, char **argv)
{
    Options o = parse(argc, argv);

    std::vector<std::string> targets;
    for (const std::string &t : o.targets) {
        if (t == "all") {
            for (const auto &info : workloads::workloadList())
                targets.push_back(info.name);
        } else {
            targets.push_back(t);
        }
    }

    const core::CoreParams defaults;
    analysis::AnalysisOptions ao;
    ao.marker.markLoopBranches = o.loopExt;
    ao.marker.usePostDomFallback = o.postDom;
    ao.maxPredicateDepth = o.depth ? o.depth : defaults.predRegisters;
    ao.memoryBytes = o.mem ? o.mem : defaults.memoryBytes;
    ao.absint = o.deep;
    ao.absintIterations = o.deepIters;

    std::ostringstream json;
    json << "{\"schema\":" << analysis::kReportSchemaVersion
         << ",\"targets\":[";

    std::size_t total_errors = 0, total_warnings = 0, total_infos = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const std::string &target = targets[i];
        isa::Program prog =
            loadTarget(target, o, ao.marker, ao.memoryBytes);
        analysis::AnalysisSummary summary;
        analysis::Report report =
            analysis::analyzeProgram(prog, ao, &summary);

        total_errors += report.errors();
        total_warnings += report.warnings();
        total_infos += report.infos();

        if (!o.quiet && !report.empty()) {
            std::printf("== %s ==\n", target.c_str());
            std::fputs(report.text().c_str(), stdout);
        }
        std::printf("%-12s %zu marks: %zu error(s), %zu warning(s), "
                    "%zu info(s)\n",
                    target.c_str(), prog.allMarks().size(),
                    report.errors(), report.warnings(), report.infos());
        if (o.deep && !o.quiet) {
            const analysis::AbsintStats &s = summary.absintStats;
            if (summary.absintRan)
                std::printf("             absint: %zu/%zu branches "
                            "proved one-sided, %zu trip-bounded, "
                            "%zu/%zu indirects resolved, %zu/%zu insts "
                            "unreachable%s\n",
                            s.provedTaken + s.provedNotTaken, s.branches,
                            s.tripBounded, s.indirectResolved,
                            s.indirectResolved + s.indirectUnresolved,
                            s.unreachable, s.insts,
                            summary.absintSmeared ? " (smeared)" : "");
            else
                std::printf("             absint: declined "
                            "(program too large or no fixpoint)\n");
        }

        if (o.json) {
            if (i)
                json << ",";
            json << "\n{\"target\":\"" << json::escape(target)
                 << "\",\"marks\":" << prog.allMarks().size()
                 << ",\"errors\":" << report.errors()
                 << ",\"warnings\":" << report.warnings()
                 << ",\"infos\":" << report.infos();
            if (o.deep) {
                const analysis::AbsintStats &s = summary.absintStats;
                json << ",\"absint\":{\"ran\":"
                     << (summary.absintRan ? "true" : "false")
                     << ",\"smeared\":"
                     << (summary.absintSmeared ? "true" : "false")
                     << ",\"insts\":" << s.insts
                     << ",\"unreachable\":" << s.unreachable
                     << ",\"branches\":" << s.branches
                     << ",\"proved_taken\":" << s.provedTaken
                     << ",\"proved_not_taken\":" << s.provedNotTaken
                     << ",\"trip_bounded\":" << s.tripBounded
                     << ",\"indirect_resolved\":" << s.indirectResolved
                     << ",\"indirect_unresolved\":"
                     << s.indirectUnresolved
                     << ",\"iterations\":" << s.iterations << "}";
                json << ",\"branch_proofs\":[";
                bool first = true;
                for (const auto &[pc, proof] : summary.branchProofs) {
                    using Status = analysis::BranchProof::Status;
                    if (proof.status == Status::None && proof.tripMax == 0)
                        continue;
                    if (!first)
                        json << ",";
                    first = false;
                    char pcbuf[24];
                    std::snprintf(pcbuf, sizeof(pcbuf), "0x%llx",
                                  static_cast<unsigned long long>(pc));
                    json << "{\"pc\":\"" << pcbuf << "\",\"status\":\""
                         << (proof.status == Status::Taken ? "taken"
                             : proof.status == Status::NotTaken
                                 ? "not-taken"
                                 : "none")
                         << "\",\"backward\":"
                         << (proof.backward ? "true" : "false")
                         << ",\"trip_max\":" << proof.tripMax << "}";
                }
                json << "]";
            }
            json << ",\"findings\":" << report.json() << "}";
        }
    }

    if (o.json) {
        // Aggregate summary so automation sees warning/info totals
        // (the exit status only reflects errors, which used to make
        // expected Warns — twolf/fma3d diverge-overlap — invisible).
        json << "\n],\"summary\":{\"targets\":" << targets.size()
             << ",\"errors\":" << total_errors
             << ",\"warnings\":" << total_warnings
             << ",\"infos\":" << total_infos << "}}\n";
        if (o.jsonPath.empty()) {
            std::fputs(json.str().c_str(), stdout);
        } else {
            std::ofstream out(o.jsonPath);
            if (!out)
                dmp_fatal("--json: cannot open ", o.jsonPath);
            out << json.str();
        }
    }

    if (targets.size() > 1)
        std::printf("total: %zu error(s), %zu warning(s), %zu info(s) "
                    "across %zu target(s)\n",
                    total_errors, total_warnings, total_infos,
                    targets.size());
    return total_errors ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Surface stray exceptions (assembler/filesystem errors) as a
    // clean diagnostic instead of std::terminate.
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dmp-lint: %s\n", e.what());
        return 1;
    }
}
