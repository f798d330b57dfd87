/**
 * @file
 * Host-performance harness: simulated kilo-instructions per host second.
 *
 * Unlike `dmp paper`, this binary measures the *simulator*, not the
 * simulated machine. It runs the (workload x config) grid twice:
 *
 *   1. single-job: plain serial sim::runSim() calls. Per-run KIPS comes
 *      from SimResult::hostSeconds (wall-clock of the timing run only,
 *      excluding profiling/marking), aggregated per workload class
 *      (int / fp) and in total. This is the number the CI perf-smoke
 *      job regresses on.
 *   2. batched: the same grid through a sim::BatchRunner at the default
 *      job count, timed end-to-end, to track the parallel engine.
 *
 * The single-job phase runs every (workload x config) cell
 * DMP_BENCH_REPEATS times (default 3, at most 100) and keeps the best
 * repeat: the simulator is deterministic, so the spread between
 * repeats is pure host noise (scheduling, frequency scaling, cache
 * pollution from the previous cell) and the minimum wall-clock is the
 * least-noisy estimate. All repeat timings are preserved in the JSON so the noise
 * floor stays visible.
 *
 * The machine-readable result is written to BENCH_core.json (override
 * with DMP_BENCH_OUT). DMP_BENCH_ITERS sets the workload loop
 * iterations (default 2000), DMP_BENCH_WORKLOADS a comma-separated
 * subset of the workloads, and DMP_BENCH_JOBS the worker count of the
 * batched phase (default: all cores; at most 256). A number variable
 * that does not parse whole fails the run, naming it, before any
 * simulation.
 *
 * KIPS is host-dependent: only compare files produced on the same
 * machine and build preset (see EXPERIMENTS.md). The output records
 * the compiler, flags, and build type it was produced with so a
 * cross-preset comparison is detectable after the fact.
 */


#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace dmp;

struct RunRecord
{
    std::string workload;
    std::string wlClass; ///< "int" or "fp"
    std::string config;
    std::uint64_t retired = 0;
    std::uint64_t cyclesSkipped = 0; ///< deterministic, same every repeat
    double hostSeconds = 0; ///< best repeat's wall-clock (sim-reported)
    double kips = 0;        ///< best repeat
    std::vector<double> allSeconds; ///< every repeat's wall-clock

};

/**
 * The number in environment variable `name`, or `dflt` when it is
 * unset. A value that is not a whole number in [lo, hi] (decimal, 0x
 * hex or 0 octal) exits 1 naming the variable, before anything runs.
 */
std::uint64_t
envNumber(const char *name, std::uint64_t dflt, std::uint64_t lo,
          std::uint64_t hi)
{
    const char *env = std::getenv(name);
    if (!env)
        return dflt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(env, &end, 0);
    // strtoull alone would skip blanks, accept a sign and stop at junk.
    if (!std::isdigit(static_cast<unsigned char>(env[0])) || *end != '\0' ||
        errno == ERANGE || v < lo || v > hi) {
        std::fprintf(stderr,
                     "perf_kips: %s: not a whole number in [%llu, %llu]: "
                     "'%s'\n",
                     name, (unsigned long long)lo, (unsigned long long)hi,
                     env);
        std::exit(1);
    }
    return v;
}

/** Workloads to run (all 15 unless DMP_BENCH_WORKLOADS narrows it). */
std::vector<std::string>
benchWorkloads()
{
    std::vector<std::string> out;
    if (const char *env = std::getenv("DMP_BENCH_WORKLOADS")) {
        std::string s(env);
        std::size_t pos = 0;
        while (pos < s.size()) {
            std::size_t comma = s.find(',', pos);
            if (comma == std::string::npos)
                comma = s.size();
            if (comma > pos)
                out.push_back(s.substr(pos, comma - pos));
            pos = comma + 1;
        }
    }
    if (out.empty())
        for (const auto &info : workloads::workloadList())
            out.push_back(info.name);
    return out;
}

/** One grid cell: `workload` on the machine `core`. */
sim::SimConfig
makeConfig(const std::string &workload, const core::CoreParams &core,
           std::uint64_t iters)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.core = core;
    cfg.train.iterations = iters;
    cfg.ref.iterations = iters;
    return cfg;
}

/** Aggregate KIPS over a subset of runs: sum(insts) / sum(seconds). */
double
aggregateKips(const std::vector<RunRecord> &runs, const std::string &cls)
{
    std::uint64_t insts = 0;
    double secs = 0;
    for (const auto &r : runs) {
        if (!cls.empty() && r.wlClass != cls)
            continue;
        insts += r.retired;
        secs += r.hostSeconds;
    }
    return secs > 0 ? double(insts) / secs / 1000.0 : 0;
}

std::string
workloadClass(const std::string &name)
{
    for (const auto &info : workloads::workloadList())
        if (info.name == name)
            return info.floatingPoint ? "fp" : "int";
    return "int";
}

double
nowSeconds()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double>(clk::now().time_since_epoch())
        .count();
}

/*
 * Build provenance. The CMake bench list injects these so a KIPS file
 * carries the toolchain it was produced with; unknown-at-build-time
 * stays an explicit "unknown" rather than an absent key.
 */
#ifndef DMP_BENCH_COMPILER
#define DMP_BENCH_COMPILER "unknown"
#endif
#ifndef DMP_BENCH_CXX_FLAGS
#define DMP_BENCH_CXX_FLAGS "unknown"
#endif
#ifndef DMP_BENCH_BUILD_TYPE
#define DMP_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DMP_BENCH_GIT_SHA
#define DMP_BENCH_GIT_SHA "unknown"
#endif
#ifndef DMP_BENCH_PRESET
#define DMP_BENCH_PRESET "unknown"
#endif

void
writeJson(const std::string &path, const std::vector<RunRecord> &runs,
          std::uint64_t iters, unsigned repeats, double singleWall,
          double batchedWall, unsigned batchedJobs,
          std::uint64_t totalInsts)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "perf_kips: cannot write %s\n",
                     path.c_str());
        return;
    }
    out << "{\n";
    out << "  \"bench\": \"perf_kips\",\n";
    out << "  \"iterations\": " << iters << ",\n";
    out << "  \"repeats\": " << repeats << ",\n";
    out << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n";
    out << "  \"git_sha\": \"" << DMP_BENCH_GIT_SHA << "\",\n";
    out << "  \"compiler\": \"" << DMP_BENCH_COMPILER << "\",\n";
    out << "  \"cxx_flags\": \"" << DMP_BENCH_CXX_FLAGS << "\",\n";
    out << "  \"build_type\": \"" << DMP_BENCH_BUILD_TYPE << "\",\n";
    out << "  \"preset\": \"" << DMP_BENCH_PRESET << "\",\n";
    out << "  \"single_job\": {\n";

    out << "    \"wall_seconds\": " << singleWall << ",\n";
    out << "    \"kips_total\": " << aggregateKips(runs, "") << ",\n";
    out << "    \"kips_int\": " << aggregateKips(runs, "int") << ",\n";
    out << "    \"kips_fp\": " << aggregateKips(runs, "fp") << ",\n";
    out << "    \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i];
        out << "      {\"workload\": \"" << r.workload
            << "\", \"class\": \"" << r.wlClass << "\", \"config\": \""
            << r.config << "\", \"retired_insts\": " << r.retired
            << ", \"cycles_skipped\": " << r.cyclesSkipped
            << ", \"host_seconds\": " << r.hostSeconds

            << ", \"host_seconds_samples\": [";
        for (std::size_t s = 0; s < r.allSeconds.size(); ++s)
            out << (s ? ", " : "") << r.allSeconds[s];
        out << "], \"kips\": " << r.kips << "}"
            << (i + 1 < runs.size() ? "," : "") << "\n";

    }
    out << "    ]\n";
    out << "  },\n";
    out << "  \"batched\": {\n";
    out << "    \"jobs\": " << batchedJobs << ",\n";
    out << "    \"wall_seconds\": " << batchedWall << ",\n";
    out << "    \"kips\": "
        << (batchedWall > 0
                ? double(totalInsts) / batchedWall / 1000.0
                : 0)
        << "\n";
    out << "  }\n";
    out << "}\n";
}

} // namespace

int
main()
{
    const std::vector<std::pair<std::string, core::CoreParams>> configs = {
        {"base", sim::machine("base")},
        {"dmp_enhanced", sim::machine("dmp-enhanced")},
    };
    const std::uint64_t iters =
        envNumber("DMP_BENCH_ITERS", 2000, 1, ~std::uint64_t(0));
    // Repeats per cell in the single-job phase; the best one is kept.
    const unsigned repeats =
        unsigned(envNumber("DMP_BENCH_REPEATS", 3, 1, 100));
    // Worker threads of the batched phase (0: BatchRunner default).
    const unsigned jobs = unsigned(envNumber("DMP_BENCH_JOBS", 0, 0, 256));
    const std::vector<std::string> wls = benchWorkloads();

    // Phase 1: strictly serial, no worker pool — the single-job number.
    std::vector<RunRecord> runs;
    double t0 = nowSeconds();
    for (const std::string &wl : wls) {
        for (const auto &[label, core] : configs) {
            sim::SimConfig cfg = makeConfig(wl, core, iters);
            RunRecord rec;
            rec.workload = wl;
            rec.wlClass = workloadClass(wl);
            rec.config = label;
            for (unsigned rep = 0; rep < repeats; ++rep) {
                sim::SimResult r = sim::runSim(cfg);
                rec.allSeconds.push_back(r.hostSeconds);
                if (rep == 0 || r.hostSeconds < rec.hostSeconds) {
                    rec.retired = r.retiredInsts;
                    rec.cyclesSkipped = r.get("cycles_skipped");
                    rec.hostSeconds = r.hostSeconds;
                }
            }

            rec.kips = rec.hostSeconds > 0
                           ? double(rec.retired) / rec.hostSeconds
                                 / 1000.0
                           : 0;
            runs.push_back(rec);

            std::printf("%-12s %-14s %9llu insts  %7.3fs  %8.1f KIPS\n",
                        wl.c_str(), label.c_str(),
                        (unsigned long long)rec.retired,
                        rec.hostSeconds, rec.kips);
        }
    }
    double singleWall = nowSeconds() - t0;

    // Phase 2: the same grid through the parallel engine, end to end.
    std::uint64_t totalInsts = 0;
    std::vector<sim::SimConfig> grid;
    for (const std::string &wl : wls)
        for (const auto &[label, core] : configs)
            grid.push_back(makeConfig(wl, core, iters));
    sim::BatchRunner pool(jobs);
    double t1 = nowSeconds();
    for (const sim::SimResult &r : pool.run(grid))
        totalInsts += r.retiredInsts;
    double batchedWall = nowSeconds() - t1;

    std::printf("\nsingle-job (best of %u): total %.1f KIPS "
                "(int %.1f, fp %.1f), wall %.2fs\n",
                repeats, aggregateKips(runs, ""),
                aggregateKips(runs, "int"), aggregateKips(runs, "fp"),
                singleWall);

    std::printf("batched (%u jobs): %.1f KIPS, wall %.2fs\n",
                pool.jobs(),
                batchedWall > 0
                    ? double(totalInsts) / batchedWall / 1000.0
                    : 0,
                batchedWall);

    const char *outPath = std::getenv("DMP_BENCH_OUT");
    std::string path = outPath ? outPath : "BENCH_core.json";
    writeJson(path, runs, iters, repeats, singleWall, batchedWall,
              pool.jobs(), totalInsts);

    std::printf("wrote %s\n", path.c_str());
    return 0;
}
