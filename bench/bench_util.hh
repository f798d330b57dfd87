/**
 * @file
 * Shared harness for the per-figure/table benchmark binaries.
 *
 * Every binary in bench/ regenerates one table or figure of the paper:
 * it runs the required simulator configurations through google-benchmark
 * (one benchmark case per workload x configuration, reporting IPC and
 * the figure's headline metric as user counters) and then prints the
 * paper-style table to stdout.
 *
 * The whole (workload x configuration) grid of a binary is pre-submitted
 * to a shared sim::BatchRunner worker pool when the benchmarks are
 * registered, so independent simulations run in parallel while the
 * google-benchmark cases (and the table printers) only await and read
 * memoized results. Results are bit-identical to a serial run at any
 * job count.
 *
 * Environment knobs:
 *   DMP_BENCH_ITERS     workload loop iterations (default 2000)
 *   DMP_BENCH_WORKLOADS comma-separated subset of benchmarks to run
 *   DMP_BENCH_JOBS      simulation worker threads (default: all cores)
 *   DMP_STATS_JSON      append one schema-1 JSONL record per distinct
 *                        run to this path (dmp report consumes these)
 *   DMP_BENCH_ACCT      any non-empty value attaches the cycle
 *                        accounting sink to every run, so exported
 *                        records carry the accounting block (changes
 *                        config fingerprints)
 */

#ifndef DMP_BENCH_BENCH_UTIL_HH
#define DMP_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/batch.hh"
#include "sim/simulator.hh"

namespace dmp::bench
{

/** Workload loop iterations for every bench run. */
inline std::uint64_t
benchIterations()
{
    if (const char *env = std::getenv("DMP_BENCH_ITERS"))
        return std::strtoull(env, nullptr, 0);
    return 2000;
}

/** Benchmarks to run (all 15 unless DMP_BENCH_WORKLOADS narrows it). */
inline std::vector<std::string>
benchWorkloads()
{
    std::vector<std::string> all;
    for (const auto &info : workloads::workloadList())
        all.push_back(info.name);
    const char *env = std::getenv("DMP_BENCH_WORKLOADS");
    if (!env)
        return all;
    std::vector<std::string> out;
    std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        std::string name = s.substr(pos, comma - pos);
        if (!name.empty())
            out.push_back(name);
        pos = comma + 1;
    }
    return out.empty() ? all : out;
}

/**
 * Mutator applied to the bench-default SimConfig. Most configurations
 * only touch `cfg.core` (the Table 2 machine); the marking-source axis
 * (cfgDmpStatic) also sets `cfg.markMode`.
 */
using ConfigFn = std::function<void(sim::SimConfig &)>;

/**
 * Memoizing runner facade over the shared sim::BatchRunner pool: each
 * distinct configuration simulates once per process, no matter how many
 * benchmark iterations (or printer passes) ask for it. Keyed by the
 * canonical config fingerprint — not by the display label — so two
 * configurations that differ in *any* knob (marker heuristics,
 * instruction/cycle budgets, ...) never alias.
 */
class RunCache
{
  public:
    static RunCache &
    instance()
    {
        static RunCache rc;
        return rc;
    }

    /** The bench-default SimConfig with `fn` applied. */
    static sim::SimConfig
    makeConfig(const std::string &workload, const ConfigFn &fn)
    {
        sim::SimConfig cfg;
        cfg.workload = workload;
        cfg.train.iterations = benchIterations();
        cfg.ref.iterations = benchIterations();
        if (const char *acct = std::getenv("DMP_BENCH_ACCT");
            acct && *acct)
            cfg.accounting = true;
        if (fn)
            fn(cfg);
        return cfg;
    }

    /** Enqueue without waiting (used to pre-submit the whole grid). */
    void
    prefetch(const std::string &workload, const ConfigFn &fn)
    {
        pool.submit(makeConfig(workload, fn));
    }

    /** Blocking fetch; the label is display-only and not part of the key. */
    const sim::SimResult &
    get(const std::string &workload, const std::string &label,
        const ConfigFn &fn)
    {
        sim::SimConfig cfg = makeConfig(workload, fn);
        const sim::SimResult &r = pool.get(cfg);
        maybeExport(cfg, r, workload, label);
        return r;
    }

    sim::BatchRunner &runner() { return pool; }

  private:
    /**
     * DMP_STATS_JSON=PATH appends one JSONL record per distinct
     * configuration the figure actually read (deduplicated by config
     * fingerprint, so repeated printer passes export each run once).
     */
    void
    maybeExport(const sim::SimConfig &cfg, const sim::SimResult &r,
                const std::string &workload, const std::string &label)
    {
        const char *path = std::getenv("DMP_STATS_JSON");
        if (!path)
            return;
        std::lock_guard lk(exportMtx);
        std::string fp = sim::configFingerprint(cfg);
        if (!exported.insert(fp).second)
            return;
        // Fingerprints use only JSON-string-safe characters, so they
        // can be spliced into the record without escaping.
        std::string extra = "\"fingerprint\":\"" + fp +
                            "\",\"bench_iters\":" +
                            std::to_string(benchIterations());
        std::ofstream out(path, std::ios::app);
        if (out)
            out << sim::simResultJson(r, label, workload, extra) << "\n";
    }

    sim::BatchRunner pool; ///< DMP_BENCH_JOBS workers (default: cores)
    std::mutex exportMtx;
    std::unordered_set<std::string> exported;
};

/** Canonical configurations used across figures. */
inline void
cfgBaseline(sim::SimConfig &)
{
}

inline void
cfgDhp(sim::SimConfig &c)
{
    c.core.predication = core::PredicationScope::SimpleHammock;
}

inline void
cfgDhpPerfConf(sim::SimConfig &c)
{
    cfgDhp(c);
    c.core.perfectConfidence = true;
}

inline void
cfgDmpBasic(sim::SimConfig &c)
{
    c.core.predication = core::PredicationScope::Diverge;
}

inline void
cfgDmpPerfConf(sim::SimConfig &c)
{
    cfgDmpBasic(c);
    c.core.perfectConfidence = true;
}

inline void
cfgPerfectCbp(sim::SimConfig &c)
{
    c.core.perfectCondPredictor = true;
}

inline void
cfgDmpMcfm(sim::SimConfig &c)
{
    cfgDmpBasic(c);
    c.core.enhMultiCfm = true;
}

inline void
cfgDmpMcfmEexit(sim::SimConfig &c)
{
    cfgDmpMcfm(c);
    c.core.enhEarlyExit = true;
}

inline void
cfgDmpEnhanced(sim::SimConfig &c)
{
    cfgDmpMcfmEexit(c);
    c.core.enhMultiDiverge = true;
}

/** Enhanced DMP fed by static marking synthesis instead of the profiler. */
inline void
cfgDmpStatic(sim::SimConfig &c)
{
    cfgDmpEnhanced(c);
    c.markMode = sim::MarkMode::Static;
}

inline void
cfgDualPath(sim::SimConfig &c)
{
    c.core.mode = core::CoreMode::DualPath;
}

/**
 * Register one google-benchmark case per (workload, config) that runs
 * the simulation (memoized) and reports IPC. The full grid is
 * pre-submitted to the worker pool here, so the registered cases — and
 * any later RunCache::get from the table printers — only await results
 * that are already being computed in parallel.
 */
inline void
registerSimBenchmarks(
    const std::vector<std::pair<std::string, ConfigFn>> &configs)
{
    for (const std::string &wl : benchWorkloads())
        for (const auto &cf : configs)
            RunCache::instance().prefetch(wl, cf.second);
    for (const std::string &wl : benchWorkloads()) {
        for (const auto &[label, fn] : configs) {
            std::string name = wl + "/" + label;
            benchmark::RegisterBenchmark(
                name.c_str(),
                [wl, label = label, fn = fn](benchmark::State &state) {
                    for (auto _ : state) {
                        const sim::SimResult &r =
                            RunCache::instance().get(wl, label, fn);
                        benchmark::DoNotOptimize(r.cycles);
                        state.counters["IPC"] = r.ipc;
                        state.counters["cycles"] =
                            double(r.cycles);
                        state.counters["flushes"] = double(
                            r.require("pipeline_flushes"));
                    }
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
}

/** Geometric-free arithmetic mean helper used by the figure printers. */
inline double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / double(v.size());
}

} // namespace dmp::bench

#endif // DMP_BENCH_BENCH_UTIL_HH
