/**
 * @file
 * Parallel batch-simulation engine.
 *
 * Every figure/table of the paper is a grid of independent cycle-level
 * simulations (workload x machine configuration). BatchRunner executes
 * such grids on a worker pool and layers two caches on top:
 *
 *  1. a result memo keyed by a *canonical fingerprint* of the complete
 *     SimConfig (workload, train/ref inputs, marker heuristics, every
 *     core knob, instruction/cycle budgets) — two submissions of the
 *     same experiment simulate once, and two experiments differing
 *     only in marker config or budgets never alias;
 *
 *  2. a profile/marking cache: the compiler pass (train-input profile
 *     run + diverge/CFM marking + mark transfer onto the ref binary)
 *     depends only on (workload, train input, marker config, memory
 *     size) — not on the core configuration — so it runs once per
 *     figure row and the marked isa::Program is shared read-only by
 *     all core configurations.
 *
 * Determinism: the simulator itself is single-threaded and seeded; the
 * pool only changes *where* each run executes, never what it computes.
 * Results are therefore bit-identical to a serial run and are returned
 * in submission order. With jobs=1 the pool degenerates to FIFO serial
 * execution.
 *
 * The worker count defaults to std::thread::hardware_concurrency and
 * can be set explicitly per BatchRunner. The hot simulation loop takes
 * no locks: synchronization happens only at task granularity.
 */

#ifndef DMP_SIM_BATCH_HH
#define DMP_SIM_BATCH_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hh"

namespace dmp::sim
{

/**
 * Canonical, collision-free fingerprint of a complete SimConfig: the
 * `name=value` terms of every field forEachField visits (a nested
 * struct as `name={...}`, doubles in hexfloat). The result-memo key
 * and each dmp paper record's configuration.
 */
std::string configFingerprint(const SimConfig &cfg);

/**
 * Fingerprint of the compiler/profiling pass inputs only: workload,
 * train input, marker config, memory size and mark mode. Core timing
 * knobs and the ref input are excluded — they cannot change the marking.
 */
std::string profileFingerprint(const SimConfig &cfg);

/** Occupancy / cache-effectiveness counters of one BatchRunner. */
struct BatchStats
{
    /** Compiler passes actually executed (profile + mark, train run). */
    std::uint64_t profileRuns = 0;
    /** Profile-cache hits (marking reused from a previous task). */
    std::uint64_t profileHits = 0;
    /** Marked ref-input programs built (one per distinct ref input). */
    std::uint64_t markedProgramBuilds = 0;
    /** Timing simulations actually executed. */
    std::uint64_t simRuns = 0;
    /** Result-memo hits (identical SimConfig submitted again). */
    std::uint64_t simHits = 0;
    /** Summed host wall-clock of the executed timing runs (seconds).
     *  With a worker pool this exceeds elapsed real time. */
    double simSeconds = 0;
};

/**
 * Worker-pool executor for grids of independent simulations.
 * Thread-safe: submit()/get()/run() may be called from any thread.
 */
class BatchRunner
{
  public:
    /** @param jobs worker threads; 0 = defaultJobs(). */
    explicit BatchRunner(unsigned jobs = 0);
    ~BatchRunner();

    BatchRunner(const BatchRunner &) = delete;
    BatchRunner &operator=(const BatchRunner &) = delete;

    /** hardware_concurrency, min 1. */
    static unsigned defaultJobs();

    /** Number of worker threads in this pool. */
    unsigned jobs() const { return unsigned(workers.size()); }

    /**
     * Enqueue one configuration (deduplicated against everything this
     * runner has already seen) and return a future for its result. The
     * pointee is immutable and lives at least as long as the runner.
     */
    std::shared_future<std::shared_ptr<const SimResult>>
    submit(const SimConfig &cfg);

    /** submit() + wait. The reference lives as long as the runner. */
    const SimResult &get(const SimConfig &cfg);

    /**
     * Run a whole grid; results come back in submission order and are
     * bit-identical to calling runSim(configs[i]) serially.
     */
    std::vector<SimResult> run(const std::vector<SimConfig> &configs);

    /** Snapshot of the cache/execution counters. */
    BatchStats stats() const;

    /**
     * Result fingerprints in the order the pool *executed* them
     * (cache hits do not appear). With jobs=1 this equals submission
     * order; used by tests and diagnostics.
     */
    std::vector<std::string> executionOrder() const;

  private:
    /**
     * A marked program and its report: the train binary (one per
     * profileFingerprint) or the ref binary that all core
     * configurations share read-only.
     */
    struct Marked
    {
        isa::Program program;
        profile::MarkingReport report;
    };
    using MarkedCache =
        std::unordered_map<std::string,
                           std::shared_future<std::shared_ptr<const Marked>>>;

    struct Task
    {
        SimConfig cfg;
        std::string key;
        std::promise<std::shared_ptr<const SimResult>> promise;
    };

    void workerLoop(std::stop_token st);
    std::shared_ptr<const SimResult> execute(const Task &task);
    std::shared_ptr<const Marked> preparedProgram(const SimConfig &cfg);
    /**
     * The entry of `cache` under `key`, made by `make` on the first
     * request (counted in `misses`; later requests count in `hits` when
     * given). Concurrent requesters of one key wait on the first one's
     * future instead of making it again, and an exception from `make`
     * reaches all of them.
     */
    std::shared_ptr<const Marked>
    once(MarkedCache &cache, const std::string &key,
         std::atomic<std::uint64_t> *hits, std::atomic<std::uint64_t> &misses,
         const std::function<std::shared_ptr<const Marked>()> &make);

    mutable std::mutex mtx;
    std::condition_variable_any cv;
    std::deque<std::unique_ptr<Task>> queue;
    std::unordered_map<std::string,
                       std::shared_future<std::shared_ptr<const SimResult>>>
        memo;
    MarkedCache trainCache;
    MarkedCache refCache;
    std::vector<std::string> execOrder;
    std::vector<std::jthread> workers;

    std::atomic<std::uint64_t> nProfileRuns{0};
    std::atomic<std::uint64_t> nProfileHits{0};
    std::atomic<std::uint64_t> nMarkedBuilds{0};
    std::atomic<std::uint64_t> nSimRuns{0};
    std::atomic<std::uint64_t> nSimHits{0};
    std::atomic<std::uint64_t> nSimNanos{0}; ///< summed run wall-clock
};

} // namespace dmp::sim

#endif // DMP_SIM_BATCH_HH
