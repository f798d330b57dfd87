#include "sim/batch.hh"

#include <sstream>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace dmp::sim
{

namespace
{

/** Writes one `name=value` term per visited field (see batch.hh). */
struct FieldWriter
{
    std::ostream &os;
    const char *sep = "";

    template <class T>
    void
    operator()(std::string_view name, const T &v)
    {
        os << std::exchange(sep, ",") << name << '=';
        value(v);
    }

    template <class T>
    void
    value(const T &v)
    {
        if constexpr (requires { v.forEachField(*this); }) {
            os << '{';
            v.forEachField(FieldWriter{os});
            os << '}';
        } else if constexpr (std::is_pointer_v<T>) {
            if (v)
                value(*v);
            else
                os << "null";
        } else if constexpr (std::is_enum_v<T>) {
            os << +std::underlying_type_t<T>(v);
        } else if constexpr (std::is_floating_point_v<T>) {
            os << std::hexfloat << v << std::defaultfloat;
        } else {
            os << v;
        }
    }
};

/** Converts to any field type, to count an aggregate's fields. */
struct AnyField
{
    template <class T>
    operator T() const;
};

/** Number of fields of aggregate T: the most initializers T{...} takes. */
template <class T, class... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

/** Whether T::forEachField visits as many fields as T has. */
template <class T>
constexpr bool
visitsEveryField()
{
    std::size_t n = 0;
    T{}.forEachField([&n](std::string_view, const auto &) { ++n; });
    return n == fieldCount<T>();
}

// A field its visitor skips would be left out of the fingerprint, and
// two configurations differing only there would share a cache entry.
static_assert(visitsEveryField<core::CoreParams>());
static_assert(visitsEveryField<profile::MarkerConfig>());
static_assert(visitsEveryField<workloads::WorkloadParams>());
static_assert(visitsEveryField<check::FaultPlan>());
static_assert(visitsEveryField<SimConfig>());

} // namespace

std::string
configFingerprint(const SimConfig &cfg)
{
    std::ostringstream os;
    cfg.forEachField(FieldWriter{os});
    return os.str();
}

std::string
profileFingerprint(const SimConfig &cfg)
{
    std::ostringstream os;
    FieldWriter f{os};
    f("workload", cfg.workload);
    f("train", cfg.train);
    f("marker", cfg.marker);
    f("memoryBytes", cfg.core.memoryBytes);
    f("markMode", cfg.markMode);
    return os.str();
}

unsigned
BatchRunner::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

BatchRunner::BatchRunner(unsigned jobs_)
{
    unsigned n = jobs_ ? jobs_ : defaultJobs();
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back(
            [this](std::stop_token st) { workerLoop(st); });
}

BatchRunner::~BatchRunner()
{
    for (auto &w : workers)
        w.request_stop();
    cv.notify_all();
    // jthread joins on destruction; workers drain the queue first so
    // every outstanding future is satisfied.
}

void
BatchRunner::workerLoop(std::stop_token st)
{
    for (;;) {
        std::unique_ptr<Task> task;
        {
            std::unique_lock lk(mtx);
            if (!cv.wait(lk, st, [this] { return !queue.empty(); }))
                return; // stop requested, queue drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        try {
            task->promise.set_value(execute(*task));
        } catch (...) {
            task->promise.set_exception(std::current_exception());
        }
    }
}

std::shared_ptr<const BatchRunner::Marked>
BatchRunner::once(MarkedCache &cache, const std::string &key,
                  std::atomic<std::uint64_t> *hits,
                  std::atomic<std::uint64_t> &misses,
                  const std::function<std::shared_ptr<const Marked>()> &make)
{
    std::promise<std::shared_ptr<const Marked>> prom;
    std::shared_future<std::shared_ptr<const Marked>> fut;
    bool own = false;
    {
        std::lock_guard lk(mtx);
        auto [it, inserted] = cache.try_emplace(key);
        if (inserted) {
            own = true;
            it->second = prom.get_future().share();
            misses.fetch_add(1, std::memory_order_relaxed);
        } else if (hits) {
            hits->fetch_add(1, std::memory_order_relaxed);
        }
        fut = it->second;
    }
    if (own) {
        try {
            prom.set_value(make());
        } catch (...) {
            prom.set_exception(std::current_exception());
        }
    }
    return fut.get();
}

std::shared_ptr<const BatchRunner::Marked>
BatchRunner::preparedProgram(const SimConfig &cfg)
{
    const std::string pkey = profileFingerprint(cfg);

    // Level 1: profile + mark the train binary, once per pkey. Static
    // synthesis needs no training run and must analyze the binary that
    // executes (the train build's seeded immediates differ, so
    // value-analysis proofs made there need not hold on the ref
    // build), so it skips this level and marks in level 2.
    std::shared_ptr<const Marked> train;
    if (cfg.markMode != MarkMode::Static) {
        train = once(trainCache, pkey, &nProfileHits, nProfileRuns, [&] {
            auto e = std::make_shared<Marked>();
            e->program = workloads::buildWorkload(cfg.workload, cfg.train);
            e->report = markProgram(e->program, cfg);
            return e;
        });
    }

    // Level 2: build the ref binary and transfer the marks, once per
    // (pkey, ref input). All core configurations of a figure share the
    // resulting program read-only.
    std::ostringstream rkey;
    FieldWriter{rkey, ","}("ref", cfg.ref);
    return once(refCache, pkey + rkey.str(), nullptr, nMarkedBuilds, [&] {
        auto e = std::make_shared<Marked>();
        e->program = workloads::buildWorkload(cfg.workload, cfg.ref);
        if (train) {
            transferAndPreflight(train->program, e->program, cfg);
            e->report = train->report;
        } else {
            e->report = markProgram(e->program, cfg);
        }
        return e;
    });
}

std::shared_ptr<const SimResult>
BatchRunner::execute(const Task &task)
{
    {
        std::lock_guard lk(mtx);
        execOrder.push_back(task.key);
    }
    nSimRuns.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<const Marked> prep = preparedProgram(task.cfg);
    SimResult r = runSimOnProgram(prep->program, prep->report, task.cfg);
    nSimNanos.fetch_add(std::uint64_t(r.hostSeconds * 1e9),
                        std::memory_order_relaxed);
    return std::make_shared<const SimResult>(std::move(r));
}

std::shared_future<std::shared_ptr<const SimResult>>
BatchRunner::submit(const SimConfig &cfg)
{
    std::string key = configFingerprint(cfg);
    std::shared_future<std::shared_ptr<const SimResult>> fut;
    {
        std::lock_guard lk(mtx);
        auto it = memo.find(key);
        if (it != memo.end()) {
            nSimHits.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
        auto task = std::make_unique<Task>();
        task->cfg = cfg;
        task->key = std::move(key);
        fut = task->promise.get_future().share();
        memo.emplace(task->key, fut);
        queue.push_back(std::move(task));
    }
    cv.notify_one();
    return fut;
}

const SimResult &
BatchRunner::get(const SimConfig &cfg)
{
    return *submit(cfg).get();
}

std::vector<SimResult>
BatchRunner::run(const std::vector<SimConfig> &configs)
{
    std::vector<std::shared_future<std::shared_ptr<const SimResult>>> futs;
    futs.reserve(configs.size());
    for (const SimConfig &cfg : configs)
        futs.push_back(submit(cfg));
    std::vector<SimResult> out;
    out.reserve(configs.size());
    for (auto &f : futs)
        out.push_back(*f.get());
    return out;
}

BatchStats
BatchRunner::stats() const
{
    BatchStats s;
    s.profileRuns = nProfileRuns.load(std::memory_order_relaxed);
    s.profileHits = nProfileHits.load(std::memory_order_relaxed);
    s.markedProgramBuilds = nMarkedBuilds.load(std::memory_order_relaxed);
    s.simRuns = nSimRuns.load(std::memory_order_relaxed);
    s.simHits = nSimHits.load(std::memory_order_relaxed);
    s.simSeconds = double(nSimNanos.load(std::memory_order_relaxed)) * 1e-9;
    return s;
}

std::vector<std::string>
BatchRunner::executionOrder() const
{
    std::lock_guard lk(mtx);
    return execOrder;
}

} // namespace dmp::sim
