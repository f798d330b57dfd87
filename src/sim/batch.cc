#include "sim/batch.hh"

#include <sstream>

#include "common/logging.hh"

namespace dmp::sim
{

namespace
{

/** Exact serialization of a double (hexfloat: no rounding ambiguity). */
std::string
num(double v)
{
    std::ostringstream os;
    os << std::hexfloat << v;
    return os.str();
}

// A fixed parameter keeps its term, printing its constant (fq=0 is the
// derived frontendDepth * fetchWidth fetch queue), so the bytes match
// the stats records already written. These terms stay frozen until the
// records are regenerated.

std::string
workloadFp(const workloads::WorkloadParams &p)
{
    std::ostringstream os;
    os << "it=" << p.iterations << ",seed=" << p.seed
       << ",base=" << workloads::kDataBase;
    return os.str();
}

std::string
markerFp(const profile::MarkerConfig &m)
{
    std::ostringstream os;
    os << "ms=" << num(profile::kMispredShare)
       << ",mr=" << num(m.minMispredictRate)
       << ",rf=" << num(m.reconvergeFraction) << ",cd=" << m.maxCfmDistance
       << ",cp=" << m.maxCfmPoints << ",es=" << num(profile::kEarlyExitScale)
       << ",el=" << profile::kEarlyExitMin
       << ",eh=" << profile::kEarlyExitMax
       << ",sr=" << m.cfmSampleRate << ",lb=" << m.markLoopBranches
       << ",pd=" << m.usePostDomFallback << ",pi=" << m.profileInsts;
    return os.str();
}

std::string
coreFp(const core::CoreParams &c)
{
    std::ostringstream os;
    os << "fw=" << c.fetchWidth << ",cb=" << core::kMaxCondBranchesPerFetch
       << ",fd=" << c.frontendDepth << ",fq=0"
       << ",rob=" << c.robSize << ",iw=" << c.issueWidth
       << ",rw=" << c.retireWidth << ",pr=" << c.numPhysRegs
       << ",sb=" << c.storeBufferSize << ",ck=" << c.maxCheckpoints
       << ",la=" << core::kAluLatency << ",lm=" << core::kMulLatency
       << ",ld=" << core::kDivLatency << ",lf=" << core::kFpLatency
       << ",lb=" << core::kBranchLatency << ",lg=" << core::kAgenLatency
       << ",lw=" << core::kForwardLatency << ",bp=" << unsigned(c.predictor)
       << ",pc=" << c.perfectCondPredictor << ",pf=" << c.perfectConfidence
       << ",al=" << c.alwaysLowConfidence << ",btb=" << core::kBtbEntries
       << ",ras=" << core::kRasEntries << ",itc=" << core::kItcEntries
       << ",md=" << unsigned(c.mode) << ",ps=" << unsigned(c.predication)
       << ",e1=" << c.enhMultiCfm << ",e2=" << c.enhEarlyExit
       << ",e3=" << c.enhMultiDiverge << ",x1=" << c.extLoopBranches
       << ",x2=" << c.extSelectiveUpdate
       << ",se=" << c.staticEarlyExitThreshold
       << ",fs=" << c.forceStaticEarlyExit << ",pg=" << c.predRegisters
       << ",cam=" << c.cfmCamEntries << ",dp=" << c.maxDpredPathInsts
       << ",cw=" << c.classifyWrongPath << ",mem=" << c.memoryBytes;
    return os.str();
}

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

// A new field must join its serializer (and the pinned bytes of
// BatchRunner.FingerprintBytesArePinned), or cache entries alias.
static_assert(fieldCount<core::CoreParams>() == 26,
              "CoreParams changed: update coreFp and "
              "FingerprintBytesArePinned");
static_assert(fieldCount<profile::MarkerConfig>() == 8,
              "MarkerConfig changed: update markerFp and "
              "FingerprintBytesArePinned");
static_assert(fieldCount<workloads::WorkloadParams>() == 2,
              "WorkloadParams changed: update workloadFp and "
              "FingerprintBytesArePinned");
static_assert(fieldCount<SimConfig>() == 11,
              "SimConfig changed: update configFingerprint and "
              "FingerprintBytesArePinned");

} // namespace

std::string
configFingerprint(const SimConfig &cfg)
{
    std::ostringstream os;
    os << "wl:" << cfg.workload << "|train:" << workloadFp(cfg.train)
       << "|ref:" << workloadFp(cfg.ref) << "|marker:" << markerFp(cfg.marker)
       << "|core:" << coreFp(cfg.core) << "|mi=" << cfg.maxInsts
       << "|mc=" << cfg.maxCycles
       << "|sc=" << int(cfg.selfcheck);
    // Appended only when set so pre-accounting fingerprints (cached
    // bench artifacts, golden files) keep their exact byte form.
    if (cfg.accounting)
        os << "|acct=1";
    // Same append-only rule: Profile is the default mode, so profiled
    // configurations keep their pre-MarkMode fingerprints byte-exact.
    if (cfg.markMode != MarkMode::Profile)
        os << "|mark=" << markModeName(cfg.markMode);
    if (cfg.faultPlan) {
        os << "|fault=" << check::faultKindName(cfg.faultPlan->kind)
           << "@" << cfg.faultPlan->notBefore;
    }
    return os.str();
}

std::string
profileFingerprint(const SimConfig &cfg)
{
    // The compiler pass sees only the train binary, the marker
    // heuristics, and the architectural memory size.
    std::ostringstream os;
    os << "wl:" << cfg.workload << "|train:" << workloadFp(cfg.train)
       << "|marker:" << markerFp(cfg.marker)
       << "|mem=" << cfg.core.memoryBytes;
    if (cfg.markMode != MarkMode::Profile)
        os << "|mark=" << markModeName(cfg.markMode);
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
    return once(refCache, pkey + "|ref:" + workloadFp(cfg.ref), nullptr,
                nMarkedBuilds, [&] {
                    auto e = std::make_shared<Marked>();
                    e->program =
                        workloads::buildWorkload(cfg.workload, cfg.ref);
                    if (train) {
                        transferAndPreflight(train->program, e->program,
                                             cfg);
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
