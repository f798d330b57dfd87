/**
 * @file
 * dmpbench: the benchmark of record for the DMP simulator.
 *
 * Measures the simulator from outside, by timing calls into the public
 * functions of each module, on four workloads (see README.md for why
 * each was chosen):
 *
 *   fig09_grid    15 programs x 6 configurations through one BatchRunner
 *   serial_sim    prepare -> preflight -> two timing runs, one thread
 *   mark_lint     profile-mark + lint + static synthesis + deep lint
 *   observed_sim  two timing runs with the cycle-accounting sink
 *
 * A run repeats the workload ("reps", each with fresh programs and a
 * fresh runner) for about --seconds, timing every call into a module as
 * one step and correcting each step for the host's speed at the time
 * (SpeedProbe, SpeedLog), then checks every output: each timing cell
 * must retire exactly the instructions the functional simulator
 * executes on the same image, every train profile must have run exactly
 * as many instructions as FuncSim does under the same budget, every rep
 * must reproduce the first rep's outputs, and at seed 0 every output
 * must match golden/seed0.json.
 *
 * Usage:
 *   dmpbench --workload=NAME [--seed=N] [--seconds=S] [--trace=PATH]
 *            [--out=PATH] [--golden=PATH] [--smoke]
 *            [--git-sha=SHA] [--git-dirty=0|1]
 *   dmpbench --write-golden [--golden=PATH]
 *
 * With --trace=PATH the run alternates untraced and traced reps, writes
 * the traced reps' spans to PATH as Chrome trace-event JSON and reports
 * the per-layer metrics; otherwise it reports the end-to-end metrics.
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics; --out=PATH receives the full
 * result (every rep sample, both metric sets, provenance, failures).
 * The exit code is 0 only when every check passed.
 */

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/markgen.hh"
#include "common/json.hh"
#include "common/trace.hh"
#include "isa/func_sim.hh"
#include "profile/profiler.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

#ifndef DMPBENCH_COMPILER
#define DMPBENCH_COMPILER "unknown"
#endif
#ifndef DMPBENCH_CXX_FLAGS
#define DMPBENCH_CXX_FLAGS "unknown"
#endif

namespace
{

using namespace dmp;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ options

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 25;
    std::string tracePath; ///< non-empty: traced run
    std::string outPath;
    std::string goldenPath = "benchmark/golden/seed0.json";
    bool writeGolden = false;
    bool smoke = false;
    std::string gitSha = "unknown";
    std::string gitDirty = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dmpbench: %s\n"
                 "usage: dmpbench --workload=fig09_grid|serial_sim|"
                 "mark_lint|observed_sim [--seed=N] [--seconds=S]\n"
                 "                [--trace=PATH] [--out=PATH] "
                 "[--golden=PATH] [--smoke]\n"
                 "       dmpbench --write-golden [--golden=PATH]\n",
                 why);
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

std::uint64_t
parseU64(const std::string &s, const char *what)
{
    std::uint64_t v = 0;
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || end != s.data() + s.size())
        usage((std::string("bad ") + what + " '" + s + "'").c_str());
    return v;
}

const char *const kWorkloads[] = {"fig09_grid", "serial_sim", "mark_lint",
                                  "observed_sim"};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        std::string v;
        if (flagValue(a, "--workload", v)) {
            o.workload = v;
        } else if (flagValue(a, "--seed", v)) {
            o.seed = parseU64(v, "seed");
        } else if (flagValue(a, "--seconds", v)) {
            o.seconds = double(parseU64(v, "seconds"));
        } else if (flagValue(a, "--trace", v)) {
            o.tracePath = v;
        } else if (flagValue(a, "--out", v)) {
            o.outPath = v;
        } else if (flagValue(a, "--golden", v)) {
            o.goldenPath = v;
        } else if (flagValue(a, "--git-sha", v)) {
            o.gitSha = v;
        } else if (flagValue(a, "--git-dirty", v)) {
            o.gitDirty = v;
        } else if (std::strcmp(a, "--smoke") == 0) {
            o.smoke = true;
        } else if (std::strcmp(a, "--write-golden") == 0) {
            o.writeGolden = true;
        } else {
            usage((std::string("unknown argument ") + a).c_str());
        }
    }
    if (o.writeGolden)
        return o;
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  o.workload) == std::end(kWorkloads))
        usage("--workload must name one of the four workloads");
    return o;
}

// ------------------------------------------------------- JSON output

/** Shortest round-trip decimal of `v`; null when not finite. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

using trace::hex;

// ------------------------------------------------------------ tracing

/**
 * In-memory span recorder. Spans are recorded only while a traced rep
 * runs; all calls happen on the main thread, so spans nest strictly
 * and a span's parent is whatever span was open when it began.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *layer = "";
        const char *name = "";
        std::string cell;
        int rep = -1;
        int parent = -1;
        Clock::time_point start;
        Clock::time_point end;
    };

    /** Rep index being traced; -1 while tracing is off. */
    int rep = -1;

    int
    open(const char *layer, const char *name, std::string cell)
    {
        if (rep < 0)
            return -1;
        Span s;
        s.layer = layer;
        s.name = name;
        s.cell = std::move(cell);
        s.rep = rep;
        s.parent = stack.empty() ? -1 : stack.back();
        s.start = Clock::now();
        spans.push_back(std::move(s));
        stack.push_back(int(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[std::size_t(id)].end = Clock::now();
        stack.pop_back();
    }

    std::vector<Span> spans;

  private:
    std::vector<int> stack;
};

Tracer tracer;

/** RAII span around one call into a layer. */
class Scoped
{
  public:
    Scoped(const char *layer, const char *name, std::string cell)
        : id(tracer.open(layer, name, std::move(cell)))
    {}
    ~Scoped() { tracer.close(id); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    int id;
};

// -------------------------------------------------- inputs and configs

constexpr std::uint64_t kIterations = 2000;
constexpr std::uint64_t kSmokeIterations = 200;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

struct Inputs
{
    workloads::WorkloadParams train;
    workloads::WorkloadParams ref;
};

/**
 * Train/ref inputs of image `image` at `seed`. Seed 0 image 0 is the
 * input behind the committed figures (the SimConfig defaults); every
 * other (seed, image) draws both data seeds from one splitmix64 stream.
 */
Inputs
inputsFor(std::uint64_t seed, unsigned image, std::uint64_t iterations)
{
    const sim::SimConfig defaults;
    Inputs in{defaults.train, defaults.ref};
    in.train.iterations = iterations;
    in.ref.iterations = iterations;
    if (seed != 0 || image != 0) {
        std::uint64_t state = seed;
        for (unsigned i = 0; i <= image; ++i) {
            in.train.seed = splitmix64(state);
            in.ref.seed = splitmix64(state);
        }
    }
    return in;
}

// ---------------------------------------------------------- host speed

/**
 * The probe's time inside a rep in the quietest stretches seen on the
 * 4-vCPU Xeon the benchmark was defined on (its 5th percentile over ten
 * minutes). Corrected times are host seconds at that speed; see
 * SpeedLog.
 */
constexpr double kReferenceSeconds = 0.0063;

/**
 * The slowest probe time a correction follows. Up to about twice the
 * reference time, the simulator's steps slowed in proportion to the
 * probe; in the rare heavier phases the probe slowed to 13-15 ms while
 * the steps stayed at about twice their reference time, so following
 * the probe there made whole runs read up to 20 % fast.
 */
constexpr double kSlowestSeconds = 2 * kReferenceSeconds;

/** Minimum gap between two probe samples inside a rep. */
constexpr double kSpeedEvery = 0.1;

volatile std::uint64_t speedSink;

/**
 * Host-speed probe: a fixed kernel whose run time follows the host's
 * speed for the simulator's code. The host runs other machines' threads
 * on the physical cores behind this machine's vCPUs and on its shared
 * L3; while they run, the simulator's steps take up to twice as long,
 * in phases of a few seconds to minutes. The kernel is eight
 * independent xorshift chains, bound by the execution ports a neighbour
 * on the same core competes for, then a walk round a 1 MB random cycle
 * that the work since the last probe has pushed out of L2, so it waits
 * on L3. Timed in one process against the timing core, the profiler and
 * absint, this mix tracked them best of those tried; a latency-bound
 * integer loop, a walk kept in L2 and a walk over 32 MB did worse.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : ring(kRingWords)
    {
        // Sattolo's shuffle: a single cycle through every word.
        for (std::uint32_t i = 0; i < kRingWords; ++i)
            ring[i] = i;
        std::uint64_t state = 1;
        for (std::uint32_t i = kRingWords - 1; i > 0; --i)
            std::swap(ring[i], ring[splitmix64(state) % i]);
    }

    /** Seconds the kernel takes now, on the calling thread. */
    double
    run() const
    {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
        auto xs = [](std::uint64_t &v) {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
        };
        for (unsigned i = 0; i < kChainSteps; ++i) {
            xs(a), xs(b), xs(c), xs(d), xs(e), xs(f), xs(g), xs(h);
            // Keep the chains scalar: vectorized, they would no longer
            // compete for the ports the simulator uses.
            asm volatile(""
                         : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e),
                           "+r"(f), "+r"(g), "+r"(h));
        }
        std::uint32_t at = 0;
        for (unsigned i = 0; i < kWalkSteps; ++i)
            at = ring[at];
        const double took = secondsBetween(t0, Clock::now());
        speedSink = a ^ b ^ c ^ d ^ e ^ f ^ g ^ h ^ at;
        return took;
    }

  private:
    static constexpr std::uint32_t kRingWords = 1u << 18;
    static constexpr unsigned kChainSteps = 480'000;
    static constexpr unsigned kWalkSteps = 120'000;
    std::vector<std::uint32_t> ring;
};

const SpeedProbe &
speedProbe()
{
    static const SpeedProbe probe;
    return probe;
}

/**
 * Probe samples of one rep (or of the oracle's FuncSim runs), in time
 * order. A span of work is corrected by factor(): the mean probe speed
 * from the last sample before the span to the first one after it, over
 * the reference speed, so work done while the host is slow counts what
 * it would have taken at the reference speed.
 */
class SpeedLog
{
  public:
    struct Sample
    {
        Clock::time_point at; ///< when the probe finished
        double seconds;
    };

    /** Run the probe on this thread, between two steps. */
    void
    sample()
    {
        Scoped span("bench", "speedProbe", "");
        const double s = speedProbe().run();
        samples.push_back({Clock::now(), s});
    }

    /** sample() unless the last sample is younger than kSpeedEvery. */
    void
    sampleIfDue()
    {
        if (samples.empty() ||
            secondsBetween(samples.back().at, Clock::now()) >= kSpeedEvery)
            sample();
    }

    /** Add samples taken on other threads. */
    void
    add(const std::vector<Sample> &more)
    {
        samples.insert(samples.end(), more.begin(), more.end());
        std::sort(samples.begin(), samples.end(),
                  [](const Sample &a, const Sample &b) { return a.at < b.at; });
    }

    /** Correction factor for work done between `start` and `end`. */
    double
    factor(Clock::time_point start, Clock::time_point end) const
    {
        if (samples.empty())
            return 1.0;
        auto first = std::upper_bound(
            samples.begin(), samples.end(), start,
            [](Clock::time_point t, const Sample &s) { return t < s.at; });
        if (first != samples.begin())
            --first;
        auto last = std::lower_bound(
            samples.begin(), samples.end(), end,
            [](const Sample &s, Clock::time_point t) { return s.at < t; });
        if (last == samples.end())
            --last;
        // Work done is speed integrated over time, so average speeds
        // (1 / probe time), not probe times; this also weights the vCPUs
        // of a pool by the work each does.
        double speed = 0;
        for (auto it = first; it <= last; ++it)
            speed += 1.0 / std::min(it->seconds, kSlowestSeconds);
        return kReferenceSeconds * speed / double(last - first + 1);
    }

    /** Every probe time, in order. */
    std::vector<double>
    seconds() const
    {
        std::vector<double> v;
        for (const Sample &s : samples)
            v.push_back(s.seconds);
        return v;
    }

  private:
    std::vector<Sample> samples;
};

/**
 * Samples the speed of the vCPUs a thread pool runs on, while it runs:
 * one thread pinned to each vCPU runs the probe every kPoolSpeedEvery
 * seconds, staggered, and hands its samples to the log when the sampler
 * is destroyed. The threads ask for real-time priority so that a probe
 * preempts the pool's worker on its vCPU instead of sharing time slices
 * with it; where that is not allowed they run at normal priority.
 */
class PoolSampler
{
  public:
    PoolSampler(SpeedLog &into, unsigned cpus) : log(into)
    {
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        sched_getaffinity(0, sizeof allowed, &allowed);
        std::vector<int> ids;
        for (int c = 0; c < CPU_SETSIZE && ids.size() < cpus; ++c)
            if (CPU_ISSET(c, &allowed))
                ids.push_back(c);
        got.resize(ids.size());
        try {
            for (std::size_t k = 0; k < ids.size(); ++k)
                threads.emplace_back(
                    [this, k, cpu = ids[k], n = ids.size()] {
                        loop(k, cpu, n);
                    });
        } catch (...) {
            halt();
            throw;
        }
    }

    ~PoolSampler()
    {
        halt();
        for (const auto &samples : got)
            log.add(samples);
    }

    PoolSampler(const PoolSampler &) = delete;
    PoolSampler &operator=(const PoolSampler &) = delete;

  private:
    static constexpr double kPoolSpeedEvery = 0.25;

    void
    halt()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            stop = true;
        }
        cv.notify_all();
        for (std::thread &t : threads)
            t.join();
    }

    void
    loop(std::size_t k, int cpu, std::size_t n)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        sched_param rt{};
        rt.sched_priority = 1;
        pthread_setschedparam(pthread_self(), SCHED_FIFO, &rt);
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kPoolSpeedEvery));
        Clock::time_point next = Clock::now() + period * (k + 1) / n;
        std::unique_lock<std::mutex> lock(m);
        while (!cv.wait_until(lock, next, [this] { return stop; })) {
            lock.unlock();
            const double s = speedProbe().run();
            const Clock::time_point at = Clock::now();
            lock.lock();
            got[k].push_back({at, s});
            next += period;
        }
    }

    SpeedLog &log;
    std::mutex m;
    std::condition_variable cv;
    bool stop = false;                              ///< guarded by m
    std::vector<std::vector<SpeedLog::Sample>> got; ///< guarded by m
    std::vector<std::thread> threads;
};

/** The Figure 9 configurations (cumulative enhancements). */
struct ConfigDef
{
    const char *name;
    bool predicated;
    bool multiCfm;
    bool earlyExit;
    bool multiDiverge;
    sim::MarkMode marks;
};

const ConfigDef kConfigs[] = {
    {"base", false, false, false, false, sim::MarkMode::Profile},
    {"basic", true, false, false, false, sim::MarkMode::Profile},
    {"mcfm", true, true, false, false, sim::MarkMode::Profile},
    {"mcfm_eexit", true, true, true, false, sim::MarkMode::Profile},
    {"mcfm_eexit_mdb", true, true, true, true, sim::MarkMode::Profile},
    {"dmp_static", true, true, true, true, sim::MarkMode::Static},
};

const ConfigDef &
configNamed(const std::string &name)
{
    for (const ConfigDef &c : kConfigs)
        if (name == c.name)
            return c;
    std::fprintf(stderr, "dmpbench: no config %s\n", name.c_str());
    std::abort();
}

sim::SimConfig
makeConfig(const std::string &program, const Inputs &in,
           const ConfigDef &def)
{
    sim::SimConfig c;
    c.workload = program;
    c.train = in.train;
    c.ref = in.ref;
    if (def.predicated)
        c.core.predication = core::PredicationScope::Diverge;
    c.core.enhMultiCfm = def.multiCfm;
    c.core.enhEarlyExit = def.earlyExit;
    c.core.enhMultiDiverge = def.multiDiverge;
    c.markMode = def.marks;
    return c;
}

/** Lint options matching BatchRunner's pre-flight for `cfg`. */
analysis::AnalysisOptions
lintOptions(const sim::SimConfig &cfg)
{
    analysis::AnalysisOptions ao;
    ao.marker = cfg.marker;
    ao.maxPredicateDepth = cfg.core.predRegisters;
    ao.memoryBytes = cfg.core.memoryBytes;
    return ao;
}

// ------------------------------------------------------------ outputs

/**
 * One checked output: a timing cell (program x configuration) or, in
 * mark_lint, one marked image pair. `facts` holds the values the golden
 * file pins, by name; `acct` the accounting counters when attached.
 */
struct Cell
{
    std::string program;
    std::string config; ///< ConfigDef name, or the image index
    std::string error;  ///< non-empty: the cell threw
    bool timing = false;
    bool profiled = false; ///< marks came from a train run
    std::uint64_t trainInsts = 0;
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t fetched = 0;
    std::uint64_t flushes = 0;
    std::uint64_t dpredEntries = 0;
    double hostSeconds = 0;
    double speed = 1.0; ///< SpeedLog factor of the step that ran it
    std::map<std::string, std::string> facts;
    std::map<std::string, std::string> acct;

    std::string id() const { return program + "/" + config; }
};

Cell
timingCell(const std::string &program, const ConfigDef &def,
           const sim::SimResult &r)
{
    Cell c;
    c.program = program;
    c.config = def.name;
    c.timing = true;
    c.profiled = def.marks == sim::MarkMode::Profile;
    c.trainInsts = r.marking.profile.totalInsts;
    c.retired = r.retiredInsts;
    c.cycles = r.cycles;
    c.skipped = r.require("cycles_skipped");
    c.fetched = r.require("fetched_insts");
    c.flushes = r.require("pipeline_flushes");
    c.dpredEntries = r.require("dpred_entries");
    c.hostSeconds = r.hostSeconds;
    for (const auto &[name, value] : r.counters) {
        if (name.rfind("acct_", 0) == 0)
            c.acct[name] = std::to_string(value);
        else
            c.facts[name] = std::to_string(value);
    }
    c.facts["ipc"] = num(r.ipc);
    return c;
}

Cell
failedCell(const std::string &program, const std::string &config,
           const std::string &what)
{
    Cell c;
    c.program = program;
    c.config = config;
    c.error = what.empty() ? "unknown exception" : what;
    return c;
}

/** Marks in address order: "pc[dhl]@N>cfm,cfm ...". */
std::string
markList(const isa::Program &p)
{
    std::string out;
    for (const auto &[pc, m] : p.allMarks()) {
        if (!out.empty())
            out += ' ';
        out += hex(pc);
        out += '[';
        if (m.isDiverge)
            out += 'd';
        if (m.isSimpleHammock)
            out += 'h';
        if (m.isLoopBranch)
            out += 'l';
        out += "]@" + std::to_string(m.earlyExitThreshold) + '>';
        for (std::size_t i = 0; i < m.cfmPoints.size(); ++i) {
            if (i)
                out += ',';
            out += hex(m.cfmPoints[i]);
        }
    }
    return out;
}

/** The end-to-end times a step counts towards (a bit set). */
enum StepKind : unsigned
{
    kSetup = 1, ///< setup_s
    kMark = 2,  ///< the time mark_programs_per_s divides by
    kSim = 4,   ///< the time sim_kips divides by
};

/** One timed call. Every rep makes the same calls in the same order. */
struct Step
{
    unsigned kind;
    Clock::time_point start;
    Clock::time_point end;
};

/** Everything one rep measured, before any checking. */
struct Rep
{
    bool traced = false;
    double wall = 0;  ///< host seconds, probe samples included
    double rssMb = 0; ///< peak RSS during the rep
    std::vector<Step> steps;
    SpeedLog speed;
    /** Instructions simulated in the kSim steps: by the timing core, or
     *  by the profiler's FuncSim train runs in mark_lint. */
    double simInsts = 0;
    std::uint64_t markedPrograms = 0;
    std::vector<Cell> cells;

    // Layer counts.
    std::uint64_t programsBuilt = 0;
    std::uint64_t trainInsts = 0;
    std::uint64_t markedDiverge = 0;
    std::uint64_t absintIterations = 0;
    std::uint64_t lintErrors = 0;

    // fig09_grid only.
    unsigned jobs = 0;
    sim::BatchStats pool;
    double phaseBWall = 0;
    double phaseBBusy = 0;
    std::string poolError; ///< phase-B cache invariant violated

    /** Corrected seconds of step `i` (see SpeedLog). */
    double
    stepSeconds(std::size_t i) const
    {
        const Step &st = steps[i];
        return secondsBetween(st.start, st.end) *
               speed.factor(st.start, st.end);
    }

    /** Corrected seconds of this rep's steps of `kind` (0: all). */
    double
    seconds(unsigned kind) const
    {
        double s = 0;
        for (std::size_t i = 0; i < steps.size(); ++i)
            if (kind == 0 || (steps[i].kind & kind))
                s += stepSeconds(i);
        return s;
    }
};

/**
 * Call `f` as the next step of `rep`: timed in every rep, and inside a
 * trace span of `layer` when the rep is traced. The host's speed is
 * sampled after the step when the last sample is old enough.
 */
template <class F>
decltype(auto)
timed(Rep &rep, unsigned kind, const char *layer, const char *name,
      const std::string &cell, F &&f)
{
    const Clock::time_point start = Clock::now();
    auto done = [&] {
        rep.steps.push_back({kind, start, Clock::now()});
        rep.speed.sampleIfDue();
    };
    if constexpr (std::is_void_v<decltype(f())>) {
        {
            Scoped span(layer, name, cell);
            f();
        }
        done();
    } else {
        auto out = [&] {
            Scoped span(layer, name, cell);
            return f();
        }();
        done();
        return out;
    }
}

struct Context
{
    std::vector<std::string> programs;
    std::uint64_t seed = 0;
    std::uint64_t iterations = kIterations;
    unsigned jobs = 1;
};

// ------------------------------------------------------------ workloads

/**
 * Figure 9 regeneration through one BatchRunner. Phase A (set-up)
 * submits one maxInsts=1 cell per program and marking source: that runs
 * every build, profile, synthesis, pre-flight and transfer and fills
 * the runner's profile and marked-program caches (profileFingerprint
 * ignores maxInsts). Phase B is the real 90-cell grid.
 */
Rep
runFig09Grid(const Context &ctx)
{
    Rep rep;
    rep.jobs = ctx.jobs;
    const Inputs in = inputsFor(ctx.seed, 0, ctx.iterations);
    std::optional<sim::BatchRunner> runner;
    std::vector<std::shared_future<std::shared_ptr<const sim::SimResult>>>
        grid;
    std::vector<std::string> warmErrors;

    // The pool's workers run on every vCPU it may use, so the speed is
    // sampled on each of them while the pool runs.
    const Clock::time_point start = Clock::now();
    Clock::time_point t0;
    Clock::time_point t1;
    Clock::time_point t2;
    sim::BatchStats afterA;
    {
        Scoped r("bench", "rep", "");
        rep.speed.sample();
        std::optional<PoolSampler> sampler;
        sampler.emplace(rep.speed, ctx.jobs);
        t0 = Clock::now();
        {
            Scoped a("sim", "phaseA", "");
            runner.emplace(ctx.jobs);
            std::vector<std::shared_future<
                std::shared_ptr<const sim::SimResult>>>
                warm;
            for (const std::string &p : ctx.programs) {
                for (const char *cfg : {"base", "dmp_static"}) {
                    sim::SimConfig c = makeConfig(p, in, configNamed(cfg));
                    c.maxInsts = 1;
                    warm.push_back(runner->submit(c));
                }
            }
            for (auto &f : warm) {
                try {
                    f.get();
                } catch (const std::exception &e) {
                    warmErrors.push_back(e.what());
                }
            }
        }
        t1 = Clock::now();
        afterA = runner->stats();
        {
            Scoped b("sim", "phaseB", "");
            for (const std::string &p : ctx.programs)
                for (const ConfigDef &def : kConfigs)
                    grid.push_back(
                        runner->submit(makeConfig(p, in, def)));
            for (auto &f : grid)
                f.wait();
        }
        t2 = Clock::now();
        sampler.reset();
        rep.speed.sample();
    }

    rep.wall = secondsBetween(start, Clock::now());
    rep.phaseBWall = secondsBetween(t1, t2);
    rep.steps.push_back({kSetup | kMark, t0, t1});
    rep.steps.push_back({kSim, t1, t2});
    const double phaseBSpeed = rep.speed.factor(t1, t2);
    rep.pool = runner->stats();
    rep.phaseBBusy = rep.pool.simSeconds - afterA.simSeconds;
    rep.markedPrograms = rep.pool.markedProgramBuilds;

    std::size_t i = 0;
    std::uint64_t profiledCells = 0;
    for (const std::string &p : ctx.programs) {
        for (const ConfigDef &def : kConfigs) {
            auto &f = grid[i++];
            if (def.marks == sim::MarkMode::Profile)
                ++profiledCells;
            try {
                const sim::SimResult &r = *f.get();
                Cell c = timingCell(p, def, r);
                c.speed = phaseBSpeed;
                rep.simInsts += double(c.retired);
                // One profile per program: count it on one config.
                if (def.name == std::string("mcfm_eexit_mdb")) {
                    rep.trainInsts += c.trainInsts;
                    rep.markedDiverge += r.marking.markedDiverge;
                }
                rep.cells.push_back(std::move(c));
            } catch (const std::exception &e) {
                rep.cells.push_back(failedCell(p, def.name, e.what()));
            }
        }
    }

    // Phase B must be served entirely from phase A's caches.
    const std::uint64_t hitsB = rep.pool.profileHits - afterA.profileHits;
    const std::uint64_t buildsB =
        rep.pool.markedProgramBuilds - afterA.markedProgramBuilds;
    std::ostringstream err;
    if (!warmErrors.empty())
        err << "phase A: " << warmErrors.front() << "; ";
    if (hitsB != profiledCells)
        err << "phase-B profile hits " << hitsB << " != profiled cells "
            << profiledCells << "; ";
    if (buildsB != 0)
        err << "phase B built " << buildsB << " marked programs; ";
    rep.poolError = err.str();
    return rep;
}

/** One program's profiled ref image, prepared step by step. */
struct Prepared
{
    isa::Program ref;
    profile::MarkingReport report;
};

/**
 * The steps of sim::prepareMarkedProgram for MarkMode::Profile, called
 * one by one so each layer gets its own span, with the pre-flight lint
 * BatchRunner applies to the marked train image before the transfer.
 * Keep these steps in step with sim::prepareMarkedProgram and
 * BatchRunner's profile cache (src/sim/simulator.cc, src/sim/batch.cc).
 */
Prepared
prepareProfiled(Rep &rep, const std::string &program, const Inputs &in,
                const sim::SimConfig &cfg)
{
    Prepared out;
    out.ref = timed(rep, kSetup, "workloads", "buildWorkload", program,
                    [&] { return workloads::buildWorkload(program, in.ref); });
    isa::Program train =
        timed(rep, kSetup, "workloads", "buildWorkload", program,
              [&] { return workloads::buildWorkload(program, in.train); });
    rep.programsBuilt += 2;
    out.report = timed(rep, kSetup | kMark, "profile", "profileAndMark",
                       program, [&] {
                           return profile::profileAndMark(
                               train, cfg.core.memoryBytes, cfg.marker);
                       });
    timed(rep, kSetup, "analysis", "preflightOrThrow", program, [&] {
        analysis::preflightOrThrow(train, lintOptions(cfg), program);
    });
    timed(rep, kSetup | kMark, "profile", "transferMarks", program,
          [&] { profile::transferMarks(train, out.ref); });
    rep.trainInsts += out.report.profile.totalInsts;
    rep.markedDiverge += out.report.markedDiverge;
    ++rep.markedPrograms;
    return out;
}

/** MarkMode::Static: synthesize on the ref image, then pre-flight. */
Prepared
prepareStatic(Rep &rep, const std::string &program, const Inputs &in,
              const sim::SimConfig &cfg)
{
    Prepared out;
    out.ref = timed(rep, kSetup, "workloads", "buildWorkload", program,
                    [&] { return workloads::buildWorkload(program, in.ref); });
    ++rep.programsBuilt;
    analysis::MarkGenConfig mg;
    mg.marker = cfg.marker;
    analysis::MarkGenReport mr =
        timed(rep, kSetup | kMark, "analysis", "synthesizeMarks", program,
              [&] { return analysis::synthesizeMarks(out.ref, mg); });
    timed(rep, kSetup, "analysis", "preflightOrThrow", program, [&] {
        analysis::preflightOrThrow(out.ref, lintOptions(cfg), program);
    });
    out.report.candidateBranches = mr.candidates.size();
    out.report.markedDiverge = mr.markedDiverge;
    out.report.markedSimpleHammock = mr.markedSimpleHammock;
    out.report.markedLoop = mr.markedLoop;
    rep.absintIterations += mr.absintStats.iterations;
    rep.lintErrors += mr.lintErrors;
    ++rep.markedPrograms;
    return out;
}

/**
 * serial_sim and observed_sim: per program, prepare the marked images
 * (set-up), then run each configuration on one thread.
 */
Rep
runSerial(const Context &ctx, const std::vector<const char *> &configs,
          bool accounting)
{
    Rep rep;
    const Inputs in = inputsFor(ctx.seed, 0, ctx.iterations);
    struct Ran
    {
        std::size_t cell;
        std::size_t step;
        sim::SimResult result;
    };
    std::vector<Ran> results;
    std::vector<std::pair<std::size_t, std::string>> errors;
    std::vector<std::pair<std::string, const ConfigDef *>> cellDefs;

    const Clock::time_point t0 = Clock::now();
    {
        Scoped r("bench", "rep", "");
        rep.speed.sample();
        for (const std::string &p : ctx.programs) {
            Scoped cellSpan("bench", "program", p);
            const std::size_t first = cellDefs.size();
            for (const char *name : configs)
                cellDefs.emplace_back(p, &configNamed(name));

            std::optional<Prepared> profiled;
            std::optional<Prepared> statics;
            std::string prepError;
            try {
                for (std::size_t i = first; i < cellDefs.size(); ++i) {
                    const ConfigDef &def = *cellDefs[i].second;
                    sim::SimConfig c = makeConfig(p, in, def);
                    if (def.marks == sim::MarkMode::Static && !statics)
                        statics = prepareStatic(rep, p, in, c);
                    if (def.marks == sim::MarkMode::Profile && !profiled)
                        profiled = prepareProfiled(rep, p, in, c);
                }
            } catch (const std::exception &e) {
                prepError = e.what();
            }

            for (std::size_t i = first; i < cellDefs.size(); ++i) {
                if (!prepError.empty()) {
                    errors.emplace_back(i, prepError);
                    continue;
                }
                const ConfigDef &def = *cellDefs[i].second;
                sim::SimConfig c = makeConfig(p, in, def);
                c.accounting = accounting;
                const Prepared &prep =
                    def.marks == sim::MarkMode::Static ? *statics
                                                       : *profiled;
                try {
                    sim::SimResult r =
                        timed(rep, kSim, "core", "runSimOnProgram", p, [&] {
                            return sim::runSimOnProgram(prep.ref,
                                                        prep.report, c);
                        });
                    results.push_back({i, rep.steps.size() - 1,
                                       std::move(r)});
                } catch (const std::exception &e) {
                    errors.emplace_back(i, e.what());
                }
            }
        }
        rep.speed.sample();
    }
    rep.wall = secondsBetween(t0, Clock::now());

    std::vector<Cell> cells(cellDefs.size());
    for (const Ran &ran : results) {
        const std::size_t i = ran.cell;
        const Step &st = rep.steps[ran.step];
        cells[i] =
            timingCell(cellDefs[i].first, *cellDefs[i].second, ran.result);
        cells[i].speed = rep.speed.factor(st.start, st.end);
        rep.simInsts += double(ran.result.retiredInsts);
    }
    for (const auto &[i, what] : errors)
        cells[i] = failedCell(cellDefs[i].first, cellDefs[i].second->name,
                              what);
    rep.cells = std::move(cells);
    return rep;
}

/**
 * The dmp-mark + dmp-lint --deep flow over two seed-derived images per
 * program. Set-up is image generation; the marking and analysis of
 * each image is the measured work.
 */
Rep
runMarkLint(const Context &ctx)
{
    constexpr unsigned kImages = 2;
    Rep rep;
    const sim::SimConfig cfg;
    struct Image
    {
        std::string program;
        unsigned index = 0;
        isa::Program train;
        isa::Program ref;
        profile::MarkingReport profiled;
        analysis::MarkGenReport synthesized;
        analysis::Report deep;
        analysis::MarkAgreement agreement;
        std::string error;
    };
    std::vector<Image> images;

    const Clock::time_point t0 = Clock::now();
    {
        Scoped r("bench", "rep", "");
        rep.speed.sample();
        for (const std::string &p : ctx.programs) {
            for (unsigned k = 0; k < kImages; ++k) {
                const Inputs in = inputsFor(ctx.seed, k, ctx.iterations);
                Image img;
                img.program = p;
                img.index = k;
                img.train =
                    timed(rep, kSetup, "workloads", "buildWorkload", p, [&] {
                        return workloads::buildWorkload(p, in.train);
                    });
                img.ref =
                    timed(rep, kSetup, "workloads", "buildWorkload", p, [&] {
                        return workloads::buildWorkload(p, in.ref);
                    });
                images.push_back(std::move(img));
            }
        }

        analysis::MarkGenConfig mg;
        mg.marker = cfg.marker;
        mg.maxPredicateDepth = cfg.core.predRegisters;
        analysis::AnalysisOptions deep = lintOptions(cfg);
        deep.absint = true;
        for (Image &img : images) {
            const std::string id =
                img.program + "/" + std::to_string(img.index);
            Scoped cellSpan("bench", "image", id);
            try {
                img.profiled = timed(
                    rep, kMark | kSim, "profile", "profileAndMark", id, [&] {
                        return profile::profileAndMark(
                            img.train, cfg.core.memoryBytes, cfg.marker);
                    });
                timed(rep, kMark, "analysis", "preflightOrThrow", id, [&] {
                    analysis::preflightOrThrow(img.train, lintOptions(cfg),
                                               id);
                });
                img.synthesized =
                    timed(rep, kMark, "analysis", "synthesizeMarks", id,
                          [&] { return analysis::synthesizeMarks(img.ref, mg); });
                img.deep = timed(rep, kMark, "analysis", "analyzeProgram", id,
                                 [&] {
                                     return analysis::analyzeProgram(img.ref,
                                                                     deep);
                                 });
                img.agreement =
                    timed(rep, kMark, "analysis", "compareMarkings", id, [&] {
                        return analysis::compareMarkings(img.ref, img.train);
                    });
            } catch (const std::exception &e) {
                img.error = e.what();
                if (img.error.empty())
                    img.error = "unknown exception";
            }
        }
        rep.speed.sample();
    }
    rep.wall = secondsBetween(t0, Clock::now());

    for (const Image &img : images) {
        rep.programsBuilt += 2;
        Cell c;
        c.program = img.program;
        c.config = std::to_string(img.index);
        c.error = img.error;
        if (img.error.empty()) {
            c.profiled = true;
            c.trainInsts = img.profiled.profile.totalInsts;
            rep.simInsts += double(c.trainInsts);
            rep.trainInsts += c.trainInsts;
            rep.markedDiverge += img.profiled.markedDiverge;
            rep.absintIterations += img.synthesized.absintStats.iterations;
            rep.lintErrors +=
                img.deep.errors() + img.synthesized.lintErrors;
            rep.markedPrograms += 2;
            const analysis::MarkAgreement &a = img.agreement;
            c.facts = {
                {"profiled_marks", quote(markList(img.train))},
                {"static_marks", quote(markList(img.ref))},
                {"deep_lint", quote(std::to_string(img.deep.errors()) +
                                    "e/" +
                                    std::to_string(img.deep.warnings()) +
                                    "w/" +
                                    std::to_string(img.deep.infos()) + "i")},
                {"markgen_lint",
                 quote(std::to_string(img.synthesized.lintErrors) + "e/" +
                       std::to_string(img.synthesized.lintWarnings) + "w/" +
                       std::to_string(img.synthesized.lintInfos) + "i/" +
                       std::to_string(img.synthesized.droppedIllegal) +
                       "dropped")},
                {"agreement", quote(std::to_string(a.commonDiverge) +
                                    " common/" +
                                    std::to_string(a.cfmAnyMatch) +
                                    " cfm-match")},
            };
            if (img.deep.errors() || img.synthesized.lintErrors)
                c.error = "lint errors on " + c.id();
        }
        rep.cells.push_back(std::move(c));
    }
    return rep;
}

Rep
runOnce(const std::string &workload, const Context &ctx)
{
    if (workload == "fig09_grid")
        return runFig09Grid(ctx);
    if (workload == "serial_sim")
        return runSerial(ctx, {"base", "mcfm_eexit_mdb"}, false);
    if (workload == "observed_sim")
        return runSerial(ctx, {"mcfm_eexit_mdb", "dmp_static"}, true);
    return runMarkLint(ctx);
}

// -------------------------------------------------------------- oracle

/** Instruction counts FuncSim executes on each image. */
struct Oracle
{
    std::map<std::string, std::uint64_t> refInsts;   ///< by cell program
    std::map<std::string, std::uint64_t> trainInsts; ///< by Cell::id()
    std::vector<std::string> errors;
    std::uint64_t insts = 0;
    std::vector<Step> runs; ///< each FuncSim run
    SpeedLog speed;

    /** Corrected seconds of the FuncSim runs. */
    double
    seconds() const
    {
        double s = 0;
        for (const Step &r : runs)
            s += secondsBetween(r.start, r.end) * speed.factor(r.start, r.end);
        return s;
    }
};

std::uint64_t
funcSimCount(Oracle &o, const isa::Program &p, std::uint64_t budget,
             bool mustHalt, const std::string &what)
{
    const sim::SimConfig cfg;
    isa::MemoryImage mem(cfg.core.memoryBytes);
    isa::FuncSim fs(p, mem);
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t n = fs.run(budget);
    o.runs.push_back({0, t0, Clock::now()});
    o.speed.sampleIfDue();
    o.insts += n;
    if (mustHalt && !fs.halted())
        o.errors.push_back(what + ": FuncSim did not halt");
    return n;
}

Oracle
runOracle(const std::string &workload, const Context &ctx)
{
    constexpr std::uint64_t kRefBudget = 500'000'000;
    Oracle o;
    const sim::SimConfig defaults;
    const std::uint64_t trainBudget = defaults.marker.profileInsts;
    const unsigned images = workload == "mark_lint" ? 2 : 1;
    o.speed.sample();
    for (const std::string &p : ctx.programs) {
        for (unsigned k = 0; k < images; ++k) {
            const Inputs in = inputsFor(ctx.seed, k, ctx.iterations);
            const std::string id =
                workload == "mark_lint" ? p + "/" + std::to_string(k) : p;
            try {
                isa::Program train =
                    workloads::buildWorkload(p, in.train);
                o.trainInsts[id] =
                    funcSimCount(o, train, trainBudget, false, id);
                if (workload != "mark_lint") {
                    isa::Program ref = workloads::buildWorkload(p, in.ref);
                    o.refInsts[p] =
                        funcSimCount(o, ref, kRefBudget, true, id);
                }
            } catch (const std::exception &e) {
                o.errors.push_back(id + ": oracle: " + e.what());
            }
        }
    }
    return o;
}

// -------------------------------------------------------------- golden

/** Golden sections: timing-cell counters, accounting counters, images. */
struct Golden
{
    std::map<std::string, std::map<std::string, std::string>> cells;
    std::map<std::string, std::map<std::string, std::string>> acct;
    std::map<std::string, std::map<std::string, std::string>> images;
};

/** Render a JSON scalar back to the text this program writes for it. */
std::string
scalarText(const json::Value &v)
{
    if (v.isString())
        return quote(v.string);
    if (v.isNumber()) {
        // Counters are integers; ipc is the only fractional fact.
        double d = v.number;
        if (d == double(std::uint64_t(d)) && d >= 0 && d < 9.0e15)
            return std::to_string(std::uint64_t(d));
        return num(d);
    }
    return "null";
}

bool
loadGolden(const std::string &path, Golden &g, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open golden file " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    json::Value root;
    if (!json::parse(text.str(), root, err))
        return false;
    auto section = [&](const char *name, auto &out) {
        const json::Value *s = root.get(name);
        if (!s || !s->isObject())
            return;
        for (const auto &[key, obj] : s->object)
            for (const auto &[fact, value] : obj.object)
                out[key][fact] = scalarText(value);
    };
    section("cells", g.cells);
    section("acct", g.acct);
    section("images", g.images);
    return true;
}

/** First differing fact of `have` against `want`, or "". */
std::string
diffFacts(const std::map<std::string, std::string> &want,
          const std::map<std::string, std::string> &have)
{
    for (const auto &[name, value] : want) {
        auto it = have.find(name);
        if (it == have.end())
            return name + " missing";
        if (it->second != value)
            return name + " " + it->second + " != golden " + value;
    }
    return "";
}

std::string
factsJson(const std::map<std::string, std::string> &facts)
{
    std::string out = "{";
    for (const auto &[name, value] : facts) {
        if (out.size() > 1)
            out += ',';
        out += quote(name) + ":" + value;
    }
    return out + "}";
}

// -------------------------------------------------------------- checks

struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            failures.push_back(what);
        }
    }
};

/**
 * Check every rep's outputs: exceptions, the FuncSim oracle, rep-to-rep
 * determinism, the phase-B cache invariant, and (golden non-null) the
 * seed-0 golden values.
 */
Verdict
checkReps(const std::vector<Rep> &reps, const Oracle &oracle,
          const Golden *golden)
{
    Verdict v;
    for (const std::string &e : oracle.errors)
        v.check(false, e);
    std::map<std::string, const Cell *> first;
    for (std::size_t r = 0; r < reps.size(); ++r) {
        const Rep &rep = reps[r];
        if (rep.jobs)
            v.check(rep.poolError.empty(),
                    "rep " + std::to_string(r) + ": " + rep.poolError);
        for (const Cell &c : rep.cells) {
            const std::string where =
                "rep " + std::to_string(r) + " " + c.id() + ": ";
            std::string why = c.error;
            if (why.empty() && c.timing) {
                auto it = oracle.refInsts.find(c.program);
                if (it == oracle.refInsts.end() || it->second != c.retired)
                    why = "retired " + std::to_string(c.retired) +
                          " != FuncSim " +
                          (it == oracle.refInsts.end()
                               ? std::string("(none)")
                               : std::to_string(it->second));
            }
            if (why.empty() && c.profiled) {
                const std::string key = c.timing ? c.program : c.id();
                auto it = oracle.trainInsts.find(key);
                if (it == oracle.trainInsts.end() ||
                    it->second != c.trainInsts)
                    why = "train profile ran " +
                          std::to_string(c.trainInsts) +
                          " insts, FuncSim " +
                          (it == oracle.trainInsts.end()
                               ? std::string("(none)")
                               : std::to_string(it->second));
            }
            if (why.empty()) {
                auto [it, fresh] = first.emplace(c.id(), &c);
                if (!fresh) {
                    std::string d = diffFacts(it->second->facts, c.facts);
                    if (d.empty())
                        d = diffFacts(it->second->acct, c.acct);
                    if (!d.empty())
                        why = "differs from rep 0: " + d;
                }
            }
            if (why.empty() && golden) {
                const auto &section =
                    c.timing ? golden->cells : golden->images;
                auto it = section.find(c.id());
                if (it == section.end()) {
                    why = "no golden entry";
                } else {
                    why = diffFacts(it->second, c.facts);
                    if (why.empty() && !c.acct.empty()) {
                        auto at = golden->acct.find(c.id());
                        why = at == golden->acct.end()
                                  ? "no golden accounting entry"
                                  : diffFacts(at->second, c.acct);
                    }
                }
            }
            v.check(why.empty(), where + why);
        }
    }
    return v;
}

// ------------------------------------------------------------- metrics

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile (q in [0, 1]) of pooled samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

template <class F>
double
medianOver(const std::vector<const Rep *> &reps, F &&f)
{
    std::vector<double> v;
    for (const Rep *r : reps)
        v.push_back(f(*r));
    return median(v);
}

/**
 * Start a rep's peak-RSS window: hand freed heap back to the system and
 * reset the kernel's high-water mark. Without the trim, where one rep
 * left holes in the heap decided the next rep's peak, and serial_sim
 * read 46 or 53 MB depending on the seed.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS in MB since resetPeakRss (the process peak if the kernel
 *  cannot reset it). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/**
 * Corrected seconds a rep's steps of `kind` (0: every step) take at
 * their median: the sum over step positions of the median, across
 * `reps`, of that step's time. Every rep makes the same calls, so this
 * is one rep with each call at its median speed.
 */
double
stepMedians(const std::vector<const Rep *> &reps, unsigned kind)
{
    std::size_t n = 0;
    for (const Rep *r : reps)
        n = std::max(n, r->steps.size());
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> v;
        unsigned k = 0;
        for (const Rep *r : reps) {
            if (i < r->steps.size()) {
                v.push_back(r->stepSeconds(i));
                k = r->steps[i].kind;
            }
        }
        if (kind == 0 || (k & kind))
            sum += median(v);
    }
    return sum;
}

std::vector<Metric>
endToEnd(const std::vector<const Rep *> &reps)
{
    const double simInsts =
        medianOver(reps, [](const Rep &r) { return r.simInsts; });
    const double marked = medianOver(
        reps, [](const Rep &r) { return double(r.markedPrograms); });
    return {
        {"wall_s", stepMedians(reps, 0), "s"},
        {"setup_s", stepMedians(reps, kSetup), "s"},
        {"sim_kips", simInsts / 1000.0 / stepMedians(reps, kSim), "kips"},
        {"mark_programs_per_s", marked / stepMedians(reps, kMark), "1/s"},
        {"peak_rss_mb", medianOver(reps, [](const Rep &r) { return r.rssMb; }),
         "MB"},
    };
}

/**
 * Per-layer self times of traced rep `rep` (= all[rep]), corrected and
 * keyed by metric name. `repWall` is the rep's host time without its
 * probe samples, `covered` the host time module spans cover in it.
 */
std::map<std::string, double>
selfTimes(const std::vector<Rep> &all, int rep, double &repWall,
          double &covered)
{
    static const std::map<std::string, std::string> kSpanMetric = {
        {"buildWorkload", "workloads.build_s"},
        {"profileAndMark", "profile.mark_s"},
        {"transferMarks", "profile.transfer_s"},
        {"synthesizeMarks", "analysis.markgen_s"},
        {"preflightOrThrow", "analysis.lint_s"},
        {"analyzeProgram", "analysis.deep_lint_s"},
        {"compareMarkings", "analysis.compare_s"},
    };
    const auto &spans = tracer.spans;
    std::vector<double> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].rep != rep)
            continue;
        const double d = secondsBetween(spans[i].start, spans[i].end);
        self[i] += d;
        if (spans[i].parent >= 0)
            self[std::size_t(spans[i].parent)] -= d;
    }
    const SpeedLog &speed = all[std::size_t(rep)].speed;
    std::map<std::string, double> out;
    double probing = 0;
    repWall = 0;
    covered = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].rep != rep)
            continue;
        const std::string layer = spans[i].layer;
        if (spans[i].parent < 0)
            repWall = secondsBetween(spans[i].start, spans[i].end);
        if (spans[i].name == std::string("speedProbe"))
            probing += self[i];
        if (layer == "bench")
            continue;
        covered += self[i];
        auto it = kSpanMetric.find(spans[i].name);
        if (it != kSpanMetric.end())
            out[it->second] +=
                self[i] * speed.factor(spans[i].start, spans[i].end);
    }
    repWall -= probing;
    return out;
}

std::vector<Metric>
perLayer(const std::vector<const Rep *> &traced,
         const std::vector<const Rep *> &untraced,
         const std::vector<Rep> &all, const Oracle &oracle)
{
    std::vector<std::map<std::string, double>> self;
    std::vector<double> coverage;
    for (const Rep *r : traced) {
        double wall = 0;
        double covered = 0;
        self.push_back(selfTimes(all, int(r - all.data()), wall, covered));
        coverage.push_back(wall > 0 ? 100.0 * covered / wall : 0);
    }
    auto selfMedian = [&](const char *name) {
        std::vector<double> v;
        for (const auto &m : self) {
            auto it = m.find(name);
            v.push_back(it == m.end() ? 0 : it->second);
        }
        return median(v);
    };
    auto med = [&](auto &&f) { return medianOver(traced, f); };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };

    std::vector<Metric> m;
    m.push_back({"workloads.build_s", selfMedian("workloads.build_s"), "s"});
    m.push_back({"workloads.programs",
                 med([](const Rep &r) { return double(r.programsBuilt); }),
                 "count"});
    m.push_back({"isa.funcsim_kips",
                 ratio(double(oracle.insts) / 1000.0, oracle.seconds()),
                 "kips"});

    const double markS = selfMedian("profile.mark_s");
    const double trainInsts =
        med([](const Rep &r) { return double(r.trainInsts); });
    m.push_back({"profile.mark_s", markS, "s"});
    m.push_back({"profile.train_insts", trainInsts, "count"});
    m.push_back({"profile.train_kips", ratio(trainInsts / 1000.0, markS),
                 "kips"});
    m.push_back({"profile.transfer_s", selfMedian("profile.transfer_s"),
                 "s"});
    m.push_back({"profile.marked_diverge",
                 med([](const Rep &r) { return double(r.markedDiverge); }),
                 "count"});

    m.push_back({"analysis.markgen_s", selfMedian("analysis.markgen_s"),
                 "s"});
    m.push_back({"analysis.absint_iterations",
                 med([](const Rep &r) {
                     return double(r.absintIterations);
                 }),
                 "count"});
    m.push_back({"analysis.lint_s", selfMedian("analysis.lint_s"), "s"});
    m.push_back({"analysis.deep_lint_s",
                 selfMedian("analysis.deep_lint_s"), "s"});
    m.push_back({"analysis.compare_s", selfMedian("analysis.compare_s"),
                 "s"});
    m.push_back({"analysis.lint_errors",
                 med([](const Rep &r) { return double(r.lintErrors); }),
                 "count"});

    // Core: host seconds are SimResult::hostSeconds (the program's own
    // clock around Core::run), so pool-run cells count too; corrected by
    // the speed around the step that ran the cell.
    auto cellSum = [](const Rep &r, auto &&f) {
        double s = 0;
        for (const Cell &c : r.cells)
            if (c.timing)
                s += f(c);
        return s;
    };
    auto coreSum = [&](auto &&f) {
        return med([&](const Rep &r) { return cellSum(r, f); });
    };
    auto cellSeconds = [](const Cell &c) { return c.hostSeconds * c.speed; };
    const double runS = coreSum(cellSeconds);
    const double cycles =
        coreSum([](const Cell &c) { return double(c.cycles); });
    const double retired =
        coreSum([](const Cell &c) { return double(c.retired); });
    const double skipped =
        coreSum([](const Cell &c) { return double(c.skipped); });
    const double fetched =
        coreSum([](const Cell &c) { return double(c.fetched); });
    m.push_back({"core.run_s", runS, "s"});
    for (const ConfigDef &def : kConfigs) {
        const std::string cfg = def.name;
        m.push_back({"core.run_s." + cfg, coreSum([&](const Cell &c) {
                         return c.config == cfg ? cellSeconds(c) : 0.0;
                     }),
                     "s"});
    }
    m.push_back({"core.kips", ratio(retired / 1000.0, runS), "kips"});
    m.push_back({"core.ns_per_cycle", ratio(runS * 1e9, cycles), "ns"});
    m.push_back({"core.cycles", cycles, "count"});
    m.push_back({"core.cycles_skipped", skipped, "count"});
    m.push_back({"core.skip_ratio", ratio(skipped, cycles), "ratio"});
    m.push_back({"core.fetched_per_retired", ratio(fetched, retired),
                 "ratio"});
    m.push_back({"core.pipeline_flushes",
                 coreSum([](const Cell &c) { return double(c.flushes); }),
                 "count"});
    m.push_back({"core.dpred_entries", coreSum([](const Cell &c) {
                     return double(c.dpredEntries);
                 }),
                 "count"});
    std::vector<double> pooled;
    for (const Rep &r : all)
        for (const Cell &c : r.cells)
            if (c.timing)
                pooled.push_back(cellSeconds(c));
    m.push_back({"core.cell_s.p50", quantile(pooled, 0.5), "s"});
    m.push_back({"core.cell_s.p90", quantile(pooled, 0.9), "s"});

    m.push_back({"sim.jobs", med([](const Rep &r) { return double(r.jobs); }),
                 "count"});
    m.push_back({"sim.profile_runs", med([](const Rep &r) {
                     return double(r.pool.profileRuns);
                 }),
                 "count"});
    m.push_back({"sim.profile_hits", med([](const Rep &r) {
                     return double(r.pool.profileHits);
                 }),
                 "count"});
    m.push_back({"sim.marked_builds", med([](const Rep &r) {
                     return double(r.pool.markedProgramBuilds);
                 }),
                 "count"});
    m.push_back({"sim.sim_runs", med([](const Rep &r) {
                     return double(r.pool.simRuns);
                 }),
                 "count"});
    m.push_back({"sim.sim_hits", med([](const Rep &r) {
                     return double(r.pool.simHits);
                 }),
                 "count"});
    m.push_back({"sim.busy_s",
                 med([](const Rep &r) { return r.pool.simSeconds; }), "s"});
    m.push_back({"sim.pool_efficiency", med([&](const Rep &r) {
                     return ratio(r.phaseBBusy, r.jobs * r.phaseBWall);
                 }),
                 "ratio"});

    m.push_back({"trace.overhead_pct",
                 100.0 * (ratio(stepMedians(traced, 0),
                                stepMedians(untraced, 0)) -
                          1.0),
                 "%"});
    m.push_back({"trace.coverage_pct", median(coverage), "%"});
    return m;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (const Metric &m : ms) {
        if (out.size() > 1)
            out += ", ";
        out += quote(m.name) + ": {\"value\": " + num(m.value) +
               ", \"unit\": " + quote(m.unit) + "}";
    }
    return out + "}";
}

void
printMetrics(const char *title, const std::vector<Metric> &ms,
             std::size_t n)
{
    std::printf("%s (median of %zu reps unless noted):\n", title, n);
    for (const Metric &m : ms)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
}

/** Chrome trace-event JSON of every recorded span. */
void
writeTrace(const std::string &path, Clock::time_point origin)
{
    trace::TraceEventWriter w(path);
    w.threadName(1, "dmpbench");
    auto us = [&](Clock::time_point t) {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(t - origin)
                .count());
    };
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
        const Tracer::Span &s = tracer.spans[i];
        const std::string args = "{\"id\":" + std::to_string(i) +
                                 ",\"parent\":" + std::to_string(s.parent) +
                                 ",\"rep\":" + std::to_string(s.rep) +
                                 ",\"cell\":" + quote(s.cell) + "}";
        w.complete(1, us(s.start), us(s.end) - us(s.start), s.name,
                   s.layer, args);
    }
    w.close();
}

std::vector<std::string>
programList(bool smoke)
{
    if (smoke)
        return {"bzip2", "mcf"};
    std::vector<std::string> all;
    for (const auto &info : workloads::workloadList())
        all.push_back(info.name);
    return all;
}

Context
makeContext(const Options &o, const std::string &workload)
{
    Context ctx;
    ctx.programs = programList(o.smoke);
    ctx.seed = o.seed;
    ctx.iterations = o.smoke ? kSmokeIterations : kIterations;
    if (workload == "fig09_grid") {
        const unsigned hw = std::thread::hardware_concurrency();
        ctx.jobs = std::clamp(hw, 1u, 4u);
    }
    return ctx;
}

std::string
repsJson(const std::vector<Rep> &reps, bool traced)
{
    std::string out = "[";
    for (const Rep &r : reps) {
        if (r.traced != traced)
            continue;
        if (out.size() > 1)
            out += ", ";
        out += "{\"wall_s\": " + num(r.seconds(0)) + ", \"host_s\": " +
               num(r.wall) + ", \"probe_s\": " +
               num(median(r.speed.seconds())) + ", \"setup_s\": " +
               num(r.seconds(kSetup)) + ", \"sim_s\": " +
               num(r.seconds(kSim)) + ", \"mark_s\": " +
               num(r.seconds(kMark)) + ", \"rss_mb\": " + num(r.rssMb) +
               ", \"sim_insts\": " + num(r.simInsts) +
               ", \"marked_programs\": " + std::to_string(r.markedPrograms) +
               "}";
    }
    return out + "]";
}

int
runBenchmark(const Options &o)
{
    const Clock::time_point origin = Clock::now();
    const Context ctx = makeContext(o, o.workload);
    const bool traceRun = !o.tracePath.empty();
    // A run measures for about --seconds (a smoke run does the minimum);
    // a traced run alternates untraced and traced reps so both see the
    // same host conditions.
    const std::size_t minReps = o.smoke ? (traceRun ? 2 : 1)
                                        : (traceRun ? 4 : 3);

    // The probe's first runs fault its ring in and read slow.
    for (int i = 0; i < 3; ++i)
        speedProbe().run();

    std::vector<Rep> reps;
    double spent = 0;
    while (reps.size() < minReps ||
           (!o.smoke && spent + spent / double(reps.size()) <= o.seconds)) {
        const bool tracedRep = traceRun && reps.size() % 2 == 1;
        tracer.rep = tracedRep ? int(reps.size()) : -1;
        resetPeakRss();
        Rep r = runOnce(o.workload, ctx);
        r.rssMb = peakRssMb();
        tracer.rep = -1;
        r.traced = tracedRep;
        spent += r.wall;
        reps.push_back(std::move(r));
    }

    const Oracle oracle = runOracle(o.workload, ctx);
    Golden golden;
    std::string goldenError;
    const bool useGolden = o.seed == 0 && !o.smoke;
    if (useGolden && !loadGolden(o.goldenPath, golden, goldenError))
        golden = Golden{};
    Verdict v = checkReps(reps, oracle, useGolden ? &golden : nullptr);
    if (!goldenError.empty())
        v.check(false, goldenError);

    std::vector<const Rep *> untraced;
    std::vector<const Rep *> tracedReps;
    for (const Rep &r : reps)
        (r.traced ? tracedReps : untraced).push_back(&r);
    const std::vector<Metric> e2e = endToEnd(untraced);
    std::vector<Metric> layers;
    if (traceRun) {
        layers = perLayer(tracedReps, untraced, reps, oracle);
        writeTrace(o.tracePath, origin);
    }

    std::printf("dmpbench %s seed=%llu programs=%zu iterations=%llu "
                "jobs=%u reps=%zu untraced + %zu traced\n",
                o.workload.c_str(), (unsigned long long)o.seed,
                ctx.programs.size(), (unsigned long long)ctx.iterations,
                ctx.jobs, untraced.size(), tracedReps.size());
    printMetrics("end-to-end", e2e, untraced.size());
    if (traceRun)
        printMetrics("per-layer", layers, tracedReps.size());
    std::printf("checks: %llu attempted, %llu failed\n",
                (unsigned long long)v.attempted,
                (unsigned long long)v.failed);
    for (std::size_t i = 0; i < v.failures.size() && i < 20; ++i)
        std::fprintf(stderr, "dmpbench: FAILED %s\n",
                     v.failures[i].c_str());

    const bool correct = v.failed == 0;
    const std::string head = "\"correct\": " +
                             std::string(correct ? "true" : "false") +
                             ", \"attempted\": " +
                             std::to_string(v.attempted) +
                             ", \"failed\": " + std::to_string(v.failed);
    if (!o.outPath.empty()) {
        const Inputs in = inputsFor(o.seed, 0, ctx.iterations);
        std::ofstream out(o.outPath);
        out << "{\"schema\": 1, \"workload\": " << quote(o.workload)
            << ", \"seed\": " << o.seed
            << ", \"traced\": " << (traceRun ? "true" : "false")
            << ", \"smoke\": " << (o.smoke ? "true" : "false") << ", "
            << head << ", \"failures\": [";
        for (std::size_t i = 0; i < v.failures.size(); ++i)
            out << (i ? ", " : "") << quote(v.failures[i]);
        out << "], \"provenance\": {\"git_sha\": " << quote(o.gitSha)
            << ", \"git_dirty\": " << quote(o.gitDirty)
            << ", \"compiler\": " << quote(DMPBENCH_COMPILER)
            << ", \"cxx_flags\": " << quote(DMPBENCH_CXX_FLAGS)
            << ", \"build_type\": \"Release\", \"nproc\": "
            << std::thread::hardware_concurrency()
            << ", \"jobs\": " << ctx.jobs
            << ", \"programs\": " << ctx.programs.size()
            << ", \"iterations\": " << ctx.iterations
            << ", \"train_seed\": " << quote(hex(in.train.seed))
            << ", \"ref_seed\": " << quote(hex(in.ref.seed))
            << ", \"seconds\": " << num(o.seconds) << "}"
            << ", \"reps\": {\"untraced\": " << repsJson(reps, false)
            << ", \"traced\": " << repsJson(reps, true) << "}"
            << ", \"end_to_end\": " << metricsJson(e2e)
            << ", \"per_layer\": " << metricsJson(layers) << "}\n";
        if (!out)
            std::fprintf(stderr, "dmpbench: cannot write %s\n",
                         o.outPath.c_str());
    }
    std::printf("{%s, \"metrics\": %s}\n", head.c_str(),
                metricsJson(traceRun ? layers : e2e).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

/**
 * Run every workload once at seed 0 and write the golden file. Cells
 * shared between workloads (fig09_grid and serial_sim both run base and
 * mcfm_eexit_mdb; observed_sim's core counters must equal the
 * unobserved run's) must agree before anything is written.
 */
int
writeGolden(const Options &o)
{
    Golden g;
    std::vector<std::string> problems;
    for (const char *workload : kWorkloads) {
        Options wo = o;
        wo.workload = workload;
        wo.seed = 0;
        wo.smoke = false;
        const Context ctx = makeContext(wo, workload);
        std::vector<Rep> reps;
        reps.push_back(runOnce(workload, ctx));
        const Verdict v = checkReps(reps, runOracle(workload, ctx), nullptr);
        for (const std::string &f : v.failures)
            problems.push_back(std::string(workload) + " " + f);
        for (const Cell &c : reps.front().cells) {
            auto &section = c.timing ? g.cells : g.images;
            auto [it, fresh] = section.emplace(c.id(), c.facts);
            if (!fresh && !diffFacts(it->second, c.facts).empty())
                problems.push_back(std::string(workload) + " " + c.id() +
                                   " disagrees with another workload: " +
                                   diffFacts(it->second, c.facts));
            if (!c.acct.empty())
                g.acct[c.id()] = c.acct;
        }
        std::printf("golden: %s done (%zu cells)\n", workload,
                    reps.front().cells.size());
    }
    if (!problems.empty()) {
        for (const std::string &p : problems)
            std::fprintf(stderr, "dmpbench: %s\n", p.c_str());
        std::fprintf(stderr, "dmpbench: golden file not written\n");
        return 1;
    }
    std::ofstream out(o.goldenPath);
    out << "{\"schema\": 1, \"iterations\": " << kIterations;
    for (const auto &[name, section] :
         {std::pair{"cells", &g.cells}, std::pair{"acct", &g.acct},
          std::pair{"images", &g.images}}) {
        out << ",\n\"" << name << "\": {";
        bool firstEntry = true;
        for (const auto &[key, facts] : *section) {
            out << (firstEntry ? "\n" : ",\n") << quote(key) << ": "
                << factsJson(facts);
            firstEntry = false;
        }
        out << "\n}";
    }
    out << "}\n";
    if (!out) {
        std::fprintf(stderr, "dmpbench: cannot write %s\n",
                     o.goldenPath.c_str());
        return 1;
    }
    std::printf("golden: wrote %s\n", o.goldenPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseOptions(argc, argv);
        return o.writeGolden ? writeGolden(o) : runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dmpbench: %s\n", e.what());
        return 1;
    }
}
