/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Each simulator component owns stats registered in a StatGroup;
 * experiment harnesses read them by name to build the paper's tables.
 * Three stat kinds exist:
 *
 *  - Counter: a single monotonically updated value.
 *  - Distribution: a bucketed histogram (episode lengths, flush depths,
 *    fetch-to-retire latencies, ...) with mean and under/overflow.
 *  - Formula: a derived value (IPC, flush rate, ...) evaluated lazily
 *    at dump/export time, so it always reflects the current counters.
 *
 * The registry is plain data: no global state, no macros. A StatGroup
 * renders as a human-readable dump; the JSON export is the stats
 * record of a finished run (sim::simResultJson).
 */

#ifndef DMP_COMMON_STATS_HH
#define DMP_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace dmp
{

/** A single monotonically updated statistic value. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++val; }
    void operator++(int) { ++val; }
    void operator+=(std::uint64_t d) { val += d; }

    std::uint64_t value() const { return val; }

  private:
    std::uint64_t val = 0;
};

/** Copyable point-in-time view of a Distribution (SimResult export). */
struct DistSnapshot
{
    std::uint64_t min = 0;        ///< lowest in-range value
    std::uint64_t max = 0;        ///< highest in-range value
    std::uint64_t bucketSize = 1; ///< values per bucket
    std::vector<std::uint64_t> buckets;
    std::uint64_t underflow = 0; ///< samples below min
    std::uint64_t overflow = 0;  ///< samples above max
    std::uint64_t samples = 0;   ///< total samples (incl. under/overflow)
    std::uint64_t sum = 0;       ///< sum of all sampled values
    std::uint64_t minVal = 0;    ///< smallest sampled value
    std::uint64_t maxVal = 0;    ///< largest sampled value

    double mean() const { return samples ? double(sum) / double(samples) : 0.0; }
};

/**
 * A bucketed histogram over [min, max] with fixed-width buckets.
 * Samples outside the range land in dedicated under/overflow buckets,
 * so the sample count and sum are exact regardless of the geometry.
 */
class Distribution
{
  public:
    Distribution() = default;

    /**
     * Define the histogram geometry (may be called once, before any
     * sample): buckets of `bucket_size` covering [min_v, max_v].
     */
    void init(std::uint64_t min_v, std::uint64_t max_v,
              std::uint64_t bucket_size);

    /**
     * Record `value`, `count` times. Inlined: this runs once per
     * retired instruction in the hot simulation loop, and the common
     * power-of-two bucket sizes index with a shift instead of a divide.
     */
    void
    sample(std::uint64_t value, std::uint64_t count = 1)
    {
        dmp_assert(!snap.buckets.empty(),
                   "sampling an un-init()ed distribution");
        if (snap.samples == 0) {
            snap.minVal = value;
            snap.maxVal = value;
        } else if (value < snap.minVal) {
            snap.minVal = value;
        } else if (value > snap.maxVal) {
            snap.maxVal = value;
        }
        snap.samples += count;
        snap.sum += value * count;
        if (value < snap.min) {
            snap.underflow += count;
        } else if (value > snap.max) {
            snap.overflow += count;
        } else {
            std::uint64_t off = value - snap.min;
            std::size_t b = bucketShift >= 0
                ? std::size_t(off >> bucketShift)
                : std::size_t(off / snap.bucketSize);
            snap.buckets[b] += count;
        }
    }

    std::uint64_t samples() const { return snap.samples; }
    std::uint64_t sum() const { return snap.sum; }
    double mean() const { return snap.mean(); }

    /** Copyable view of the current state. */
    const DistSnapshot &snapshot() const { return snap; }

  private:
    DistSnapshot snap;
    /** log2(bucketSize) when it is a power of two, else -1 (divide). */
    int bucketShift = -1;
};

/**
 * A named derived statistic: a function over other stats, evaluated at
 * read time so it always reflects the current counter values.
 */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn_) : fn(std::move(fn_)) {}

    /**
     * Evaluated result. A non-finite value (a zero or absent
     * denominator counter, typically from an empty or truncated run)
     * is flattened to 0 with a dmp_warn_once instead of leaking
     * NaN/Inf into dumps and JSON exports.
     */
    double value() const;

    bool valid() const { return bool(fn); }

  private:
    std::function<double()> fn;
};

/**
 * A flat group of named stats. Components register their stats at
 * construction; harnesses dump or query them after a run. Counter,
 * Distribution, and Formula names share one namespace.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name_) : groupName(std::move(name_))
    {
        // A core registers a few dozen counters; avoid rehashing and
        // keep name->entry lookups O(1) on the per-counter read path.
        index.reserve(64);
    }

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter under this group. The counter must outlive us. */
    void addStat(const std::string &name, Counter *c, std::string desc = "");

    /** Register a distribution (must be init()ed and outlive us). */
    void addDistribution(const std::string &name, Distribution *d,
                         std::string desc = "");

    /** Register a derived stat evaluated at read time. */
    void addFormula(const std::string &name, std::function<double()> fn,
                    std::string desc = "");

    /** Value of a registered counter; fatal if the name is unknown. */
    std::uint64_t get(const std::string &name) const;

    /** Registered distribution; fatal if the name is unknown. */
    const Distribution &distribution(const std::string &name) const;

    /** Current value of a registered formula; fatal if unknown. */
    double formula(const std::string &name) const;

    /** True when a counter with the given name is registered. */
    bool has(const std::string &name) const;

    /** All registered counter names, in registration order. */
    std::vector<std::string> names() const;

    /** All registered distribution names, in registration order. */
    std::vector<std::string> distributionNames() const;

    /** All registered formula names, in registration order. */
    std::vector<std::string> formulaNames() const;

    /**
     * Render "group.name value # desc" lines: counters first, then
     * distributions (samples/mean/under/overflow + buckets), then
     * formulas evaluated now.
     */
    std::string dump() const;

    const std::string &name() const { return groupName; }

  private:
    struct Entry
    {
        std::string name;
        Counter *counter;
        std::string desc;
    };
    struct DistEntry
    {
        std::string name;
        Distribution *dist;
        std::string desc;
    };
    struct FormulaEntry
    {
        std::string name;
        Formula formula;
        std::string desc;
    };

    void claimName(const std::string &name);

    std::string groupName;
    std::vector<Entry> entries;
    std::vector<DistEntry> distEntries;
    std::vector<FormulaEntry> formulaEntries;
    std::unordered_map<std::string, std::size_t> index;
    std::unordered_map<std::string, std::size_t> distIndex;
    std::unordered_map<std::string, std::size_t> formulaIndex;
};

/**
 * Write a DistSnapshot as one JSON object (the value of a stats
 * record's "distributions" member); the mean always has 6 digits.
 */
void distSnapshotJson(json::Writer &w, const DistSnapshot &s);

} // namespace dmp

#endif // DMP_COMMON_STATS_HH
