/**
 * @file
 * Statistics as plain data.
 *
 * A component's stats are a plain struct of two stat kinds:
 *
 *  - Counter: a single monotonically updated value.
 *  - Distribution: a bucketed histogram (episode lengths, flush depths,
 *    fetch-to-retire latencies, ...) with mean and under/overflow.
 *
 * Each such struct lists its stats through one member template,
 *
 *     template <class F> void forEachStat(F &&f) const;
 *
 * which calls `f(name, stat, desc)` once per stat: the counters, then
 * the distributions, then any derived values (a double such as IPC,
 * computed from the counters at the call). The names are the keys of a
 * stats record (sim::simResultJson) and of the text dump (dumpStats);
 * an empty desc prints none.
 */

#ifndef DMP_COMMON_STATS_HH
#define DMP_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <string_view>
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
 * Combine lambdas into one visitor, one overload per stat kind:
 * `s.forEachStat(Overloaded{[&](std::string_view n, const Counter &c,
 * std::string_view) {...}, ...})`.
 */
template <class... Fs>
struct Overloaded : Fs...
{
    using Fs::operator()...;
};

/** Append the dump line(s) of one stat to `out` (see dumpStats). */
void dumpStat(std::string &out, std::string_view group,
              std::string_view name, const Counter &c,
              std::string_view desc);
void dumpStat(std::string &out, std::string_view group,
              std::string_view name, const Distribution &d,
              std::string_view desc);
void dumpStat(std::string &out, std::string_view group,
              std::string_view name, double value, std::string_view desc);

/**
 * Render a stats struct as "group.name value  # desc" lines, in visit
 * order. A distribution's line shows samples/mean/min/max/under/overflow
 * and is followed by one "group.name::lo-hi count" line per non-empty
 * bucket.
 */
template <class S>
std::string
dumpStats(std::string_view group, const S &stats)
{
    std::string out;
    stats.forEachStat([&](std::string_view name, const auto &stat,
                          std::string_view desc) {
        dumpStat(out, group, name, stat, desc);
    });
    return out;
}

/**
 * Write a DistSnapshot as one JSON object (the value of a stats
 * record's "distributions" member); the mean always has 6 digits.
 */
void distSnapshotJson(json::Writer &w, const DistSnapshot &s);

} // namespace dmp

#endif // DMP_COMMON_STATS_HH
