/** @file Unit tests for the stat kinds, the visitor and the text dump. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/core.hh"

namespace dmp
{
namespace
{

/** One stat of each kind, the smallest forEachStat struct. */
struct TinyStats
{
    Counter cycles;
    Counter idle;
    Distribution lat;

    TinyStats() { lat.init(0, 15, 4); }

    template <class F>
    void
    forEachStat(F &&f) const
    {
        f("cycles", cycles, "simulated cycles");
        f("idle", idle, "");
        f("lat", lat, "latency");
        f("pi", 3.25, "circle constant");
    }
};

TEST(Stats, CounterArithmetic)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 7u);
}

TEST(Stats, NamesInRegistrationOrder)
{
    // The core lists every counter, then every distribution, then every
    // derived value: the order its dump prints them in.
    core::CoreStats st;
    std::vector<std::string> names;
    std::vector<int> kinds;
    st.forEachStat(Overloaded{
        [&](std::string_view n, const Counter &, std::string_view) {
            names.emplace_back(n);
            kinds.push_back(0);
        },
        [&](std::string_view n, const Distribution &, std::string_view) {
            names.emplace_back(n);
            kinds.push_back(1);
        },
        [&](std::string_view n, double, std::string_view) {
            names.emplace_back(n);
            kinds.push_back(2);
        }});
    ASSERT_FALSE(names.empty());
    EXPECT_EQ(names.front(), "cycles");
    EXPECT_EQ(names.back(), "exec_overhead");
    EXPECT_TRUE(std::is_sorted(kinds.begin(), kinds.end()));
}

TEST(Stats, DumpContainsGroupPrefix)
{
    TinyStats s;
    s.cycles += 42;
    std::string dump = dumpStats("core", s);
    EXPECT_NE(dump.find("core.cycles 42"), std::string::npos);
    EXPECT_NE(dump.find("simulated cycles"), std::string::npos);
}

TEST(Distribution, BucketsAndRange)
{
    Distribution d;
    d.init(0, 15, 4); // buckets [0-3] [4-7] [8-11] [12-15]
    d.sample(0);
    d.sample(3);
    d.sample(4);
    d.sample(12, 2);
    const DistSnapshot &s = d.snapshot();
    ASSERT_EQ(s.buckets.size(), 4u);
    EXPECT_EQ(s.buckets[0], 2u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[2], 0u);
    EXPECT_EQ(s.buckets[3], 2u);
    EXPECT_EQ(s.samples, 5u);
    EXPECT_EQ(s.sum, 0u + 3 + 4 + 12 + 12);
    EXPECT_EQ(s.minVal, 0u);
    EXPECT_EQ(s.maxVal, 12u);
    EXPECT_DOUBLE_EQ(s.mean(), 31.0 / 5.0);
}

TEST(Distribution, UnderflowAndOverflow)
{
    Distribution d;
    d.init(10, 19, 5);
    d.sample(5);   // under
    d.sample(10);  // in range
    d.sample(25);  // over
    d.sample(100); // over
    const DistSnapshot &s = d.snapshot();
    EXPECT_EQ(s.underflow, 1u);
    EXPECT_EQ(s.overflow, 2u);
    EXPECT_EQ(s.samples, 4u);
    EXPECT_EQ(s.sum, 5u + 10 + 25 + 100);
    EXPECT_EQ(s.minVal, 5u);
    EXPECT_EQ(s.maxVal, 100u);
}

TEST(Stats, DumpIncludesDistributionsAndFormulas)
{
    TinyStats s;
    s.cycles += 42;
    s.lat.sample(5, 2);
    s.lat.sample(14);
    s.lat.sample(20);
    EXPECT_EQ(dumpStats("core", s),
              "core.cycles 42  # simulated cycles\n"
              "core.idle 0\n"
              "core.lat samples=4 mean=11 min=5 max=20 underflow=0 "
              "overflow=1  # latency\n"
              "core.lat::4-7 2\n"
              "core.lat::12-15 1\n"
              "core.pi 3.25  # circle constant\n");
}

TEST(Distribution, NonPowerOfTwoBucketWidth)
{
    Distribution d;
    d.init(0, 20, 3); // 7 buckets: [0-2] [3-5] ... [18-20], width 3
    d.sample(0);
    d.sample(2);  // still bucket 0
    d.sample(3);  // first of bucket 1
    d.sample(17); // last of bucket 5
    d.sample(18); // first of bucket 6
    d.sample(20); // last in-range value
    d.sample(21); // overflow
    const DistSnapshot &s = d.snapshot();
    ASSERT_EQ(s.buckets.size(), 7u);
    EXPECT_EQ(s.buckets[0], 2u);
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[5], 1u);
    EXPECT_EQ(s.buckets[6], 2u);
    EXPECT_EQ(s.overflow, 1u);
    EXPECT_EQ(s.samples, 7u);
}

TEST(Distribution, NonPowerOfTwoOffsetRange)
{
    Distribution d;
    d.init(5, 14, 5); // buckets [5-9] [10-14]
    d.sample(5);
    d.sample(9);
    d.sample(10);
    d.sample(14);
    d.sample(4); // underflow
    const DistSnapshot &s = d.snapshot();
    ASSERT_EQ(s.buckets.size(), 2u);
    EXPECT_EQ(s.buckets[0], 2u);
    EXPECT_EQ(s.buckets[1], 2u);
    EXPECT_EQ(s.underflow, 1u);
}

} // namespace
} // namespace dmp
