/** @file Unit tests for the stats registry. */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace dmp
{
namespace
{

TEST(Stats, CounterArithmetic)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 7u);
}

TEST(Stats, GroupLookup)
{
    StatGroup g("test");
    Counter a, b;
    g.addStat("a", &a, "first");
    g.addStat("b", &b);
    a += 3;
    ++b;
    EXPECT_EQ(g.get("a"), 3u);
    EXPECT_EQ(g.get("b"), 1u);
    EXPECT_TRUE(g.has("a"));
    EXPECT_FALSE(g.has("c"));
}

TEST(Stats, NamesInRegistrationOrder)
{
    StatGroup g("test");
    Counter a, b, c;
    g.addStat("z", &a);
    g.addStat("y", &b);
    g.addStat("x", &c);
    auto names = g.names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "z");
    EXPECT_EQ(names[1], "y");
    EXPECT_EQ(names[2], "x");
}

TEST(Stats, DumpContainsGroupPrefix)
{
    StatGroup g("core");
    Counter a;
    g.addStat("cycles", &a, "simulated cycles");
    a += 42;
    std::string dump = g.dump();
    EXPECT_NE(dump.find("core.cycles 42"), std::string::npos);
    EXPECT_NE(dump.find("simulated cycles"), std::string::npos);
}

TEST(StatsDeath, DuplicateNamePanics)
{
    StatGroup g("g");
    Counter a, b;
    g.addStat("a", &a);
    EXPECT_DEATH(g.addStat("a", &b), "duplicate stat name");
}

TEST(StatsDeath, DuplicateNameAcrossKindsPanics)
{
    StatGroup g("g");
    Counter a;
    Distribution d;
    d.init(0, 10, 1);
    g.addStat("x", &a);
    EXPECT_DEATH(g.addDistribution("x", &d), "duplicate stat name");
    EXPECT_DEATH(g.addFormula("x", [] { return 0.0; }),
                 "duplicate stat name");
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

TEST(Formula, EvaluatesLazily)
{
    StatGroup g("g");
    Counter num, den;
    g.addStat("num", &num);
    g.addStat("den", &den);
    g.addFormula("ratio", [&] {
        return den.value() ? double(num.value()) / double(den.value())
                           : 0.0;
    });
    EXPECT_DOUBLE_EQ(g.formula("ratio"), 0.0);
    num += 6;
    den += 4;
    // No re-registration needed: the formula reads current counters.
    EXPECT_DOUBLE_EQ(g.formula("ratio"), 1.5);
}

TEST(Stats, GroupRegistersAllThreeKinds)
{
    StatGroup g("g");
    Counter c;
    Distribution d;
    d.init(0, 10, 1);
    g.addStat("c", &c);
    g.addDistribution("d", &d);
    g.addFormula("f", [] { return 2.5; });
    EXPECT_TRUE(g.has("c"));
    ASSERT_EQ(g.distributionNames().size(), 1u);
    EXPECT_EQ(g.distributionNames()[0], "d");
    ASSERT_EQ(g.formulaNames().size(), 1u);
    EXPECT_EQ(g.formulaNames()[0], "f");
    EXPECT_EQ(&g.distribution("d"), &d);
}

TEST(Stats, DumpIncludesDistributionsAndFormulas)
{
    StatGroup g("core");
    Distribution d;
    d.init(0, 15, 4);
    d.sample(5, 2);
    g.addDistribution("lat", &d, "latency");
    g.addFormula("pi", [] { return 3.25; }, "circle constant");
    std::string dump = g.dump();
    EXPECT_NE(dump.find("core.lat"), std::string::npos) << dump;
    EXPECT_NE(dump.find("core.pi 3.25"), std::string::npos) << dump;
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

TEST(Formula, NonFiniteValueIsClampedToZero)
{
    StatGroup g("g");
    Counter num, den; // both zero: naive num/den is 0/0 = NaN
    g.addStat("num", &num);
    g.addStat("den", &den);
    g.addFormula("nan_ratio", [&] {
        return double(num.value()) / double(den.value());
    });
    g.addFormula("inf_ratio",
                 [&] { return 1.0 / double(den.value()); });
    EXPECT_DOUBLE_EQ(g.formula("nan_ratio"), 0.0);
    EXPECT_DOUBLE_EQ(g.formula("inf_ratio"), 0.0);
    // A finite value passes through untouched once the counters move.
    num += 6;
    den += 4;
    EXPECT_DOUBLE_EQ(g.formula("nan_ratio"), 1.5);
    EXPECT_DOUBLE_EQ(g.formula("inf_ratio"), 0.25);
}

TEST(Formula, DefaultConstructedEvaluatesToZero)
{
    Formula f;
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
}

} // namespace
} // namespace dmp
