/** @file Unit tests for the JRS confidence estimator. */

#include <gtest/gtest.h>

#include "bpred/confidence.hh"

namespace dmp::bpred
{
namespace
{

TEST(Jrs, WarmStartIsConfident)
{
    JrsConfidenceEstimator jrs;
    std::uint32_t idx;
    EXPECT_TRUE(jrs.highConfidence(0x1000, 0, idx));
}

TEST(Jrs, MispredictionResetsToLowConfidence)
{
    JrsConfidenceEstimator jrs;
    std::uint32_t idx;
    jrs.highConfidence(0x1000, 0, idx);
    jrs.update(idx, /*mispredicted=*/true);
    EXPECT_FALSE(jrs.highConfidence(0x1000, 0, idx));
}

TEST(Jrs, ConfidenceReEarnedAfterCorrectStreak)
{
    JrsConfidenceEstimator::Params p;
    p.threshold = 4;
    p.initialValue = 4;
    JrsConfidenceEstimator jrs(p);
    std::uint32_t idx;
    jrs.highConfidence(0x1000, 0, idx);
    jrs.update(idx, true);
    for (int i = 0; i < 3; ++i) {
        EXPECT_FALSE(jrs.highConfidence(0x1000, 0, idx));
        jrs.update(idx, false);
    }
    EXPECT_FALSE(jrs.highConfidence(0x1000, 0, idx));
    jrs.update(idx, false);
    EXPECT_TRUE(jrs.highConfidence(0x1000, 0, idx));
}

TEST(Jrs, HistorySelectsDifferentEntries)
{
    JrsConfidenceEstimator jrs;
    std::uint32_t idx_a, idx_b;
    jrs.highConfidence(0x1000, 0b0000, idx_a);
    jrs.highConfidence(0x1000, 0b0101, idx_b);
    EXPECT_NE(idx_a, idx_b);
    // Resetting one context leaves the other confident.
    jrs.update(idx_a, true);
    std::uint32_t idx;
    EXPECT_FALSE(jrs.highConfidence(0x1000, 0b0000, idx));
    EXPECT_TRUE(jrs.highConfidence(0x1000, 0b0101, idx));
}

TEST(Jrs, CounterSaturates)
{
    JrsConfidenceEstimator jrs;
    std::uint32_t idx;
    jrs.highConfidence(0x1000, 0, idx);
    for (int i = 0; i < 100; ++i)
        jrs.update(idx, false);
    EXPECT_TRUE(jrs.highConfidence(0x1000, 0, idx));
    jrs.update(idx, true);
    EXPECT_FALSE(jrs.highConfidence(0x1000, 0, idx));
}

} // namespace
} // namespace dmp::bpred
