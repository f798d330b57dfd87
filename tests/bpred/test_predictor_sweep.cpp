/**
 * @file
 * Parameterized property sweeps over predictor geometries: every
 * configuration must learn a strongly biased stream and must never
 * crash or mispredict catastrophically on adversarial streams, and the
 * perceptron must match the scalar reference kernel step for step.
 */

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "bpred/perceptron.hh"
#include "bpred/table_predictors.hh"
#include "common/random.hh"
#include "scalar_perceptron.hh"

namespace dmp::bpred
{
namespace
{

double
biasedAccuracy(DirectionPredictor &p, unsigned seed)
{
    Random rng(seed);
    std::uint64_t ghr = 0;
    unsigned correct = 0, measured = 0;
    for (unsigned i = 0; i < 3000; ++i) {
        bool outcome = !rng.chancePercent(4);
        PredictionInfo info;
        bool guess = p.predict(0x1000 + (i % 7) * 4, ghr, info);
        if (i >= 500) {
            ++measured;
            correct += guess == outcome;
        }
        p.train(0x1000 + (i % 7) * 4, outcome, info);
        ghr = (ghr << 1) | outcome;
    }
    return double(correct) / measured;
}

class PerceptronGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(PerceptronGeometry, LearnsBiasAtAnyGeometry)
{
    auto [entries, history] = GetParam();
    PerceptronPredictor::Params params;
    params.numEntries = entries;
    params.history = history;
    PerceptronPredictor p(params);
    EXPECT_EQ(p.historyBits(), history);
    EXPECT_GT(biasedAccuracy(p, entries + history), 0.90);
}

/** PerceptronPredictor and the scalar reference, fed the same steps. */
struct Lockstep
{
    PerceptronPredictor fast;
    test::ScalarPerceptron ref;
    unsigned numEntries;
    unsigned history;

    Lockstep(unsigned entries, unsigned hist)
        : fast(PerceptronPredictor::Params{entries, hist}),
          ref(entries, hist), numEntries(entries), history(hist)
    {
    }

    /** Predict and train both; false at the first disagreement. */
    bool
    step(Addr pc, std::uint64_t ghr, bool taken)
    {
        PredictionInfo a, b;
        bool pa = fast.predict(pc, ghr, a);
        bool pb = ref.predict(pc, ghr, b);
        EXPECT_EQ(pa, pb);
        EXPECT_EQ(a.aux, b.aux);
        EXPECT_EQ(a.index, b.index);
        fast.train(pc, taken, a);
        ref.train(taken, b);
        return pa == pb && a.aux == b.aux && a.index == b.index;
    }

    /**
     * Recover every weight of the fast table from predictions alone
     * and compare it with the reference: with y(g) the output for
     * history g, the bias is (y(0) + y(~0)) / 2 and lane i's weight is
     * (y(1 << i) - y(0)) / 2. Lanes at or above the history length
     * must read 0.
     */
    void
    expectSameWeights()
    {
        for (std::uint32_t e = 0; e < numEntries; ++e) {
            const Addr pc = Addr(e) * 4;
            PredictionInfo info;
            fast.predict(pc, 0, info);
            const std::int32_t y0 = info.aux;
            fast.predict(pc, ~std::uint64_t(0), info);
            ASSERT_EQ((y0 + info.aux) / 2, ref.weight(e, 0))
                << "bias of entry " << e;
            for (unsigned i = 0; i < PerceptronPredictor::lanes; ++i) {
                fast.predict(pc, std::uint64_t(1) << i, info);
                const int expect = i < history ? ref.weight(e, i + 1) : 0;
                ASSERT_EQ((info.aux - y0) / 2, expect)
                    << "entry " << e << " lane " << i;
            }
        }
    }

    /** Lowest and highest reference weight, bias included. */
    std::pair<int, int>
    weightRange() const
    {
        int lo = 0, hi = 0;
        for (std::uint32_t e = 0; e < numEntries; ++e) {
            for (unsigned i = 0; i < ref.rowWeights(); ++i) {
                lo = std::min(lo, ref.weight(e, i));
                hi = std::max(hi, ref.weight(e, i));
            }
        }
        return {lo, hi};
    }
};

TEST_P(PerceptronGeometry, MatchesScalarKernel)
{
    auto [entries, history] = GetParam();
    Lockstep ls(entries, history);
    Random rng(entries * 131 + history);
    constexpr unsigned kSteps = 40000;

    // Each stream runs on the table the previous one left, so weights
    // also leave saturation. Every stream but Uniform uses four
    // branches, so each of their entries sees ~10k steps: enough to
    // reach the range ends where the training rule allows it.
    enum Stream { Uniform, Taken, NotTaken, Follows, Opposes, Shift };
    int lo = 0, hi = 0;
    for (Stream stream : {Uniform, Taken, NotTaken, Follows, Opposes,
                          Shift}) {
        std::uint64_t ghr = 0;
        for (unsigned i = 0; i < kSteps; ++i) {
            Addr pc = 0x1000 + 4 * rng.below(stream == Uniform ? 64 : 4);
            unsigned lane = unsigned(pc >> 2) % history;
            bool taken = false;
            switch (stream) {
            case Uniform:
                ghr = rng.next();
                taken = rng.chancePercent(50);
                break;
            case Taken:
            case NotTaken:
                ghr = rng.next();
                taken = stream == Taken;
                break;
            case Follows:
            case Opposes:
                // The outcome is one history bit (or its inverse); the
                // other bits are noise.
                ghr = rng.next();
                taken = ((ghr >> lane) & 1) == (stream == Follows);
                break;
            case Shift:
                // A real global history: per-branch bias plus noise.
                taken = (pc & 4) ? !rng.chancePercent(10)
                                 : rng.chancePercent(30);
                break;
            }
            ASSERT_TRUE(ls.step(pc, ghr, taken))
                << "stream " << int(stream) << " step " << i;
            if (stream == Shift)
                ghr = (ghr << 1) | (taken ? 1 : 0);
        }
        ASSERT_NO_FATAL_FAILURE(ls.expectSameWeights())
            << "after stream " << int(stream);
        auto [l, h] = ls.weightRange();
        lo = std::min(lo, l);
        hi = std::max(hi, h);
    }

    // The Jimenez-Lin rule stops training a correct prediction once
    // |y| > theta, so a weight can be driven to the ends of the 8-bit
    // range only where theta = int(1.93 h + 14) reaches 127 (h >= 59).
    // There both ends must have been hit; elsewhere the streams stay
    // inside the range and only the arithmetic is compared.
    if (ls.fast.theta() >= 127) {
        EXPECT_EQ(hi, 127);
        EXPECT_EQ(lo, -128);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PerceptronGeometry,
    ::testing::Values(std::pair<unsigned, unsigned>{61, 8},
                      std::pair<unsigned, unsigned>{251, 16},
                      std::pair<unsigned, unsigned>{1021, 59},
                      std::pair<unsigned, unsigned>{1021, 64},
                      std::pair<unsigned, unsigned>{127, 1}),
    [](const auto &info) {
        std::string name = "e";
        name += std::to_string(info.param.first);
        name += "h";
        name += std::to_string(info.param.second);
        return name;
    });

class GshareGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(GshareGeometry, LearnsBiasAtAnyGeometry)
{
    auto [log2e, hist] = GetParam();
    GsharePredictor p(log2e, hist);
    EXPECT_GT(biasedAccuracy(p, log2e * 31 + hist), 0.90);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GshareGeometry,
    ::testing::Values(std::pair<unsigned, unsigned>{8, 4},
                      std::pair<unsigned, unsigned>{12, 12},
                      std::pair<unsigned, unsigned>{16, 16},
                      std::pair<unsigned, unsigned>{10, 0}),
    [](const auto &info) {
        std::string name = "l";
        name += std::to_string(info.param.first);
        name += "h";
        name += std::to_string(info.param.second);
        return name;
    });

TEST(PredictorStress, AdversarialStreamsDoNotCorruptState)
{
    // Feed conflicting outcomes at aliasing addresses; predictors must
    // stay within sane accuracy bounds (no crash, no NaN-like states).
    PerceptronPredictor pc;
    GsharePredictor gs;
    HybridPredictor hy;
    BimodalPredictor bi;
    DirectionPredictor *all[] = {&pc, &gs, &hy, &bi};
    Random rng(99);
    std::uint64_t ghr = 0;
    for (unsigned i = 0; i < 20000; ++i) {
        Addr pc_addr = (rng.next() & 0xfffc) | 0x10000;
        bool outcome = rng.chancePercent(50);
        for (DirectionPredictor *p : all) {
            PredictionInfo info;
            p->predict(pc_addr, ghr, info);
            p->train(pc_addr, outcome, info);
        }
        ghr = (ghr << 1) | outcome;
    }
    // After the noise, each must still learn a clean branch.
    for (DirectionPredictor *p : all) {
        std::uint64_t g = 0;
        unsigned correct = 0;
        for (unsigned i = 0; i < 200; ++i) {
            PredictionInfo info;
            bool guess = p->predict(0x2000, g, info);
            if (i >= 64)
                correct += guess;
            p->train(0x2000, true, info);
            g = (g << 1) | 1;
        }
        EXPECT_GT(correct, 120u);
    }
}

} // namespace
} // namespace dmp::bpred
