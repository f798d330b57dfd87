/**
 * @file
 * Reference perceptron kernel for the equivalence test: the scalar
 * `int16_t` implementation that PerceptronPredictor replaced, kept
 * verbatim in behaviour (one row of history + 1 weights per entry,
 * weight 0 the bias, a per-lane loop with 8-bit clamping on train).
 * It adds weight() so a test can see how far a stream drove the table.
 */

#ifndef DMP_TESTS_BPRED_SCALAR_PERCEPTRON_HH
#define DMP_TESTS_BPRED_SCALAR_PERCEPTRON_HH

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "bpred/predictor.hh"

namespace dmp::bpred::test
{

class ScalarPerceptron
{
  public:
    ScalarPerceptron(unsigned num_entries, unsigned history_bits)
        : numEntries(num_entries), history(history_bits),
          trainTheta(int(1.93 * history_bits + 14)),
          weights(std::size_t(num_entries) * (history_bits + 1), 0)
    {
    }

    bool
    predict(Addr pc, std::uint64_t ghr, PredictionInfo &info) const
    {
        std::uint32_t index = std::uint32_t((pc >> 2) % numEntries);
        const std::int16_t *w = row(index);
        std::int32_t y = w[0];
        for (unsigned i = 0; i < history; ++i) {
            std::int32_t m = std::int32_t((ghr >> i) & 1) - 1;
            y += (std::int32_t(w[i + 1]) ^ m) - m;
        }
        info.ghr = ghr;
        info.index = index;
        info.aux = y;
        info.predTaken = y >= 0;
        return info.predTaken;
    }

    void
    train(bool taken, const PredictionInfo &info)
    {
        bool mispredicted = info.predTaken != taken;
        if (!mispredicted && std::abs(info.aux) > trainTheta)
            return;
        std::int16_t *w = row(info.index);
        auto bump = [](std::int16_t &weight, bool agree) {
            int v = weight + (agree ? 1 : -1);
            if (v > 127)
                v = 127;
            if (v < -128)
                v = -128;
            weight = std::int16_t(v);
        };
        bump(w[0], taken);
        for (unsigned i = 0; i < history; ++i) {
            bool h = (info.ghr >> i) & 1;
            bump(w[i + 1], h == taken);
        }
    }

    /** Weight @p lane of @p entry: 0 is the bias, i + 1 history bit i. */
    int
    weight(std::uint32_t entry, unsigned lane) const
    {
        return row(entry)[lane];
    }

    unsigned rowWeights() const { return history + 1; }

  private:
    const std::int16_t *
    row(std::uint32_t index) const
    {
        return &weights[std::size_t(index) * (history + 1)];
    }
    std::int16_t *
    row(std::uint32_t index)
    {
        return &weights[std::size_t(index) * (history + 1)];
    }

    unsigned numEntries;
    unsigned history;
    int trainTheta;
    std::vector<std::int16_t> weights;
};

} // namespace dmp::bpred::test

#endif // DMP_TESTS_BPRED_SCALAR_PERCEPTRON_HH
