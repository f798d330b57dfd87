/**
 * @file
 * Branch-confidence estimation.
 *
 * The diverge-merge processor enters dynamic-predication mode only for
 * *low-confidence* diverge branches. The baseline estimator is the JRS
 * resetting-counter design (Jacobsen, Rotenberg & Smith, MICRO 1996),
 * sized as in Table 2: "1KB (12-bit history) JRS estimator". The
 * paper's -perf-conf configurations need no estimator: the core reads
 * the oracle's verdict directly at fetch.
 */

#ifndef DMP_BPRED_CONFIDENCE_HH
#define DMP_BPRED_CONFIDENCE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/sat_counter.hh"
#include "common/types.hh"

namespace dmp::bpred
{

/**
 * JRS "both strong" resetting counter estimator: a table of saturating
 * miss-distance counters indexed by PC XOR 12 bits of global history;
 * correct predictions increment, mispredictions reset to zero; a
 * prediction is high-confidence when the counter is above a threshold.
 */
class JrsConfidenceEstimator
{
  public:
    struct Params
    {
        /** 1KB at 4 bits/counter -> 2048 entries (11-bit index). */
        unsigned log2Entries = 11;
        unsigned counterBits = 4;
        /**
         * History bits XORed into the index. The paper uses 12; at this
         * reproduction's run lengths (hundreds of K instructions rather
         * than hundreds of M) that spreads each static branch over so
         * many entries that a reset entry is rarely revisited often
         * enough to re-earn confidence, leaving *predictable* branches
         * permanently low-confidence. Four bits keeps the
         * history-sensitivity of the design at a per-branch working set
         * the short runs can actually train.
         */
        unsigned historyBits = 4;
        /** Counter value at or above which the prediction is trusted. */
        unsigned threshold = 7;
        /**
         * Initial counter value. Defaults to the threshold (warm
         * start): the paper's runs are long enough (hundreds of
         * millions of instructions) to warm the estimator, while this
         * reproduction's runs are not. A warm start models the steady
         * state — entries drop to zero on the first misprediction and
         * must re-earn confidence, exactly as in steady-state JRS.
         */
        unsigned initialValue = 7;
    };

    JrsConfidenceEstimator();
    explicit JrsConfidenceEstimator(const Params &params);

    /**
     * Estimate at fetch time. @return true when the prediction is HIGH
     * confidence (the machine should trust the branch predictor).
     * @param index_out context handed back to update().
     */
    bool
    highConfidence(Addr pc, std::uint64_t ghr, std::uint32_t &index_out)
    {
        std::uint64_t hist = ghr & ((1ULL << p.historyBits) - 1);
        std::uint32_t index =
            (std::uint32_t(pc >> 2) ^ std::uint32_t(hist)) & mask;
        index_out = index;
        return table[index].value() >= p.threshold;
    }

    /** Train with the resolved outcome (at retirement). */
    void
    update(std::uint32_t index, bool mispredicted)
    {
        dmp_assert(index < table.size(), "JRS index out of range");
        if (mispredicted)
            table[index].set(0);
        else
            table[index].increment();
    }

  private:
    Params p;
    std::uint32_t mask;
    std::vector<SatCounter> table;
};

} // namespace dmp::bpred

#endif // DMP_BPRED_CONFIDENCE_HH
