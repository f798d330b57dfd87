/**
 * @file
 * Perceptron branch predictor (Jimenez & Lin, HPCA 2001).
 *
 * The paper's baseline front-end uses a "64KB (59-bit history, 1021-entry)
 * perceptron branch predictor" (Table 2); this implementation matches that
 * geometry by default.
 *
 * Layout: each entry is one 64-byte row of `int8_t` weights, lane i
 * weighting history bit i, plus a separate `int8_t` bias. The paper's
 * 8-bit weight range [-128, 127] is exactly int8 saturation. Lanes at or
 * above `history` start at 0 and are never trained, so they add nothing
 * to the dot product and one 64-lane loop serves every history length
 * from 1 to 64. The default table is 1021 * (64 + 1) bytes = 65 KB; the
 * scalar layout of history + 1 `int16_t` weights per entry that
 * tests/bpred/scalar_perceptron.hh keeps as the reference takes 122 KB.
 *
 * predict() expands the history word into 64 byte masks through a
 * 256-entry byte-to-8-lanes table and sums the sign-selected weights in
 * 16 bits (|sum| <= 64 * 128, and -(-128) = 128 does not fit in int8).
 * train() adds +1 or -1 to every live lane, holding a lane that is
 * already at the end of the range it steps toward. Both are
 * fixed-trip loops over 64 lanes, so the compiler vectorizes them at
 * -O3 for whatever ISA the build targets.
 *
 * The class is `final` with predict/train defined inline: the core
 * caches a concrete PerceptronPredictor pointer next to the abstract
 * DirectionPredictor handle, so the default-configuration hot path
 * (one predict per fetched conditional branch, one train per retired
 * one) compiles to direct, inlinable calls instead of virtual dispatch.
 */

#ifndef DMP_BPRED_PERCEPTRON_HH
#define DMP_BPRED_PERCEPTRON_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bpred/predictor.hh"

namespace dmp::bpred
{

/** Jimenez-Lin global-history perceptron predictor. */
class PerceptronPredictor final : public DirectionPredictor
{
  public:
    /** Weight lanes per row: one per history bit. */
    static constexpr unsigned lanes = 64;

    struct Params
    {
        unsigned numEntries = 1021; ///< prime, as in the paper
        unsigned history = 59;      ///< history length in bits, 1..64
    };

    PerceptronPredictor();
    explicit PerceptronPredictor(const Params &params);

    bool
    predict(Addr pc, std::uint64_t ghr, PredictionInfo &info) override
    {
        std::uint32_t index = indexFor(pc);
        std::int32_t y = bias[index] + dotProduct(rows[index], ghr);
        info.ghr = ghr;
        info.index = index;
        info.aux = y;
        info.predTaken = y >= 0;
        return info.predTaken;
    }

    void
    train(Addr pc, bool taken, const PredictionInfo &info) override
    {
        (void)pc;
        bool mispredicted = info.predTaken != taken;
        if (!mispredicted && std::abs(info.aux) > trainTheta)
            return;

        std::int8_t &b = bias[info.index];
        b = std::int8_t(std::clamp(b + (taken ? 1 : -1), -128, 127));

        // m is -1 on lanes whose history bit disagrees with the outcome
        // and 0 where it agrees, so m | 1 is the lane's -1/+1 step. The
        // step is dropped on dead lanes and where it would leave int8:
        // w ^ m is 127 exactly for w = 127 stepping up and for w = -128
        // stepping down.
        const Lanes m = expand(taken ? ~info.ghr : info.ghr);
        const Lanes alive = live; // a local copy cannot alias the row
        std::int8_t *w = rows[info.index].v;
        for (unsigned i = 0; i < lanes; ++i) {
            std::int8_t keep = std::int8_t((w[i] ^ m.v[i]) == 127 ? 0 : -1);
            w[i] = std::int8_t(w[i] + ((m.v[i] | 1) & alive.v[i] & keep));
        }
    }

    unsigned historyBits() const override { return p.history; }

    /** Training threshold theta = 1.93 * h + 14 (from the original paper). */
    int theta() const { return trainTheta; }

  private:
    /** One int8 per lane: an entry's weight row or a set of masks. */
    struct Lanes
    {
        std::int8_t v[lanes];
    };

    /** Byte value -> 8 lane masks, -1 where the bit is set. */
    static constexpr auto byteLanes = [] {
        std::array<std::array<std::int8_t, 8>, 256> t{};
        for (unsigned byte = 0; byte < 256; ++byte)
            for (unsigned bit = 0; bit < 8; ++bit)
                t[byte][bit] = std::int8_t(-int((byte >> bit) & 1));
        return t;
    }();

    /** Lane i of the result is -1 when bit i of @p bits is set, else 0. */
    static Lanes
    expand(std::uint64_t bits) noexcept
    {
        Lanes m{};
        for (std::size_t byte = 0; byte < lanes / 8; ++byte)
            std::memcpy(m.v + 8 * byte,
                        byteLanes[(bits >> (8 * byte)) & 0xff].data(), 8);
        return m;
    }

    std::uint32_t
    indexFor(Addr pc) const noexcept
    {
        return std::uint32_t((pc >> 2) % p.numEntries);
    }

    static std::int32_t
    dotProduct(const Lanes &row, std::uint64_t ghr) noexcept
    {
        // Branchless sign-select: m is 0 when the history bit is set
        // (add w) and -1 when it is clear ((w ^ -1) - (-1) == -w).
        const Lanes m = expand(~ghr);
        std::int16_t y = 0;
        for (unsigned i = 0; i < lanes; ++i)
            y = std::int16_t(y + ((row.v[i] ^ m.v[i]) - m.v[i]));
        return y;
    }

    Params p;
    int trainTheta;
    /** -1 on lanes below the history length, 0 on the dead lanes. */
    Lanes live;
    std::vector<Lanes> rows;
    std::vector<std::int8_t> bias;
};

} // namespace dmp::bpred

#endif // DMP_BPRED_PERCEPTRON_HH
