/**
 * @file
 * Parameterized property sweeps over cache geometries: structural
 * invariants must hold for every (size, associativity, banks)
 * combination.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "mem/cache.hh"

namespace dmp::mem
{
namespace
{

struct Geometry
{
    std::uint32_t sizeBytes;
    std::uint32_t assoc;
    std::uint32_t banks;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometry, HitAfterFillAlways)
{
    Geometry g = GetParam();
    CacheParams p;
    p.sizeBytes = g.sizeBytes;
    p.assoc = g.assoc;
    p.banks = g.banks;
    Cache c(p);

    Random rng(g.sizeBytes + g.assoc);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.below(1 << 20) & ~Addr(7);
        Cycle ready, avail;
        c.access(a, now, ready, avail);
        c.setFillTime(a, ready + 10);
        now = ready + 20;
        // Immediately re-accessing the same line must hit.
        EXPECT_TRUE(c.access(a, now, ready, avail));
        now = ready + 1;
    }
    EXPECT_EQ(c.hits() + c.misses(), 4000u);
    EXPECT_GE(c.hits(), 2000u);
}

TEST_P(CacheGeometry, WorkingSetWithinCapacityAllHits)
{
    Geometry g = GetParam();
    CacheParams p;
    p.sizeBytes = g.sizeBytes;
    p.assoc = g.assoc;
    p.banks = g.banks;
    Cache c(p);

    // Touch exactly one line per set (never exceeds any way).
    std::uint32_t lines = g.sizeBytes / (64 * g.assoc);
    Cycle now = 0;
    for (std::uint32_t i = 0; i < lines; ++i) {
        Cycle ready, avail;
        c.access(Addr(i) * 64, now, ready, avail);
        c.setFillTime(Addr(i) * 64, ready);
        now = ready + 1;
    }
    std::uint64_t misses_before = c.misses();
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t i = 0; i < lines; ++i) {
            Cycle ready, avail;
            EXPECT_TRUE(c.access(Addr(i) * 64, now, ready, avail));
            now = ready + 1;
        }
    }
    EXPECT_EQ(c.misses(), misses_before);
}

TEST_P(CacheGeometry, MonotonicBankReadiness)
{
    Geometry g = GetParam();
    CacheParams p;
    p.sizeBytes = g.sizeBytes;
    p.assoc = g.assoc;
    p.banks = g.banks;
    Cache c(p);
    // Same-bank accesses in the same cycle serialize monotonically.
    Cycle last = 0;
    for (int i = 0; i < 32; ++i) {
        Cycle ready, avail;
        c.access(0x1000, 0, ready, avail);
        EXPECT_GE(ready, last);
        last = ready;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{4096, 1, 1}, Geometry{4096, 4, 1},
                      Geometry{16384, 2, 4}, Geometry{65536, 4, 1},
                      Geometry{65536, 8, 8}, Geometry{1 << 20, 8, 8},
                      Geometry{2048, 2, 2}),
    [](const auto &info) {
        std::string name = "s";
        name += std::to_string(info.param.sizeBytes);
        name += "a";
        name += std::to_string(info.param.assoc);
        name += "b";
        name += std::to_string(info.param.banks);
        return name;
    });

} // namespace
} // namespace dmp::mem
