/** @file Unit tests for the cache timing model. */

#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace dmp::mem
{
namespace
{

TEST(Cache, MissThenHit)
{
    CacheParams p;
    p.sizeBytes = 4096;
    p.assoc = 2;
    Cache c(p);
    Cycle ready, avail;
    EXPECT_FALSE(c.access(0x1000, 0, ready, avail));
    c.setFillTime(0x1000, 100);
    EXPECT_TRUE(c.access(0x1000, 200, ready, avail));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, CountersDumpByName)
{
    CacheParams p;
    Cache c(p);
    Cycle ready, avail;
    c.access(0x1000, 0, ready, avail);
    c.setFillTime(0x1000, 10);
    c.access(0x1000, 20, ready, avail);
    c.access(0x1008, 30, ready, avail);
    EXPECT_EQ(dumpStats("l1d", c.counters()),
              "l1d.hits 2  # demand hits\n"
              "l1d.misses 1  # demand misses\n");
}

TEST(Cache, SameLineDifferentWordHits)
{
    CacheParams p;
    Cache c(p);
    Cycle ready, avail;
    c.access(0x1000, 0, ready, avail);
    c.setFillTime(0x1000, 10);
    EXPECT_TRUE(c.access(0x1038, 20, ready, avail)); // same 64B line
}

TEST(Cache, LruEviction)
{
    CacheParams p;
    p.sizeBytes = 2 * 64; // one set, 2 ways
    p.assoc = 2;
    Cache c(p);
    Cycle ready, avail;
    c.access(0x0, 0, ready, avail);
    c.setFillTime(0x0, 1);
    c.access(0x40, 1, ready, avail);
    c.setFillTime(0x40, 2);
    // Touch line 0 so line 0x40 becomes LRU.
    c.access(0x0, 10, ready, avail);
    // New line evicts 0x40.
    c.access(0x80, 11, ready, avail);
    c.setFillTime(0x80, 12);
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_TRUE(c.probe(0x80));
}

TEST(Cache, InFlightFillDelaysHit)
{
    // An access that hits on a line whose fill is still in flight must
    // not complete before the fill (MSHR merge) — a squashed
    // speculative miss is never an instant prefetch.
    CacheParams p;
    Cache c(p);
    Cycle ready, avail;
    EXPECT_FALSE(c.access(0x1000, 0, ready, avail));
    c.setFillTime(0x1000, 300);
    EXPECT_TRUE(c.access(0x1000, 10, ready, avail));
    EXPECT_GE(avail, 300u);
    // After the fill lands, hits are immediate again.
    EXPECT_TRUE(c.access(0x1000, 400, ready, avail));
    EXPECT_LE(avail, 401u);
}

TEST(Cache, BankConflictSerializes)
{
    CacheParams p;
    p.banks = 1;
    Cache c(p);
    Cycle r1, r2, avail;
    c.access(0x0, 5, r1, avail);
    c.access(0x2000, 5, r2, avail); // same cycle, same bank
    EXPECT_GT(r2, r1);
}

TEST(Hierarchy, L1HitIsFast)
{
    CacheHierarchy h;
    Cycle first = h.loadAccess(0x1000, 0);
    EXPECT_GE(first, 300u); // cold miss goes to memory
    Cycle second = h.loadAccess(0x1000, first + 1);
    EXPECT_LE(second, first + 1 + 4); // L1 hit latency
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    CacheHierarchy::Params p;
    p.l1d.sizeBytes = 2 * 64; // tiny L1: 1 set x 2 ways
    p.l1d.assoc = 2;
    CacheHierarchy h(p);
    Cycle t = h.loadAccess(0x0, 0);
    t = h.loadAccess(0x40, t);
    t = h.loadAccess(0x80, t); // evicts 0x0 from L1
    Cycle again = h.loadAccess(0x0, t + 400);
    // L2 still holds it: much faster than memory.
    EXPECT_LT(again - (t + 400), 50u);
}

TEST(Hierarchy, FetchAndLoadUseSeparateL1s)
{
    CacheHierarchy h;
    Cycle f = h.fetchAccess(0x1000, 0);
    EXPECT_GE(f, 300u);
    // The data side is cold for the same address, but L2 now has it.
    Cycle d = h.loadAccess(0x1000, f + 1);
    EXPECT_LT(d - (f + 1), 50u);
    EXPECT_GT(d - (f + 1), 2u);
}

TEST(Hierarchy, StoreWarmsL1)
{
    CacheHierarchy h;
    h.storeAccess(0x2000, 0);
    Cycle t = h.loadAccess(0x2000, 100);
    EXPECT_LE(t - 100, 4u);
}

} // namespace
} // namespace dmp::mem
