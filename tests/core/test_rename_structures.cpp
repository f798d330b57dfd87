/**
 * @file
 * Unit tests for the rename-stage building blocks: RenameMap (M bits),
 * PhysRegFile (free list, waiters, double-free detection),
 * CheckpointPool, and PredicateFile.
 */

#include <gtest/gtest.h>

#include "core/episode.hh"
#include "core/rename_map.hh"

namespace dmp::core
{
namespace
{

TEST(RenameMap, WriteSetsMBit)
{
    RenameMap m;
    EXPECT_FALSE(m.mBits[5]);
    m.write(5, 100);
    EXPECT_TRUE(m.mBits[5]);
    EXPECT_EQ(m.lookup(5), 100);
    m.clearMBits();
    EXPECT_FALSE(m.mBits[5]);
    EXPECT_EQ(m.lookup(5), 100); // mapping survives M-bit clear
}

TEST(RenameMap, CopyIsCheckpoint)
{
    RenameMap a;
    a.write(3, 33);
    RenameMap cp = a;
    a.write(3, 44);
    EXPECT_EQ(cp.lookup(3), 33);
    EXPECT_EQ(a.lookup(3), 44);
}

TEST(PhysRegFile, AllocFreeCycle)
{
    PhysRegFile prf(80);
    std::size_t initial_free = prf.numFree();
    EXPECT_EQ(initial_free, 80u - isa::kNumArchRegs);
    PhysReg p = prf.alloc();
    EXPECT_FALSE(prf.ready(p));
    EXPECT_EQ(prf.numFree(), initial_free - 1);
    prf.setReady(p, 42);
    EXPECT_TRUE(prf.ready(p));
    EXPECT_EQ(prf.value(p), 42u);
    prf.free(p);
    EXPECT_EQ(prf.numFree(), initial_free);
}

TEST(PhysRegFile, InitialArchMappingsReady)
{
    PhysRegFile prf(80);
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        EXPECT_TRUE(prf.ready(PhysReg(r)));
}

TEST(PhysRegFile, WaitersDrainOnce)
{
    PhysRegFile prf(80);
    PhysReg p = prf.alloc();
    prf.addWaiter(p, InstRef{1, 10});
    prf.addWaiter(p, InstRef{2, 11});
    auto w = prf.takeWaiters(p);
    EXPECT_EQ(w.size(), 2u);
    EXPECT_TRUE(prf.takeWaiters(p).empty());
}

TEST(PhysRegFile, AllocClearsStaleWaiters)
{
    PhysRegFile prf(80);
    PhysReg p = prf.alloc();
    prf.addWaiter(p, InstRef{1, 10});
    prf.free(p);
    PhysReg q = prf.alloc();
    ASSERT_EQ(q, p); // LIFO free list
    EXPECT_TRUE(prf.takeWaiters(q).empty());
}

TEST(PhysRegFileDeath, DoubleFreePanics)
{
    PhysRegFile prf(80);
    PhysReg p = prf.alloc();
    prf.free(p);
    EXPECT_DEATH(prf.free(p), "double free");
}

TEST(CheckpointPool, AllocateReleaseValidated)
{
    CheckpointPool pool(4);
    EXPECT_EQ(pool.freeCount(), 4u);
    std::int32_t a = pool.alloc(100);
    std::int32_t b = pool.alloc(101);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.freeCount(), 2u);

    // Release with the wrong owner is ignored (stale release).
    pool.release(a, 999);
    EXPECT_EQ(pool.freeCount(), 2u);
    pool.release(a, 100);
    EXPECT_EQ(pool.freeCount(), 3u);
    // Double release (same owner) is also ignored.
    pool.release(a, 100);
    EXPECT_EQ(pool.freeCount(), 3u);
    pool.release(b, 101);
    EXPECT_EQ(pool.freeCount(), 4u);
}

TEST(CheckpointPool, ExhaustionReturnsMinusOne)
{
    CheckpointPool pool(2);
    EXPECT_GE(pool.alloc(1), 0);
    EXPECT_GE(pool.alloc(2), 0);
    EXPECT_EQ(pool.alloc(3), -1);
}

TEST(CheckpointPool, ExhaustionRecoversAfterRelease)
{
    CheckpointPool pool(3);
    std::int32_t ids[3];
    for (int i = 0; i < 3; ++i) {
        ids[i] = pool.alloc(10 + i);
        ASSERT_GE(ids[i], 0);
    }
    // Exhaustion is stable: repeated failing allocs neither corrupt the
    // pool nor consume anything.
    EXPECT_EQ(pool.alloc(99), -1);
    EXPECT_EQ(pool.alloc(99), -1);
    EXPECT_EQ(pool.freeCount(), 0u);

    pool.release(ids[1], 11);
    std::int32_t again = pool.alloc(50);
    EXPECT_EQ(again, ids[1]); // LIFO free list hands back the slot
    EXPECT_EQ(pool.alloc(51), -1);
}

TEST(CheckpointPool, MispredictFlushRestoresFreeList)
{
    // A mispredict flush walks the ROB youngest-first and releases
    // every checkpoint owned by a squashed branch. The free list must
    // return to its pre-speculation state and the released slots must
    // be immediately reusable.
    CheckpointPool pool(4);
    std::int32_t a = pool.alloc(10); // surviving branch
    std::int32_t b = pool.alloc(20); // mispredicted branch
    std::int32_t c = pool.alloc(30); // squashed
    std::int32_t d = pool.alloc(40); // squashed
    ASSERT_EQ(pool.freeCount(), 0u);

    // Flush: everything younger than seq 20 dies, youngest first.
    pool.release(d, 40);
    pool.release(c, 30);
    EXPECT_EQ(pool.freeCount(), 2u);

    // Stale releases from the squashed window are ignored (the pool is
    // owner-validated, so a replayed release cannot double-free).
    pool.release(d, 40);
    pool.release(c, 30);
    EXPECT_EQ(pool.freeCount(), 2u);

    // Re-speculation down the correct path reuses the freed slots.
    std::int32_t e = pool.alloc(50);
    std::int32_t f = pool.alloc(60);
    EXPECT_TRUE((e == c && f == d) || (e == d && f == c));
    EXPECT_EQ(pool.alloc(70), -1);

    // Retiring the old branches releases the rest; fully drained pool
    // has every slot back.
    pool.release(e, 50);
    pool.release(f, 60);
    pool.release(b, 20);
    pool.release(a, 10);
    EXPECT_EQ(pool.freeCount(), 4u);
}

TEST(CheckpointPool, ContentRoundTrip)
{
    CheckpointPool pool(2);
    std::int32_t id = pool.alloc(7);
    Checkpoint &cp = pool.get(id);
    cp.ghr = 0xabc;
    cp.map.write(4, 44);
    cp.episode = 3;
    cp.dpredPath = PathId::Alternate;
    const Checkpoint &again = pool.get(id);
    EXPECT_EQ(again.ghr, 0xabcu);
    EXPECT_EQ(again.map.lookup(4), 44);
    EXPECT_EQ(again.dpredPath, PathId::Alternate);
}

TEST(PredicateFile, AllocationAndResolution)
{
    PredicateFile pf(2);
    EXPECT_TRUE(pf.canAllocate());
    PredId a = pf.allocate();
    PredId b = pf.allocate();
    EXPECT_NE(a, b);
    // Hardware namespace limit: two unresolved in flight.
    EXPECT_FALSE(pf.canAllocate());

    pf.resolve(a, true, false);
    EXPECT_TRUE(pf.canAllocate()); // slot released at resolution
    EXPECT_TRUE(pf.get(a).resolved);
    EXPECT_TRUE(pf.get(a).value);
    EXPECT_FALSE(pf.get(b).resolved);
}

TEST(PredicateFile, AssumedThenRealResolution)
{
    PredicateFile pf(4);
    PredId a = pf.allocate();
    pf.resolve(a, true, /*assumed=*/true);
    EXPECT_TRUE(pf.get(a).assumed);
    // The real resolution overwrites the assumption.
    pf.resolve(a, false, /*assumed=*/false);
    EXPECT_FALSE(pf.get(a).value);
    EXPECT_FALSE(pf.get(a).assumed);
    EXPECT_TRUE(pf.canAllocate());
}

TEST(PredicateFile, IdsAreNeverReused)
{
    PredicateFile pf(1);
    PredId a = pf.allocate();
    pf.resolve(a, true, false);
    PredId b = pf.allocate();
    EXPECT_NE(a, b);
    EXPECT_TRUE(pf.known(a)); // old state remains queryable
}

TEST(Episode, ConversionBookkeeping)
{
    Episode ep;
    EXPECT_FALSE(ep.isConverted());
    ep.converted = ConversionReason::EarlyExit;
    EXPECT_TRUE(ep.isConverted());
}

} // namespace
} // namespace dmp::core
