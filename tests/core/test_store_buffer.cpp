/**
 * @file
 * Unit tests for the predicate-aware store buffer (paper section 2.5
 * forwarding rules) and end-to-end predicated-store behaviour.
 */

#include <gtest/gtest.h>

#include "../testutil.hh"
#include "core/store_buffer.hh"
#include "isa/program.hh"

namespace dmp::core
{
namespace
{

TEST(StoreBufferUnit, Rule1NonPredicatedForwards)
{
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 42);
    Word data = 0;
    EXPECT_EQ(sb.probe(5, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 42u);
}

TEST(StoreBufferUnit, NoMatchGoesToCache)
{
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 42);
    Word data = 0;
    EXPECT_EQ(sb.probe(5, 0x200, kNoPred, data),
              ForwardResult::NoMatch);
}

TEST(StoreBufferUnit, UnknownAddressBlocks)
{
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true); // address not yet computed
    Word data = 0;
    EXPECT_EQ(sb.probe(5, 0x100, kNoPred, data),
              ForwardResult::MustWait);
}

TEST(StoreBufferUnit, Rule2ResolvedTrueForwardsResolvedFalseSkipped)
{
    StoreBuffer sb(16);
    // Older non-predicated store, then a predicated one.
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(2, /*pred=*/7, false, false);
    sb.fill(2, 0x100, 2);

    Word data = 0;
    // Unresolved predicate, different id: rule 3 blocks.
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::MustWait);

    // Resolve TRUE: forwards the predicated value.
    sb.resolvePredicate(7, true);
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 2u);
}

TEST(StoreBufferUnit, ResolvedFalseFallsThroughToOlderStore)
{
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(2, 7, false, false);
    sb.fill(2, 0x100, 2);
    sb.resolvePredicate(7, false); // dropped
    Word data = 0;
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 1u); // the older store's value
}

TEST(StoreBufferUnit, Rule3SamePredicateForwardsUnresolved)
{
    StoreBuffer sb(16);
    sb.allocate(2, 7, false, false);
    sb.fill(2, 0x100, 2);
    Word data = 0;
    // Same predicate id: legal to forward even though unresolved.
    EXPECT_EQ(sb.probe(9, 0x100, 7, data), ForwardResult::Forward);
    EXPECT_EQ(data, 2u);
    // Different predicate id: wait.
    EXPECT_EQ(sb.probe(9, 0x100, 8, data), ForwardResult::MustWait);
}

TEST(StoreBufferUnit, YoungerStoresInvisible)
{
    StoreBuffer sb(16);
    sb.allocate(10, kNoPred, true, true);
    sb.fill(10, 0x100, 99);
    Word data = 0;
    // The load (seq 5) is older than the store (seq 10).
    EXPECT_EQ(sb.probe(5, 0x100, kNoPred, data),
              ForwardResult::NoMatch);
}

TEST(StoreBufferUnit, SquashRemovesYounger)
{
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(5, kNoPred, true, true);
    sb.fill(5, 0x100, 5);
    sb.squashYoungerThan(3);
    EXPECT_EQ(sb.size(), 1u);
    Word data = 0;
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 1u);
}

TEST(StoreBufferUnit, RetireHeadInOrder)
{
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(2, 7, false, false);
    sb.fill(2, 0x108, 2);
    sb.resolvePredicate(7, false);

    SbEntry e1 = sb.retireHead(1);
    EXPECT_FALSE(e1.dead);
    EXPECT_EQ(e1.data, 1u);
    SbEntry e2 = sb.retireHead(2);
    EXPECT_TRUE(e2.dead); // dropped predicated-FALSE store
    EXPECT_TRUE(sb.empty());
}

TEST(StoreBufferUnit, YoungestMatchWins)
{
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(2, kNoPred, true, true);
    sb.fill(2, 0x100, 2);
    Word data = 0;
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 2u);
}

TEST(StoreBufferUnit, OverlappingStoresLayeredPredicates)
{
    // Three stores to the same address: plain, then unresolved
    // predicate 7, then predicate 8 already resolved FALSE. The probe
    // walks youngest-first, so the dead store is skipped and the
    // unresolved one decides per rule (3).
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(2, /*pred=*/7, false, false);
    sb.fill(2, 0x100, 2);
    sb.allocate(3, /*pred=*/8, false, false);
    sb.fill(3, 0x100, 3);
    sb.resolvePredicate(8, false); // dead, must be invisible

    Word data = 0;
    // Same predicate as the unresolved store: forwards its value.
    EXPECT_EQ(sb.probe(9, 0x100, 7, data), ForwardResult::Forward);
    EXPECT_EQ(data, 2u);
    // Different predicate: the unresolved store blocks the load even
    // though an older plain store matches (rule 3 is conservative).
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::MustWait);

    // Once predicate 7 resolves FALSE too, the plain store shines
    // through both overlapping dead stores.
    sb.resolvePredicate(7, false);
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 1u);
}

TEST(StoreBufferUnit, UnknownAddressYoungerStoreBlocksOlderMatch)
{
    // A younger store whose address has not been computed blocks every
    // later load — even one that would hit an older, filled entry —
    // because the unknown address might overlap the load's.
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(2, kNoPred, true, true); // address still unknown
    Word data = 0;
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::MustWait);
    // Filling it with a non-overlapping address unblocks the load.
    sb.fill(2, 0x200, 2);
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 1u);
}

TEST(StoreBufferUnit, SquashRestoresForwardingAcrossFlushedEpisode)
{
    // A flush squashes the episode's predicated stores out of the
    // buffer; loads issued after the flush must forward from the
    // surviving pre-episode store, not wait on the squashed one.
    StoreBuffer sb(16);
    sb.allocate(1, kNoPred, true, true);
    sb.fill(1, 0x100, 1);
    sb.allocate(5, /*pred=*/7, false, false); // episode store
    sb.fill(5, 0x100, 55);

    Word data = 0;
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::MustWait); // blocked by the episode store

    sb.squashYoungerThan(1); // pipeline flush at the diverge branch
    EXPECT_EQ(sb.size(), 1u);
    EXPECT_EQ(sb.probe(9, 0x100, kNoPred, data),
              ForwardResult::Forward);
    EXPECT_EQ(data, 1u);
}

// ---------------------------------------------------------------
// End-to-end: predicated stores inside dpred episodes.
// ---------------------------------------------------------------

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

TEST(PredicatedStores, FalsePathStoreNeverReachesMemory)
{
    // Both arms store different values to the same address; the final
    // memory value must follow the real direction every iteration.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 400);
    b.li(14, 0x57073);
    b.li(20, 0x100000);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(2, 0, els);
    b.li(3, 111);
    b.st(20, 0, 3);
    b.jmp(join);
    b.bind(els);
    b.li(3, 222);
    b.st(20, 0, 3);
    b.bind(join);
    Addr join_addr = b.ld(4, 20, 0); // load-after-predicated-stores
    b.add(5, 5, 4);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.st(20, 8, 5);
    b.halt();
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join_addr);
    p.setMark(branch, mark);

    core::CoreParams params = sim::machine("dmp");
    params.alwaysLowConfidence = true;
    test::expectCoreMatchesReference(p, params, "pred_stores");

    core::Core m(p, params);
    m.run();
    EXPECT_GT(m.stats().dpredEntries.value(), 300u);
    // The post-CFM load had to wait for or forward from predicated
    // stores on both paths — and memory matches the reference, so the
    // FALSE-path stores were dropped.
}

/**
 * Forwarding across flushed episodes: the fall-through arm is longer
 * than the ROB, so a mispredicted-taken episode cannot reach the CFM
 * and ends in a pipeline flush (exit case 4). Its predicated store to
 * [r20] must be squashed from the store buffer, and the re-executed
 * path's store plus the post-CFM load must still produce the reference
 * memory image.
 */
TEST(PredicatedStores, ForwardingAcrossFlushedEpisode)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 300);
    b.li(14, 0x57073);
    b.li(20, 0x100000);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 255);
    b.slti(2, 2, 205); // ~80% taken
    b.st(20, 0, 10);   // pre-branch store the load can fall back to
    Label cfm_l = b.newLabel();
    Addr branch = b.bne(2, 0, cfm_l); // taken -> CFM directly
    b.li(3, 222);
    b.st(20, 0, 3); // fall-through store, squashed on flush
    for (int i = 0; i < 700; ++i)
        b.addi(6, 6, 1);
    b.bind(cfm_l);
    b.ld(4, 20, 0); // must see the surviving store's value
    b.add(5, 5, 4);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.st(20, 8, 5);
    b.halt();
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(p.fetch(branch).target);
    p.setMark(branch, mark);

    core::CoreParams params = sim::machine("dmp");
    params.alwaysLowConfidence = true;
    params.maxDpredPathInsts = 4096;
    core::Core m(p, params);
    m.run();
    ASSERT_TRUE(m.halted());
    // Mispredicted episodes that could not reach the CFM flushed.
    EXPECT_GT(m.stats().exitCase[3].value(), 10u);
    EXPECT_GT(m.stats().pipelineFlushes.value(), 10u);

    test::expectCoreMatchesReference(p, params, "flushed_episode_fwd");
}

TEST(PredicatedStores, StoreBufferFullStallsRenameNotCorrectness)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 200);
    b.li(20, 0x100000);
    Label loop = b.newLabel();
    b.bind(loop);
    for (int i = 0; i < 24; ++i)
        b.st(20, i * 8, 10);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    core::CoreParams params;
    params.storeBufferSize = 4; // tiny
    test::expectCoreMatchesReference(p, params, "tiny_sb");
}

} // namespace
} // namespace dmp::core
