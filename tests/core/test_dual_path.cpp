/**
 * @file
 * Directed tests for selective dual-path execution (paper section 5.3).
 */

#include <gtest/gtest.h>

#include "../testutil.hh"
#include "isa/program.hh"

namespace dmp
{
namespace
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

Program
randomHammock(unsigned iters, unsigned tail = 10)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, std::int64_t(iters));
    b.li(14, 0xd0a1);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    b.beq(2, 0, els);
    b.addi(5, 5, 3);
    b.xor_(6, 6, 5);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 7);
    b.bind(join);
    b.xor_(7, 7, 5);
    for (unsigned i = 0; i < tail; ++i)
        b.addi(8, 8, 1);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.st(62, 0x100000, 7);
    b.halt();
    return b.build();
}

TEST(DualPath, ForksOnLowConfidenceAndAvoidsFlushes)
{
    // A long predictable tail isolates consecutive hard branches so the
    // fork resolves before the next hard branch is fetched.
    Program p = randomHammock(600, 320);

    core::Core base(p, sim::machine("base"));
    base.run();

    // Real JRS confidence: only the hammock goes low-confidence, so
    // forks target it instead of being wasted on the loop branch.
    core::CoreParams dp = sim::machine("dual");
    core::Core dual(p, dp);
    dual.run();

    EXPECT_GT(dual.stats().dualForks.value(), 200u);
    // Fork resolution never flushes: flushes drop sharply.
    EXPECT_LT(dual.stats().condBranchFlushes.value(),
              base.stats().condBranchFlushes.value() * 6 / 10);
    EXPECT_EQ(dual.stats().retiredInsts.value(),
              base.stats().retiredInsts.value());
}

TEST(DualPath, NoMarksRequired)
{
    // Dual-path is marker-free: it forks on any low-confidence branch.
    Program p = randomHammock(200);
    core::CoreParams dp = sim::machine("dual");
    dp.alwaysLowConfidence = true;
    core::Core m(p, dp);
    m.run();
    EXPECT_GT(m.stats().dualForks.value(), 100u);
    EXPECT_EQ(m.stats().dpredEntries.value(), 0u);
    EXPECT_EQ(m.stats().retiredSelectUops.value(), 0u);
}

TEST(DualPath, ArchitecturalEquivalence)
{
    Program p = randomHammock(600);
    core::CoreParams dp = sim::machine("dual");
    dp.alwaysLowConfidence = true;
    test::expectCoreMatchesReference(p, dp, "dual_forced");
}

TEST(DualPath, NestedMispredictCollapsesToFork)
{
    // A second random branch follows closely inside the dual episode:
    // its misprediction forces the conservative flush-to-fork collapse;
    // correctness must hold.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 500);
    b.li(14, 0xfa11);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    b.andi(3, 1, 2);
    Label e1 = b.newLabel(), j1 = b.newLabel();
    b.beq(2, 0, e1);
    b.addi(5, 5, 3);
    b.jmp(j1);
    b.bind(e1);
    b.addi(5, 5, 7);
    b.bind(j1);
    Label e2 = b.newLabel(), j2 = b.newLabel();
    b.beq(3, 0, e2); // second hard branch inside the episode
    b.addi(6, 6, 3);
    b.jmp(j2);
    b.bind(e2);
    b.addi(6, 6, 7);
    b.bind(j2);
    b.xor_(7, 7, 5);
    b.xor_(7, 7, 6);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.st(62, 0x100000, 7);
    b.halt();
    Program p = b.build();

    core::CoreParams dp = sim::machine("dual");
    dp.alwaysLowConfidence = true;
    test::expectCoreMatchesReference(p, dp, "dual_nested");
}

TEST(DualPath, OnlyOneEpisodeAtATime)
{
    // With every branch low-confidence, forks cannot nest: the total
    // fork count stays bounded by the branch count.
    Program p = randomHammock(300);
    core::CoreParams dp = sim::machine("dual");
    dp.alwaysLowConfidence = true;
    core::Core m(p, dp);
    m.run();
    EXPECT_LE(m.stats().dualForks.value(),
              m.stats().retiredCondBranches.value());
}

} // namespace
} // namespace dmp
