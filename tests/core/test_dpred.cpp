/**
 * @file
 * Directed tests for dynamic-predication mechanics: predication avoids
 * flushes, uop accounting, confidence gating, nested mispredictions
 * inside dpred mode, conversions, and the diverge-loop extension.
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

/** Random if-else hammock in a loop; returns the branch pc and join. */
Program
randomHammock(unsigned iters, Addr *branch_out, Addr *join_out,
              unsigned tail = 8)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, std::int64_t(iters));
    b.li(14, 0xfeed);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(2, 0, els);
    b.addi(5, 5, 3);
    b.xor_(6, 5, 1);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 7);
    b.bind(join);
    Addr join_addr = b.xor_(7, 7, 5);
    for (unsigned i = 0; i < tail; ++i)
        b.addi(8, 8, 1);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.st(62, 0x100000, 7);
    b.halt();
    *branch_out = branch;
    *join_out = join_addr;
    return b.build();
}

TEST(Dpred, PredicationRemovesFlushesForMarkedBranch)
{
    Addr branch, join;
    Program p = randomHammock(800, &branch, &join);

    core::Core base(p, sim::machine("base"));
    base.run();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join);
    p.setMark(branch, mark);

    core::CoreParams dp = sim::machine("dmp");
    dp.alwaysLowConfidence = true;
    core::Core dmp(p, dp);
    dmp.run();

    // The hammock's mispredictions no longer flush.
    EXPECT_GT(base.stats().condBranchFlushes.value(), 250u);
    EXPECT_LT(dmp.stats().condBranchFlushes.value(),
              base.stats().condBranchFlushes.value() / 4);
    // And the machine is faster.
    EXPECT_LT(dmp.stats().cycles.value(), base.stats().cycles.value());
    // Retired program instructions identical.
    EXPECT_EQ(dmp.stats().retiredInsts.value(),
              base.stats().retiredInsts.value());
}

TEST(Dpred, UopAccounting)
{
    Addr branch, join;
    Program p = randomHammock(300, &branch, &join);
    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join);
    p.setMark(branch, mark);

    core::CoreParams dp = sim::machine("dmp");
    dp.alwaysLowConfidence = true;
    core::Core m(p, dp);
    m.run();

    const core::CoreStats &st = m.stats();
    std::uint64_t normal_exits =
        st.exitCase[0].value() + st.exitCase[1].value();
    EXPECT_GT(normal_exits, 200u);
    // Every normal episode retires enter.pred + enter.alt + exit.pred.
    EXPECT_GE(st.retiredExtraUops.value(), normal_exits * 3);
    // Both arms write r5 (and one writes r6): at least one select-uop
    // per normal exit.
    EXPECT_GE(st.retiredSelectUops.value(), normal_exits);
    // FALSE path instructions were retired but not counted as program
    // instructions.
    EXPECT_GT(st.retiredFalseInsts.value(), normal_exits * 2);
}

TEST(Dpred, HighConfidenceBranchIsNotPredicated)
{
    // A never-taken branch: warm-started JRS stays confident, so no
    // episodes start even though the branch is marked.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 500);
    Label loop = b.newLabel();
    b.bind(loop);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(10, 11, els); // never equal inside the loop
    b.addi(5, 5, 3);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 7);
    b.bind(join);
    Addr join_addr = b.xor_(7, 7, 5);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join_addr);
    p.setMark(branch, mark);

    core::Core m(p, sim::machine("dmp"));
    m.run();
    EXPECT_EQ(m.stats().dpredEntries.value(), 0u);
}

TEST(Dpred, UnmarkedBranchNeverPredicated)
{
    Addr branch, join;
    Program p = randomHammock(300, &branch, &join);
    // No marks at all.
    core::CoreParams dp = sim::machine("dmp");
    dp.alwaysLowConfidence = true;
    core::Core m(p, dp);
    m.run();
    EXPECT_EQ(m.stats().dpredEntries.value(), 0u);
    EXPECT_GT(m.stats().condBranchFlushes.value(), 100u);
}

TEST(Dpred, DhpScopeIgnoresComplexDivergeMarks)
{
    Addr branch, join;
    Program p = randomHammock(300, &branch, &join);
    isa::DivergeMark mark;
    mark.isDiverge = true; // complex-diverge mark only
    mark.cfmPoints.push_back(join);
    p.setMark(branch, mark);

    core::CoreParams dhp = sim::machine("dhp");
    dhp.alwaysLowConfidence = true;
    core::Core m(p, dhp);
    m.run();
    EXPECT_EQ(m.stats().dpredEntries.value(), 0u);

    // With the simple-hammock mark set, DHP predicates it.
    isa::DivergeMark both = mark;
    both.isSimpleHammock = true;
    p.setMark(branch, both);
    core::Core m2(p, dhp);
    m2.run();
    EXPECT_GT(m2.stats().dpredEntries.value(), 200u);
}

TEST(Dpred, NestedMispredictionInsidePredictedPath)
{
    // The predicted path of the diverge branch contains another
    // hard-to-predict (unmarked) branch; its mispredictions flush and
    // recovery must resume dynamic predication mode (footnote 11).
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 600);
    b.li(14, 0xbead);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    b.andi(3, 1, 2);
    Label els = b.newLabel(), join = b.newLabel(), inner = b.newLabel();
    Addr branch = b.beq(2, 0, els);
    b.addi(5, 5, 3);
    b.beq(3, 0, inner); // nested random branch inside the arm
    b.addi(5, 5, 11);
    b.bind(inner);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 7);
    b.bind(join);
    Addr join_addr = b.xor_(7, 7, 5);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.st(62, 0x100000, 7);
    b.halt();
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join_addr);
    p.setMark(branch, mark);

    core::CoreParams dp = sim::machine("dmp");
    dp.alwaysLowConfidence = true;
    // Correctness under nested flush + dpred-state restore:
    test::expectCoreMatchesReference(p, dp, "nested_mispredict");

    core::Core m(p, dp);
    m.run();
    EXPECT_GT(m.stats().dpredEntries.value(), 300u);
    EXPECT_GT(m.stats().exitCase[1].value(), 50u);
}

TEST(Dpred, MultipleDivergeBranchPolicyConverts)
{
    // Two marked diverge branches back to back: with the 2.7.3 policy
    // the first episode converts when the second branch is fetched.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 500);
    b.li(14, 0xcafe);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    b.andi(3, 1, 2);
    Label e1 = b.newLabel(), j1 = b.newLabel();
    Addr br1 = b.beq(2, 0, e1);
    b.addi(5, 5, 3);
    b.jmp(j1);
    b.bind(e1);
    b.addi(5, 5, 7);
    b.bind(j1);
    // Immediately another marked hammock (inside br1's 120-inst range).
    Label e2 = b.newLabel(), j2 = b.newLabel();
    Addr br2 = b.beq(3, 0, e2);
    b.addi(6, 6, 3);
    b.jmp(j2);
    b.bind(e2);
    b.addi(6, 6, 7);
    b.bind(j2);
    Addr j2_addr = b.xor_(7, 7, 6);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    isa::DivergeMark m1;
    m1.isDiverge = true;
    // Mark br1's CFM far away (j2) so br2 sits on its predicted path.
    m1.cfmPoints.push_back(j2_addr);
    p.setMark(br1, m1);
    isa::DivergeMark m2;
    m2.isDiverge = true;
    m2.cfmPoints.push_back(j2_addr);
    p.setMark(br2, m2);

    core::CoreParams dp = sim::machine("dmp");
    dp.alwaysLowConfidence = true;
    dp.enhMultiDiverge = true;
    core::Core m(p, dp);
    m.run();
    EXPECT_GT(m.stats().mdbConversions.value(), 200u);

    test::expectCoreMatchesReference(p, dp, "mdb");
}

TEST(Dpred, DivergeLoopBranchExtension)
{
    // A data-dependent loop branch (random trip count 0..3) marked as a
    // diverge loop branch with the exit as CFM (section 2.7.4).
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 500);
    b.li(14, 0x10ca);
    Label outer = b.newLabel();
    b.bind(outer);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 3); // inner trip count
    Label inner = b.newLabel();
    b.bind(inner);
    b.addi(5, 5, 1);
    b.addi(2, 2, -1);
    Addr loop_branch = b.blt(0, 2, inner); // backward diverge branch
    Addr exit_addr = b.xor_(7, 7, 5);
    b.addi(10, 10, 1);
    b.blt(10, 11, outer);
    b.st(62, 0x100000, 7);
    b.halt();
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.isLoopBranch = true;
    mark.cfmPoints.push_back(exit_addr);
    p.setMark(loop_branch, mark);

    // Without the extension the mark is ignored.
    core::CoreParams off = sim::machine("dmp");
    off.alwaysLowConfidence = true;
    core::Core m_off(p, off);
    m_off.run();
    EXPECT_EQ(m_off.stats().dpredEntries.value(), 0u);

    core::CoreParams on = off;
    on.extLoopBranches = true;
    core::Core m_on(p, on);
    m_on.run();
    EXPECT_GT(m_on.stats().dpredEntries.value(), 100u);

    test::expectCoreMatchesReference(p, on, "loop_ext");
}

TEST(Dpred, PredicateNamespaceExhaustionFallsBack)
{
    // With only 2 predicate registers the machine must keep falling
    // back to branch prediction without deadlock or state corruption.
    Addr branch, join;
    Program p = randomHammock(400, &branch, &join);
    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join);
    p.setMark(branch, mark);

    core::CoreParams dp = sim::machine("dmp");
    dp.alwaysLowConfidence = true;
    dp.predRegisters = 2;
    test::expectCoreMatchesReference(p, dp, "pred_exhaustion");
}

/**
 * A diverge hammock whose taken side rewrites every writable
 * architectural register (with its own value), so each predicated exit
 * needs the maximum number of select-uops.
 */
Program
everyRegisterHammock(unsigned iters, Addr *branch_out, Addr *join_out)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, std::int64_t(iters));
    b.li(14, 0xfeed);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(2, 0, els);
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        if (r != isa::kZeroReg)
            b.addi(ArchReg(r), ArchReg(r), 0);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 3);
    b.bind(join);
    Addr join_addr = b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    *branch_out = branch;
    *join_out = join_addr;
    return b.build();
}

TEST(Dpred, RobBelowPredicationMinimumIsFatal)
{
    Addr branch, join;
    Program p = randomHammock(10, &branch, &join);
    core::CoreParams dp = sim::machine("dmp-enhanced");
    dp.robSize = core::kMinPredicationRobSize - 1;
    EXPECT_EXIT(core::Core(p, dp), ::testing::ExitedWithCode(1),
                "robSize 63 is below the minimum of 64");

    // Without predication no exit needs select-uops: any size is fine.
    core::CoreParams base = sim::machine("base");
    base.robSize = 16;
    test::expectCoreMatchesReference(p, base, "base_rob16");
}

TEST(Dpred, RobAtPredicationMinimumRenamesWidestExit)
{
    Addr branch, join;
    Program p = everyRegisterHammock(300, &branch, &join);
    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join);
    p.setMark(branch, mark);

    core::CoreParams dp = sim::machine("dmp");
    dp.alwaysLowConfidence = true;
    dp.robSize = core::kMinPredicationRobSize;
    core::Core m(p, dp);
    m.run();
    ASSERT_TRUE(m.halted());
    // Some exit inserted a select-uop for every writable register.
    EXPECT_GT(m.stats().dpredEntries.value(), 100u);
    EXPECT_GE(m.stats().retiredSelectUops.value(),
              (isa::kNumArchRegs - 1) * 50u);
    test::expectCoreMatchesReference(p, dp, "rob_at_minimum");
}

} // namespace
} // namespace dmp
