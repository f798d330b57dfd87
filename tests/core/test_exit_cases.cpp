/**
 * @file
 * Directed tests for the six dynamic-predication exit cases of Table 1.
 *
 * Each test constructs a micro-CFG that forces the machine into one
 * region of the exit-case space, runs it with every dynamic instance of
 * the diverge branch predicated (alwaysLowConfidence), and checks both
 * the exit-case counters and architectural equivalence.
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

constexpr ArchReg kRng = 14;
constexpr ArchReg kCnt = 10;
constexpr ArchReg kBound = 11;

/** LCG step leaving a pseudo-random value in `dst`. */
void
lcg(ProgramBuilder &b, ArchReg dst)
{
    b.muli(kRng, kRng, 6364136223846793005LL);
    b.addi(kRng, kRng, 1442695040888963407LL);
    b.shri(dst, kRng, 33);
}

void
prologue(ProgramBuilder &b, unsigned iters)
{
    b.li(kCnt, 0);
    b.li(kBound, iters);
    b.li(kRng, 0x9e3779b9);
}

void
epilogue(ProgramBuilder &b, Label loop)
{
    b.addi(kCnt, kCnt, 1);
    b.blt(kCnt, kBound, loop);
    b.st(62, 0x100000, 5); // fold a result into memory
    b.halt();
}

core::CoreParams
dmpAll()
{
    core::CoreParams p = sim::machine("dmp");
    p.alwaysLowConfidence = true;
    return p;
}

/**
 * Symmetric hammock on a random condition: both paths reach the CFM
 * quickly, so every episode exits normally -> cases 1 and 2 only.
 */
TEST(ExitCases, SymmetricHammockProducesCases1And2)
{
    ProgramBuilder b;
    prologue(b, 400);
    Label loop = b.newLabel();
    b.bind(loop);
    lcg(b, 1);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(2, 0, els);
    b.addi(5, 5, 3);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 7);
    b.bind(join);
    b.xor_(6, 6, 5);
    epilogue(b, loop);
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(p.fetch(branch).target + 4); // join
    p.setMark(branch, mark);

    core::Core machine(p, dmpAll());
    machine.run();
    ASSERT_TRUE(machine.halted());

    const core::CoreStats &st = machine.stats();
    EXPECT_GT(st.exitCase[0].value(), 50u) << "case 1 expected";
    EXPECT_GT(st.exitCase[1].value(), 50u) << "case 2 expected";
    EXPECT_EQ(st.exitCase[2].value(), 0u);
    EXPECT_EQ(st.exitCase[3].value(), 0u);
    EXPECT_EQ(st.exitCase[4].value(), 0u);
    EXPECT_EQ(st.exitCase[5].value(), 0u);
    // Case 2 avoided a pipeline flush for a mispredicted branch.
    EXPECT_LT(st.condBranchFlushes.value(),
              st.exitCase[1].value());

    test::expectCoreMatchesReference(p, dmpAll(), "cases12");
}

/**
 * Asymmetric region: the taken side reaches the CFM immediately, the
 * fall-through side only after a ~200-instruction straight-line block.
 * The branch is biased taken, so the predicted path is almost always
 * the short one and the alternate path cannot reach the CFM before the
 * branch resolves -> cases 3 (correct) and 4 (mispredicted).
 */
TEST(ExitCases, LongAlternatePathProducesCases3And4)
{
    ProgramBuilder b;
    prologue(b, 400);
    Label loop = b.newLabel();
    b.bind(loop);
    lcg(b, 1);
    // Slow condition: two dependent divides delay the branch's
    // resolution well past the alternate path's fetch time.
    b.li(4, 1);
    b.divq(1, 1, 4);
    b.divq(1, 1, 4);
    b.andi(2, 1, 255);
    b.slti(2, 2, 205); // ~80% taken
    Label cfm_l = b.newLabel();
    Addr branch = b.bne(2, 0, cfm_l); // taken -> CFM directly
    // The fall-through arm is longer than the ROB: the alternate path
    // can never reach the CFM before the branch resolves.
    for (int i = 0; i < 700; ++i)
        b.addi(5, 5, 1);
    b.bind(cfm_l);
    b.xor_(6, 6, 5);
    epilogue(b, loop);
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(p.fetch(branch).target);
    p.setMark(branch, mark);

    core::CoreParams params = dmpAll();
    params.maxDpredPathInsts = 4096; // do not cap the alternate path
    core::Core machine(p, params);
    machine.run();
    ASSERT_TRUE(machine.halted());

    const core::CoreStats &st = machine.stats();
    EXPECT_GT(st.exitCase[2].value(), 30u) << "case 3 expected";
    EXPECT_GT(st.exitCase[3].value(), 10u) << "case 4 expected";

    test::expectCoreMatchesReference(p, params, "cases34");
}

/**
 * CFM reachable only through the fall-through side, branch biased
 * taken: the predicted (taken) path never reaches the CFM point before
 * resolution -> cases 5 (correct) and 6 (mispredicted, normal flush).
 */
TEST(ExitCases, UnreachableCfmOnPredictedPathProducesCases5And6)
{
    ProgramBuilder b;
    prologue(b, 400);
    Label loop = b.newLabel();
    b.bind(loop);
    lcg(b, 1);
    b.andi(2, 1, 255);
    b.slti(2, 2, 205); // ~80% taken
    Label taken_l = b.newLabel(), cont = b.newLabel();
    Addr branch = b.bne(2, 0, taken_l);
    // Fall-through arm: contains the marked "CFM".
    b.addi(5, 5, 1);
    Addr cfm_in_arm = b.addi(5, 5, 2);
    b.addi(5, 5, 3);
    b.jmp(cont);
    b.bind(taken_l); // taken arm never touches the marked address
    b.addi(5, 5, 7);
    b.bind(cont);
    b.xor_(6, 6, 5);
    epilogue(b, loop);
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(cfm_in_arm);
    p.setMark(branch, mark);

    core::Core machine(p, dmpAll());
    machine.run();
    ASSERT_TRUE(machine.halted());

    const core::CoreStats &st = machine.stats();
    EXPECT_GT(st.exitCase[4].value(), 50u) << "case 5 expected";
    EXPECT_GT(st.exitCase[5].value(), 10u) << "case 6 expected";
    // Case 6 is a conventional flush.
    EXPECT_GE(st.pipelineFlushes.value(), st.exitCase[5].value());

    test::expectCoreMatchesReference(p, dmpAll(), "cases56");
}

/**
 * Early exit (section 2.7.2) converts would-be case-3 episodes: with
 * the enhancement on and a small threshold, case 3 disappears and
 * early_exits appear instead.
 */
TEST(ExitCases, EarlyExitReplacesCase3)
{
    ProgramBuilder b;
    prologue(b, 400);
    Label loop = b.newLabel();
    b.bind(loop);
    lcg(b, 1);
    b.li(4, 1);
    b.divq(1, 1, 4);
    b.divq(1, 1, 4);
    b.andi(2, 1, 255);
    b.slti(2, 2, 205);
    Label cfm_l = b.newLabel();
    Addr branch = b.bne(2, 0, cfm_l);
    for (int i = 0; i < 700; ++i)
        b.addi(5, 5, 1);
    b.bind(cfm_l);
    b.xor_(6, 6, 5);
    epilogue(b, loop);
    Program p = b.build();

    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(p.fetch(branch).target);
    mark.earlyExitThreshold = 24;
    p.setMark(branch, mark);

    core::CoreParams params = dmpAll();
    params.enhEarlyExit = true;
    params.maxDpredPathInsts = 4096;
    core::Core machine(p, params);
    machine.run();
    ASSERT_TRUE(machine.halted());

    const core::CoreStats &st = machine.stats();
    // A handful of case-3 exits can still occur during cache warmup
    // (an I-cache miss stalls the alternate path long enough for the
    // branch to resolve before the threshold is reached).
    EXPECT_LE(st.exitCase[2].value(), 8u);
    EXPECT_GT(st.earlyExits.value(), 30u);

    test::expectCoreMatchesReference(p, params, "early_exit");
}

/**
 * Multiple CFM points (section 2.7.1): a branch whose two sides merge
 * at one of two alternative points. With a single marked CFM half the
 * episodes cannot exit normally; with both marked they all do.
 */
TEST(ExitCases, MultipleCfmPointsRecoverMerges)
{
    auto build = [](Addr *branch_out, Addr *h1_out, Addr *h2_out) {
        ProgramBuilder b;
        prologue(b, 400);
        Label loop = b.newLabel();
        b.bind(loop);
        lcg(b, 1);
        b.andi(2, 1, 1);
        b.andi(3, 1, 2); // second random bit picks the merge point
        Label arm2 = b.newLabel(), h1 = b.newLabel(), h2 = b.newLabel(),
              out = b.newLabel();
        Addr branch = b.beq(2, 0, arm2);
        b.addi(5, 5, 1);
        b.beq(3, 0, h2);
        b.jmp(h1);
        b.bind(arm2);
        b.addi(5, 5, 2);
        b.beq(3, 0, h2);
        b.jmp(h1);
        b.bind(h1);
        Addr h1a = b.addi(6, 6, 1);
        b.jmp(out);
        b.bind(h2);
        Addr h2a = b.addi(6, 6, 2);
        b.bind(out);
        b.xor_(7, 7, 6);
        for (int i = 0; i < 400; ++i)
            b.addi(8, 8, 1); // keep next-iteration addresses far away
        epilogue(b, loop);
        *branch_out = branch;
        *h1_out = h1a;
        *h2_out = h2a;
        return b.build();
    };

    Addr branch, h1, h2;
    Program single = build(&branch, &h1, &h2);
    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints = {h1};
    single.setMark(branch, mark);

    core::CoreParams basic = dmpAll();
    core::Core m1(single, basic);
    m1.run();
    std::uint64_t merged_single =
        m1.stats().exitCase[0].value() + m1.stats().exitCase[1].value();

    Program multi = build(&branch, &h1, &h2);
    mark.cfmPoints = {h1, h2};
    multi.setMark(branch, mark);
    core::CoreParams mcfm = dmpAll();
    mcfm.enhMultiCfm = true;
    core::Core m2(multi, mcfm);
    m2.run();
    std::uint64_t merged_multi =
        m2.stats().exitCase[0].value() + m2.stats().exitCase[1].value();

    EXPECT_GT(merged_multi, merged_single + 50);
    test::expectCoreMatchesReference(multi, mcfm, "mcfm");
}

} // namespace
} // namespace dmp
