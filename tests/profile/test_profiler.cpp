/**
 * @file
 * Tests for the compiler/profiling passes: branch profiling, CFM
 * discovery (including first-reconvergence crediting and the 120-
 * instruction bound), the section 3.2 marking heuristics, and a golden
 * digest of every profiler output over the workloads and a random-
 * program sweep.
 */

#include <bit>
#include <cstdio>
#include <iterator>
#include <string>
#include <gtest/gtest.h>

#include "isa/isa.hh"
#include "isa/program.hh"
#include "profile/profiler.hh"
#include "workloads/workloads.hh"

namespace dmp::profile
{
namespace
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

constexpr std::size_t kMem = 16 * 1024 * 1024;

/** Loop with one random hammock and one biased branch. */
Program
mixedProgram(unsigned iters = 2000, Addr *branch_out = nullptr)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, std::int64_t(iters));
    b.li(14, 0x9e37);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(2, 0, els); // the random hammock
    if (branch_out)
        *branch_out = branch;
    b.addi(5, 5, 3);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 7);
    b.bind(join);
    // Biased branch: taken unless (r1 & 255) == 0.
    b.andi(3, 1, 255);
    Label skip = b.newLabel();
    b.bne(3, 0, skip);
    b.addi(6, 6, 1);
    b.bind(skip);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    return b.build();
}

TEST(BranchProfiler, CountsExecutionsAndMispredicts)
{
    Addr hammock_pc = 0;
    Program p = mixedProgram(2000, &hammock_pc);
    BranchProfile bp = profileBranches(p, kMem, 1u << 20);
    EXPECT_GT(bp.totalInsts, 10000u);
    EXPECT_GT(bp.totalCondBranches, 5000u);
    EXPECT_GT(bp.totalMispredicts, 500u);

    const BranchStats &hammock = bp.branches.at(hammock_pc);
    EXPECT_GT(hammock.execs, 1900u);
    // ~50% mispredicted.
    EXPECT_GT(hammock.mispredicts, hammock.execs / 3);
    EXPECT_FALSE(hammock.isBackward);

    // The loop back-edge is backward and well predicted.
    bool found_backward = false;
    for (const auto &[pc, bs] : bp.branches) {
        if (bs.isBackward) {
            found_backward = true;
            EXPECT_LT(bs.mispredicts, bs.execs / 20);
        }
    }
    EXPECT_TRUE(found_backward);
}

TEST(CfmProfiler, FindsHammockJoin)
{
    Addr hammock_pc = 0;
    Program p = mixedProgram(2000, &hammock_pc);
    MarkerConfig cfg;
    auto profiles =
        profileCfmPoints(p, kMem, 1u << 20, {hammock_pc}, cfg);
    ASSERT_TRUE(profiles.count(hammock_pc));
    const CfmProfile &prof = profiles.at(hammock_pc);
    ASSERT_FALSE(prof.candidates.empty());
    // Best candidate: the join (the else arm's first instruction is the
    // branch target; the join follows it).
    EXPECT_EQ(prof.candidates[0].addr, p.fetch(hammock_pc).target + 4);
    EXPECT_GT(prof.candidates[0].takenFraction, 0.95);
    EXPECT_GT(prof.candidates[0].notTakenFraction, 0.95);
    EXPECT_LT(prof.candidates[0].meanDistance, 10.0);
}

TEST(CfmProfiler, DistanceBoundExcludesFarMerges)
{
    // Arms longer than maxCfmDistance: no CFM may be found.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 500);
    b.li(14, 0x77);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(2, 0, els);
    for (int i = 0; i < 140; ++i)
        b.addi(5, 5, 1);
    b.jmp(join);
    b.bind(els);
    for (int i = 0; i < 140; ++i)
        b.addi(5, 5, 2);
    b.bind(join);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    MarkerConfig cfg;
    auto profiles = profileCfmPoints(p, kMem, 1u << 20, {branch}, cfg);
    EXPECT_EQ(profiles.count(branch), 0u);
}

TEST(CfmProfiler, FirstReconvergenceCreditingFindsAlternatives)
{
    // Two alternative merge points selected by an independent random
    // bit: both must surface as distinct CFM candidates rather than a
    // prefix of one merge body.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 2000);
    b.li(14, 0xabcd);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    b.andi(3, 1, 2);
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
    for (int i = 0; i < 10; ++i)
        b.addi(7, 7, 1);
    b.jmp(out);
    b.bind(h2);
    Addr h2a = b.addi(6, 6, 2);
    for (int i = 0; i < 10; ++i)
        b.addi(7, 7, 2);
    b.bind(out);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    MarkerConfig cfg;
    auto profiles = profileCfmPoints(p, kMem, 1u << 20, {branch}, cfg);
    ASSERT_TRUE(profiles.count(branch));
    const auto &cands = profiles.at(branch).candidates;
    ASSERT_GE(cands.size(), 2u);
    std::vector<Addr> top = {cands[0].addr, cands[1].addr};
    EXPECT_TRUE((top[0] == h1a && top[1] == h2a) ||
                (top[0] == h2a && top[1] == h1a));
}

/**
 * Loop whose branch B alternates direction (taken on even r10) over
 * one-instruction arms that meet at the returned join J.
 */
Program
alternatingProgram(unsigned iters, Addr *branch_out, Addr *join_out)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, std::int64_t(iters));
    Label loop = b.newLabel(), els = b.newLabel(), join = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    *branch_out = b.beq(2, 0, els);
    b.addi(5, 5, 1);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 2);
    b.bind(join);
    *join_out = b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    return b.build();
}

TEST(CfmProfiler, WindowOpenAtBudgetEndStillCounts)
{
    // Iterations take 5 (taken) and 6 (not-taken) instructions after a
    // 2-instruction prologue, so a budget of 4 + 11 * 10 retires B of
    // the 11th taken instance as the very last instruction. Its window
    // is still open: it counts as an instance but never reaches J.
    Addr branch = 0, join = 0;
    Program p = alternatingProgram(1000, &branch, &join);
    MarkerConfig cfg;
    cfg.cfmSampleRate = 1;
    auto profiles =
        profileCfmPoints(p, kMem, 4 + 11 * 10, {branch}, cfg);
    ASSERT_TRUE(profiles.count(branch));
    const auto &cands = profiles.at(branch).candidates;
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].addr, join);
    EXPECT_EQ(cands[0].takenFraction, 10.0 / 11.0);
    EXPECT_EQ(cands[0].notTakenFraction, 1.0);
    // J is 2 instructions after a taken B and 3 after a not-taken one.
    EXPECT_EQ(cands[0].meanDistance, 2.5);
}

TEST(CfmProfiler, HaltAtImageEndInsideWindow)
{
    // The last taken instance leaves the loop from inside its arm and
    // retires the image's final HALT, whose successor is one past the
    // image, while its window is open.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 3);
    Label loop = b.newLabel(), els = b.newLabel(), join = b.newLabel(),
          done = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    b.addi(10, 10, 1);
    Addr branch = b.beq(2, 0, els); // taken on old r10 = 0, 2
    b.addi(5, 5, 1);
    b.jmp(join);
    b.bind(els);
    b.bge(10, 11, done);
    b.bind(join);
    Addr join_addr = b.addi(6, 6, 1);
    b.jmp(loop);
    b.bind(done);
    b.halt();
    Program p = b.build();

    BranchProfile bp = profileBranches(p, kMem, 1000);
    EXPECT_EQ(bp.totalInsts, 2u + 6u + 7u + 5u);

    MarkerConfig cfg;
    cfg.cfmSampleRate = 1;
    auto profiles = profileCfmPoints(p, kMem, 1000, {branch}, cfg);
    ASSERT_TRUE(profiles.count(branch));
    const auto &cands = profiles.at(branch).candidates;
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].addr, join_addr);
    EXPECT_EQ(cands[0].takenFraction, 0.5); // the halting instance
    EXPECT_EQ(cands[0].notTakenFraction, 1.0);
    EXPECT_EQ(cands[0].meanDistance, 2.5);

    cfg.profileInsts = 1000;
    cfg.minMispredictRate = 0;
    Program marked = p;
    profileAndMark(marked, kMem, cfg);
    for (const auto &[pc, mark] : marked.allMarks()) {
        for (Addr cfm : mark.cfmPoints)
            EXPECT_TRUE(marked.contains(cfm));
    }
}

TEST(CfmProfiler, IgnoresDuplicateNonBranchAndOutsideCandidates)
{
    Addr hammock_pc = 0;
    Program p = mixedProgram(2000, &hammock_pc);
    MarkerConfig cfg;
    const auto ref =
        profileCfmPoints(p, kMem, 1u << 20, {hammock_pc}, cfg);
    ASSERT_EQ(ref.size(), 1u);

    const Addr non_branch = p.baseAddr(); // li r10, 0
    ASSERT_FALSE(isa::isCondBranch(p.fetch(non_branch).op));
    const Addr outside = p.endAddr() + 64;
    const auto got = profileCfmPoints(
        p, kMem, 1u << 20,
        {hammock_pc, non_branch, hammock_pc, outside}, cfg);
    ASSERT_EQ(got.size(), 1u);
    const auto &want = ref.at(hammock_pc).candidates;
    const auto &have = got.at(hammock_pc).candidates;
    ASSERT_EQ(have.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(have[i].addr, want[i].addr);
        EXPECT_EQ(have[i].takenFraction, want[i].takenFraction);
        EXPECT_EQ(have[i].notTakenFraction, want[i].notTakenFraction);
        EXPECT_EQ(have[i].meanDistance, want[i].meanDistance);
    }
}

TEST(CfmProfiler, TightLoopClosesWindowAtDistanceTwo)
{
    // B counts r2 down through the decrement D right before it: a
    // taken B re-executes two instructions later, so its window holds
    // only D (distance 1) and B (distance 2). A not-taken B walks the
    // 9-instruction outer loop back to D.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 500);
    b.li(14, 0x7a11);
    Label outer = b.newLabel(), dec = b.newLabel();
    b.bind(outer);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 3);
    b.addi(2, 2, 1); // 1..4 trips
    b.bind(dec);
    Addr dec_addr = b.addi(2, 2, -1);
    Addr branch = b.bne(2, 0, dec);
    b.addi(10, 10, 1);
    b.blt(10, 11, outer);
    b.halt();
    Program p = b.build();

    MarkerConfig cfg;
    cfg.cfmSampleRate = 1;
    auto profiles = profileCfmPoints(p, kMem, 1u << 20, {branch}, cfg);
    ASSERT_TRUE(profiles.count(branch));
    const auto &cands = profiles.at(branch).candidates;
    // A window that ran on past B would reach the outer loop on the
    // taken side too, and first-reconvergence crediting would then
    // leave no address credited on both sides.
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].addr, dec_addr);
    EXPECT_EQ(cands[0].takenFraction, 1.0);
    // The final not-taken instance halts before reaching D.
    EXPECT_EQ(cands[0].notTakenFraction, 499.0 / 500.0);
    EXPECT_EQ(cands[0].meanDistance, (1.0 + 8.0) / 2.0);
}

TEST(CfmProfiler, QualifyingCountsEachAddressOncePerWindow)
{
    // 1 in 8 taken instances spins 4 times through the loop L before
    // the join M; half the not-taken ones pass L once. Counted once
    // per window, L reaches 1/8 of taken instances and does not
    // qualify, so every instance credits M first. Counting L's repeats
    // would qualify it and steal M's not-taken credit.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 800);
    Label loop = b.newLabel(), tarm = b.newLabel(), l = b.newLabel(),
          m = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    b.andi(3, 10, 14);
    b.andi(4, 10, 2);
    Addr branch = b.beq(2, 0, tarm); // taken on even r10
    b.beq(4, 0, m);
    b.li(7, 1);
    b.jmp(l);
    b.bind(tarm);
    b.bne(3, 0, m);
    b.li(7, 4);
    b.bind(l);
    b.addi(7, 7, -1);
    b.blt(0, 7, l);
    b.bind(m);
    Addr join = b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    MarkerConfig cfg;
    cfg.cfmSampleRate = 1;
    auto profiles = profileCfmPoints(p, kMem, 1u << 20, {branch}, cfg);
    ASSERT_TRUE(profiles.count(branch));
    const auto &cands = profiles.at(branch).candidates;
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].addr, join);
    EXPECT_EQ(cands[0].takenFraction, 1.0);
    EXPECT_EQ(cands[0].notTakenFraction, 1.0);
    // Taken: 350 at distance 2, 50 at 11. Not taken: 200 at 2, 200 at 6.
    EXPECT_EQ(cands[0].meanDistance, (3.125 + 4.0) / 2.0);
}

TEST(CfmProfiler, ExactTiesOrderByAddress)
{
    // Bit 1 of r10 sends each side to H1 or H2 in turn, both 3
    // instructions after B: the two candidates tie exactly on score
    // and mean distance, and the lower address comes first.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 400);
    Label loop = b.newLabel(), tarm = b.newLabel(), nt2 = b.newLabel(),
          t2 = b.newLabel(), h1 = b.newLabel(), h2 = b.newLabel(),
          out = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    b.andi(3, 10, 2);
    Addr branch = b.beq(2, 0, tarm);
    b.beq(3, 0, nt2);
    b.jmp(h1);
    b.bind(nt2);
    b.jmp(h2);
    b.bind(tarm);
    b.beq(3, 0, t2);
    b.jmp(h1);
    b.bind(t2);
    b.jmp(h2);
    b.bind(h1);
    Addr h1a = b.addi(6, 6, 1);
    b.jmp(out);
    b.bind(h2);
    Addr h2a = b.addi(6, 6, 2);
    b.bind(out);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    MarkerConfig cfg;
    cfg.cfmSampleRate = 1;
    auto profiles = profileCfmPoints(p, kMem, 1u << 20, {branch}, cfg);
    ASSERT_TRUE(profiles.count(branch));
    const auto &cands = profiles.at(branch).candidates;
    ASSERT_EQ(cands.size(), 2u);
    EXPECT_EQ(cands[0].addr, h1a);
    EXPECT_EQ(cands[1].addr, h2a);
    for (const CfmCandidate &c : cands) {
        EXPECT_EQ(c.takenFraction, 0.5);
        EXPECT_EQ(c.notTakenFraction, 0.5);
        EXPECT_EQ(c.meanDistance, 3.0);
    }
}

/**
 * Every instance of `branch` in the first `budget` instructions of `p`
 * reconverges at `join` and nowhere earlier: `join` is the only
 * candidate, reached at mean distance `mean` over both sides.
 */
void
expectOnlyCfm(const Program &p, Addr branch, std::uint64_t budget,
              Addr join, double mean)
{
    MarkerConfig cfg;
    cfg.cfmSampleRate = 1;
    auto profiles = profileCfmPoints(p, kMem, budget, {branch}, cfg);
    ASSERT_TRUE(profiles.count(branch));
    const auto &cands = profiles.at(branch).candidates;
    ASSERT_EQ(cands.size(), 1u);
    EXPECT_EQ(cands[0].addr, join);
    EXPECT_EQ(cands[0].takenFraction, 1.0);
    EXPECT_EQ(cands[0].notTakenFraction, 1.0);
    EXPECT_EQ(cands[0].meanDistance, mean);
}

TEST(CfmProfiler, TakenBranchIsFirstJumpOfItsWindow)
{
    // A taken B jumps straight to J, so the jump that opens each taken
    // window is B itself: J lies 1 instruction away when taken and 2
    // when not.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 400);
    Label loop = b.newLabel(), join = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    Addr branch = b.beq(2, 0, join);
    b.addi(5, 5, 1);
    b.bind(join);
    Addr join_addr = b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    expectOnlyCfm(b.build(), branch, 1u << 20, join_addr, 1.5);
}

TEST(CfmProfiler, BackToBackJumpsInOneWindow)
{
    // The taken side runs a chain of three jumps (T1 -> T2 -> T3 -> J)
    // laid out out of order, so J lies 4 instructions away; the
    // not-taken side reaches it at 3.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 400);
    Label loop = b.newLabel(), t1 = b.newLabel(), t2 = b.newLabel(),
          t3 = b.newLabel(), join = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    Addr branch = b.beq(2, 0, t1);
    b.addi(5, 5, 1);
    b.jmp(join);
    b.bind(t1);
    b.jmp(t2);
    b.bind(t3);
    b.jmp(join);
    b.bind(t2);
    b.jmp(t3);
    b.bind(join);
    Addr join_addr = b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    expectOnlyCfm(b.build(), branch, 1u << 20, join_addr, 3.5);
}

TEST(CfmProfiler, IndirectJumpAndReturnSuccessors)
{
    // Taken: JR through r20 to J (distance 2). Not taken: CALL F,
    // whose RET comes back to the JMP after the call (distance 5).
    ProgramBuilder b;
    constexpr Addr kJoin = 0x1000 + 8 * isa::kInstBytes;
    b.li(10, 0);
    b.li(11, 400);
    b.li(20, std::int64_t(kJoin));
    Label loop = b.newLabel(), tk = b.newLabel(), join = b.newLabel(),
          fn = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    Addr branch = b.beq(2, 0, tk);
    b.call(fn);
    b.jmp(join);
    b.bind(tk);
    b.jr(20);
    b.bind(join);
    ASSERT_EQ(b.addi(10, 10, 1), kJoin);
    b.blt(10, 11, loop);
    b.halt();
    b.bind(fn);
    b.addi(6, 6, 1);
    b.ret();
    expectOnlyCfm(b.build(), branch, 1u << 20, kJoin, 3.5);
}

/**
 * alternatingProgram's loop over 10 iterations (55 instructions after
 * a 2-instruction prologue) with no HALT: the image ends with the
 * loop branch, or with a JR out of the image when `exit_out`.
 */
Program
endlessProgram(bool exit_out, Addr *branch_out, Addr *join_out)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 10);
    Label loop = b.newLabel(), els = b.newLabel(), join = b.newLabel();
    b.bind(loop);
    b.andi(2, 10, 1);
    *branch_out = b.beq(2, 0, els);
    b.addi(5, 5, 1);
    b.jmp(join);
    b.bind(els);
    b.addi(5, 5, 2);
    b.bind(join);
    *join_out = b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    if (exit_out)
        b.jr(0); // to address 0, below the image
    return b.build();
}

TEST(CfmProfiler, JumpOutOfImageOnLastBudgetedInstruction)
{
    // The budget ends on the JR, whose successor lies outside the
    // image, inside the last (not-taken) instance's open window.
    Addr branch = 0, join = 0;
    Program p = endlessProgram(true, &branch, &join);
    EXPECT_EQ(profileBranches(p, kMem, 58).totalInsts, 58u);
    expectOnlyCfm(p, branch, 58, join, 2.5);
}

TEST(CfmProfiler, FallOffLastInstruction)
{
    // The last instruction is the loop branch: not taken, it falls
    // off the image inside the last instance's open window.
    Addr branch = 0, join = 0;
    Program p = endlessProgram(false, &branch, &join);
    BranchProfile bp = profileBranches(p, kMem, 57);
    EXPECT_EQ(bp.totalInsts, 57u);
    EXPECT_EQ(bp.totalCondBranches, 20u);
    expectOnlyCfm(p, branch, 57, join, 2.5);
}

TEST(ProfilerDeath, ZeroSampleRateIsFatal)
{
    Addr hammock_pc = 0;
    Program p = mixedProgram(200, &hammock_pc);
    MarkerConfig cfg;
    cfg.cfmSampleRate = 0;
    cfg.profileInsts = 10000;
    EXPECT_DEATH(profileCfmPoints(p, kMem, 10000, {hammock_pc}, cfg),
                 "cfmSampleRate");
    EXPECT_DEATH(profileAndMark(p, kMem, cfg), "cfmSampleRate");
}

TEST(ProfilerDeath, ZeroDistanceBoundIsFatal)
{
    Addr hammock_pc = 0;
    Program p = mixedProgram(200, &hammock_pc);
    MarkerConfig cfg;
    cfg.maxCfmDistance = 0;
    cfg.profileInsts = 10000;
    EXPECT_DEATH(profileCfmPoints(p, kMem, 10000, {hammock_pc}, cfg),
                 "maxCfmDistance");
    EXPECT_DEATH(profileAndMark(p, kMem, cfg), "maxCfmDistance");
}

TEST(Marker, MarksHardHammockAndSkipsBiasedBranch)
{
    Addr hammock_pc = 0;
    Program p = mixedProgram(2000, &hammock_pc);
    MarkerConfig cfg;
    cfg.profileInsts = 1u << 20;
    MarkingReport report = profileAndMark(p, kMem, cfg);

    const isa::DivergeMark *hard = p.mark(hammock_pc);
    ASSERT_NE(hard, nullptr);
    EXPECT_TRUE(hard->isDiverge);
    EXPECT_TRUE(hard->isSimpleHammock); // static CFG shape
    EXPECT_GT(hard->earlyExitThreshold, 0u);

    // The biased branch must not be a diverge branch (rate floor).
    for (const auto &[pc, mark] : p.allMarks()) {
        if (pc == hammock_pc)
            continue;
        EXPECT_FALSE(mark.isDiverge)
            << "unexpected diverge mark at " << std::hex << pc;
    }
    EXPECT_GE(report.markedDiverge, 1u);
    EXPECT_GE(report.markedSimpleHammock, 2u);
}

TEST(Marker, ClassificationCoversAllMispredicts)
{
    Program p = mixedProgram();
    MarkerConfig cfg;
    cfg.profileInsts = 1u << 20;
    MarkingReport r = profileAndMark(p, kMem, cfg);
    EXPECT_EQ(r.classification.simpleHammockDiverge +
                  r.classification.complexDiverge +
                  r.classification.otherComplex,
              r.profile.totalMispredicts);
    // The hammock dominates and is a simple hammock.
    EXPECT_GT(r.classification.simpleHammockDiverge,
              r.profile.totalMispredicts / 2);
}

TEST(Marker, LoopBranchesOnlyWithExtension)
{
    // Random-trip inner loop: its backward branch is hard to predict.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 1500);
    b.li(14, 0x5eed);
    Label outer = b.newLabel();
    b.bind(outer);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 3);
    Label inner = b.newLabel();
    b.bind(inner);
    b.addi(5, 5, 1);
    b.addi(2, 2, -1);
    Addr back = b.blt(0, 2, inner);
    b.addi(10, 10, 1);
    b.blt(10, 11, outer);
    b.halt();
    Program p = b.build();

    MarkerConfig off;
    off.profileInsts = 1u << 20;
    profileAndMark(p, kMem, off);
    const isa::DivergeMark *m = p.mark(back);
    EXPECT_TRUE(m == nullptr || !m->isDiverge);

    MarkerConfig on = off;
    on.markLoopBranches = true;
    MarkingReport r = profileAndMark(p, kMem, on);
    m = p.mark(back);
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->isDiverge);
    EXPECT_TRUE(m->isLoopBranch);
    EXPECT_EQ(m->cfmPoints[0], back + 4); // the loop exit
    EXPECT_GE(r.markedLoop, 1u);
}

TEST(Marker, TransferMarksCopiesEverything)
{
    workloads::WorkloadParams train;
    train.iterations = 300;
    Program a = workloads::buildWorkload("vpr", train);
    MarkerConfig cfg;
    cfg.profileInsts = 100000;
    profileAndMark(a, kMem, cfg);
    ASSERT_FALSE(a.allMarks().empty());

    workloads::WorkloadParams ref;
    ref.iterations = 300;
    ref.seed = 0x123;
    Program b2 = workloads::buildWorkload("vpr", ref);
    transferMarks(a, b2);
    EXPECT_EQ(a.allMarks().size(), b2.allMarks().size());
    for (const auto &[pc, mark] : a.allMarks()) {
        const isa::DivergeMark *m = b2.mark(pc);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->isDiverge, mark.isDiverge);
        EXPECT_EQ(m->cfmPoints, mark.cfmPoints);
        EXPECT_EQ(m->earlyExitThreshold, mark.earlyExitThreshold);
    }
}

TEST(Marker, AllWorkloadsProduceSaneMarkings)
{
    for (const auto &info : workloads::workloadList()) {
        workloads::WorkloadParams wp;
        wp.iterations = 300;
        Program p = workloads::buildWorkload(info.name, wp);
        MarkerConfig cfg;
        cfg.profileInsts = 120000;
        MarkingReport r = profileAndMark(p, kMem, cfg);
        // Every mark must be structurally valid.
        for (const auto &[pc, mark] : p.allMarks()) {
            EXPECT_TRUE(isa::isCondBranch(p.fetch(pc).op));
            if (mark.isDiverge) {
                ASSERT_FALSE(mark.cfmPoints.empty());
                for (Addr cfm : mark.cfmPoints) {
                    EXPECT_TRUE(p.contains(cfm)) << info.name;
                    EXPECT_NE(cfm, pc);
                }
            }
        }
        // gcc must be other-complex dominated; parser/vpr diverge-heavy.
        if (info.name == "gcc") {
            EXPECT_GT(r.classification.otherComplex,
                      r.classification.complexDiverge);
        }
        if (info.name == "parser" || info.name == "vpr") {
            EXPECT_GT(r.classification.complexDiverge,
                      r.classification.otherComplex);
        }
        if (info.name == "mcf") {
            EXPECT_GT(r.classification.simpleHammockDiverge, 0u);
        }
    }
}

// ---------------------------------------------------------------------
// Golden digest: the complete output of profileBranches,
// profileCfmPoints (every executed conditional branch as a candidate)
// and profileAndMark (report counters and every mark) on the 15
// workloads at the train and ref data seeds plus a random-program
// sweep, under the default MarkerConfig and one that changes every
// CFM-window knob. The expected digests were taken from the three-pass
// profiler before it was rewritten over one recorded run (the knob
// config's three random(21,0), random(25,0) and random(25,1) digests
// were re-taken when the post-dominator fallback was removed from it);
// any change to the predictor, the window rules, the fraction or
// distance arithmetic, the candidate order or a program generator
// moves them.

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

    void add(const BranchProfile &bp)
    {
        add(bp.totalInsts);
        add(bp.totalCondBranches);
        add(bp.totalMispredicts);
        add(std::uint64_t(bp.branches.size()));
        for (const auto &[pc, bs] : bp.branches) {
            add(pc);
            add(bs.execs);
            add(bs.taken);
            add(bs.mispredicts);
            add(std::uint64_t(bs.isBackward));
        }
    }
};

/** One program of the golden set, named for failure messages. */
struct GoldenCase
{
    std::string name;
    Program prog;
};

std::vector<GoldenCase>
goldenPrograms()
{
    std::vector<GoldenCase> out;
    for (const auto &info : workloads::workloadList()) {
        // SimConfig's train and ref data seeds.
        for (const auto &[tag, seed] :
             {std::pair<const char *, std::uint64_t>{"train", 0x7e41a},
              {"ref", 0x4ef}}) {
            workloads::WorkloadParams p;
            p.seed = seed;
            out.push_back({info.name + "@" + tag,
                           workloads::buildWorkload(info.name, p)});
        }
    }
    for (std::uint64_t structure = 0; structure < 30; ++structure) {
        for (std::uint64_t data = 0; data < 2; ++data) {
            char name[48];
            std::snprintf(name, sizeof(name), "random(%llu,%llu)",
                          static_cast<unsigned long long>(structure),
                          static_cast<unsigned long long>(data));
            out.push_back({name, workloads::buildRandomProgram(
                                     0x5eed00 + structure,
                                     0xda7a00 + data)});
        }
    }
    return out;
}

/** The two golden marker configurations, default first. */
std::vector<MarkerConfig>
goldenConfigs()
{
    MarkerConfig knobs;
    knobs.cfmSampleRate = 1;
    knobs.maxCfmDistance = 30;
    knobs.markLoopBranches = true;
    return {MarkerConfig{}, knobs};
}

std::uint64_t
digestProfiler(const Program &prog, const MarkerConfig &cfg)
{
    Fnv f;
    const BranchProfile bp =
        profileBranches(prog, kMem, cfg.profileInsts);
    f.add(bp);

    std::vector<Addr> all_branches;
    for (const auto &[pc, bs] : bp.branches)
        all_branches.push_back(pc);
    const auto cfms = profileCfmPoints(prog, kMem, cfg.profileInsts,
                                       all_branches, cfg);
    f.add(std::uint64_t(cfms.size()));
    for (const auto &[pc, prof] : cfms) {
        f.add(pc);
        f.add(std::uint64_t(prof.candidates.size()));
        for (const CfmCandidate &c : prof.candidates) {
            f.add(c.addr);
            f.add(c.takenFraction);
            f.add(c.notTakenFraction);
            f.add(c.meanDistance);
        }
    }

    Program marked = prog;
    const MarkingReport r = profileAndMark(marked, kMem, cfg);
    f.add(r.profile);
    for (std::uint64_t v :
         {r.candidateBranches, r.markedDiverge, r.markedSimpleHammock,
          r.markedLoop, r.classification.simpleHammockDiverge,
          r.classification.complexDiverge, r.classification.otherComplex,
          r.classification.totalInsts})
        f.add(v);
    f.add(std::uint64_t(marked.allMarks().size()));
    for (const auto &[pc, m] : marked.allMarks()) {
        f.add(pc);
        f.add(std::uint64_t(m.isDiverge));
        f.add(std::uint64_t(m.isSimpleHammock));
        f.add(std::uint64_t(m.isLoopBranch));
        f.add(std::uint64_t(m.earlyExitThreshold));
        f.add(std::uint64_t(m.cfmPoints.size()));
        for (Addr a : m.cfmPoints)
            f.add(a);
    }
    return f.h;
}

/**
 * Expected digests in goldenPrograms() order, default config then the
 * knob config for each program.
 */
constexpr std::uint64_t kGoldenDigests[] = {
    0x3d23a95d8d8c6b37ull, 0x7c26e5726c112ae5ull, 0x6f0020af0a5d4805ull,
    0xe1c845b5923de1eaull, 0x815222b9c64f2776ull, 0xef2953e7cf0dd452ull,
    0x548a8f7d2c1c8902ull, 0xeb7417f0c42cd95cull, 0x12a7188dc849a226ull,
    0x1962a1f3593e2692ull, 0x4e21ecc7ff346af2ull, 0xfa876708925422faull,
    0x3542aba195f47bb8ull, 0xa906e61ac3cd6c5eull, 0xc4d8d478840d696cull,
    0xd4db33e99f495ff1ull, 0x83f0a1bafe4138a3ull, 0xf60a20528e37cb57ull,
    0x89a5105078e43c53ull, 0x2f2d222b32e255d2ull, 0x2b3a158ffa79fa4eull,
    0x135ad94fcb2aee66ull, 0x8503187013cd0208ull, 0x0e98da7e2700af82ull,
    0xe61a4b7f9364326dull, 0xb9ac876c32c778f1ull, 0xe9157b1ae8c600a5ull,
    0x7b79655467c1fcc5ull, 0xa8f069de560aa606ull, 0xbea292b36cd6f6e2ull,
    0x6f827c789f1efd36ull, 0xc56fca0f11e99006ull, 0x680be728b964b16full,
    0x1c8179edd5639fe2ull, 0x680be728b964b16full, 0x1c8179edd5639fe2ull,
    0x3f0085b5fef6ffbcull, 0x2db25697a69b73ddull, 0x8bb05d7682e9cc6aull,
    0x05f388f25389c75cull, 0xb17053739b603683ull, 0xe4002151c1aec098ull,
    0x3d6e4059ffb927abull, 0x4f12153519dcc8d6ull, 0x3421c059910b2dd0ull,
    0x9cb7384c29d9b152ull, 0x35a308b1c3d400b0ull, 0xf2b89a2fb713f886ull,
    0x7b75f00658c7f654ull, 0x4345deb11529542dull, 0x8e622207364916f2ull,
    0xad0416325204543bull, 0x23e286160b69e468ull, 0x50a93f0a588b70f1ull,
    0x1a39f211b2d44e31ull, 0x0741f8a28f7e3021ull, 0xf9886b022959949eull,
    0xca36523a1ccac819ull, 0x9ee8bce2a8ce9764ull, 0x42c8c4ca202363adull,
    0x2062c5a64ef40e72ull, 0x6de74396c87a5ec1ull, 0xaec3879ed30862ecull,
    0xb1f24b292070eb53ull, 0xe1d910e9fee20b08ull, 0xf8c493cd3091c71dull,
    0x8c48984136b2761cull, 0x78eada7edcb0ac0dull, 0x708fbfcdac5d1ae5ull,
    0x23f8f359e79ad8a4ull, 0xcca33fe2c1b097aaull, 0x9f348969966bc8a4ull,
    0x5392e4498831782eull, 0xbdfcbc1925363d80ull, 0x756986425bf3cadcull,
    0xfaa3a4a64f267ffaull, 0x44d75f0dcc9c6c94ull, 0xeb941af2d7e35d77ull,
    0x83f2e9bbfd51d5f6ull, 0x1c76605bdcaf9b9full, 0x521092ca18e68843ull,
    0x802c7344c16bda9dull, 0x1b10593bb3d8b085ull, 0xbe76a7ef579da649ull,
    0x32ebcfcc2932c0c6ull, 0x05806224d6e32a58ull, 0xc42baed0c1aef9adull,
    0x61a2b3fe9c684868ull, 0xf709fc573352ad0cull, 0xc0bbd9164f9870c9ull,
    0xd819271e8c7afe93ull, 0x553a23d14a206aa4ull, 0x6102c6464ce1844eull,
    0x6102c6464ce1844eull, 0x028fd9f9bf528952ull, 0x028fd9f9bf528952ull,
    0xd982183cdea41388ull, 0x00debb4ce448832cull, 0x1483c8e007f73c86ull,
    0xb1a9ed53709b0978ull, 0xbbf5547a6b4b7c3full, 0x50e2618812bdc60full,
    0x93dc9ef68e79f792ull, 0x3a161bf236893268ull, 0x924a3b30e6d8af4bull,
    0xdb71d0db115a5ac7ull, 0xba59e120da2494d0ull, 0x6c4d3ca24619d594ull,
    0xc5ede54ad286f5ffull, 0x2914b939605691b2ull, 0xaa0fc5fda5dcfe1aull,
    0xcbbe3b3f0425af0aull, 0xcaf524889b86cc3dull, 0xcaf524889b86cc3dull,
    0xee58c5cfbdc61ccdull, 0xee58c5cfbdc61ccdull, 0x652f7589e3ef141cull,
    0x2a5dba1d3c807f96ull, 0xad3159acc29febe3ull, 0x3721e10cbf4812fbull,
    0x68829a89cd9c26abull, 0x24d9e1e2b1838a30ull, 0x5a4eadcddc46114cull,
    0x204b517697746ab5ull, 0x1fb07c234b289b3dull, 0xcb96e891e0c15d77ull,
    0x9efd539c4a0c16feull, 0xd3b8cb083869643cull, 0x4c74b2ce27c5a07bull,
    0x017070df33a8504aull, 0xd8a39dc3baf8822dull, 0xb3fd7f47072f8d21ull,
    0x9fc4fd5278df98c8ull, 0xdfda125c53e6fbbcull, 0x98c3a008de225331ull,
    0xb2f4ff4cd9159a02ull, 0x929b97179255d2f9ull, 0x929b97179255d2f9ull,
    0xe4eaa0b7a4ac096aull, 0xe4eaa0b7a4ac096aull, 0x3899b4476a278b56ull,
    0x9b1f054b2bc07171ull, 0x05c43a43d708ed28ull, 0x562c65b5012310bdull,
    0x7dbf718da2a3ce1bull, 0x60f6b278726ea185ull, 0xf2e3ab9bf64005bcull,
    0xf8d594d74c42b0dbull, 0x25d0df12d49a3bfbull, 0x8abeae62765c85b2ull,
    0xb575d5dd6d99db55ull, 0xacd50c2e637c6c8full, 0x2209abd687edeaf5ull,
    0x74047dbc3b25c64full, 0x5dfc4328c864f617ull, 0x055184bdf1df06e3ull,
    0xfda514427e67bd52ull, 0x30630f63069e64efull, 0x7cf3f93651c4e329ull,
    0x0fc804535d83cbfeull, 0x0c0a056d3f7a3a7full, 0xbe2fd1f8336fc28eull,
    0xc71ef13dc6c733dbull, 0xbcd2ca5066547bcdull, 0x0d1b9bcc565ce476ull,
    0x6aba42456e8a52a4ull, 0xd7fe69e159733025ull, 0x2a5cdf379c101bd2ull,
    0x46aee972fcd79fb9ull, 0x33a6eb8454a13f75ull, 0x74c71def345a58e0ull,
    0x0eb331396fdcfb1full, 0x0750d40b4c59cb34ull, 0xfa8af526fb403e9cull,
    0x1a578df9618e4179ull, 0xfcf5e5d45b28e713ull, 0x10f53042cd0a2c14ull,
    0x53cd3c30cba499c2ull, 0x92fb9a94f4eccd56ull, 0x884aad8024cfe029ull
};

TEST(ProfilerGolden, DigestsMatchReference)
{
    const std::vector<GoldenCase> cases = goldenPrograms();
    const std::vector<MarkerConfig> configs = goldenConfigs();
    ASSERT_EQ(std::size(kGoldenDigests), configs.size() * cases.size());
    std::size_t at = 0;
    for (const GoldenCase &c : cases) {
        for (std::size_t k = 0; k < configs.size(); ++k) {
            const std::uint64_t got = digestProfiler(c.prog, configs[k]);
            ASSERT_EQ(got, kGoldenDigests[at++])
                << "first diverging program: " << c.name << " under the "
                << (k == 0 ? "default" : "knob") << " config (digest 0x"
                << std::hex << got << ")";
        }
    }
}

} // namespace
} // namespace dmp::profile
