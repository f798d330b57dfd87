/**
 * @file
 * Fault-injection precision tests for the self-checker: each FaultKind
 * corrupts exactly one invariant inside a live core, and the checker
 * must produce exactly the expected finding — right code, a real cycle,
 * a structure id — with no masking by neighboring checks and a
 * non-empty first-divergence diagnosis.
 */

#include <gtest/gtest.h>

#include <string>

#include "../testutil.hh"
#include "analysis/report.hh"
#include "check/checker.hh"
#include "isa/program.hh"

namespace dmp
{
namespace
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

/**
 * A loop with data-dependent branches (checkpoints + mispredict
 * flushes), stores and a load (store-buffer occupancy), and steady
 * retirement — every fault kind finds its injection window here.
 */
Program
faultProgram()
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 800);
    b.li(14, 0x2b5e3);
    b.li(20, 4096); // store base
    Label loop = b.newLabel();
    Label skip = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(1, 1, 1);
    b.beq(1, 0, skip); // ~50% taken: mispredicts, live checkpoints
    b.addi(2, 2, 3);
    b.bind(skip);
    b.st(20, 0, 2);
    b.st(20, 8, 14);
    b.ld(3, 20, 0);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    return b.build();
}

struct Failure
{
    analysis::Report report;
    std::string diagnosis;
    std::string what;
    bool fired = false;
};

/**
 * Run the program with the fault armed and return the check failure.
 * deepStride=1 so a corruption is observed before the structure it
 * lives in can be legally recycled (e.g. a clobbered checkpoint being
 * released when its branch resolves).
 */
Failure
runExpectFailure(const core::CoreParams &params, check::FaultPlan plan,
                 check::Mode mode = check::Mode::All)
{
    Program prog = faultProgram();
    core::Core machine(prog, params);
    check::CheckerOptions opts;
    opts.mode = mode;
    opts.deepStride = 1;
    check::CoreChecker checker(prog, machine, opts);
    checker.injectFault(plan);
    machine.addObserver(&checker);
    Failure f;
    try {
        machine.run(~0ULL, 2'000'000);
    } catch (const check::CheckError &e) {
        EXPECT_TRUE(checker.faultInjected());
        f.report = e.report();
        f.diagnosis = e.diagnosis();
        f.what = e.what();
        f.fired = true;
        return f;
    }
    ADD_FAILURE() << "fault kind " << int(plan.kind)
                  << " did not produce a check failure (injected="
                  << checker.faultInjected() << ")";
    return f;
}

/** Exactly one Error finding with the expected code and locations. */
void
expectPreciseFinding(const Failure &f, const std::string &code)
{
    if (!f.fired)
        return; // runExpectFailure already reported
    ASSERT_EQ(f.report.size(), 1u)
        << "fail-fast checker must carry exactly one finding:\n"
        << f.report.text();
    const analysis::Finding &fi = f.report.findings()[0];
    EXPECT_EQ(fi.code, code) << f.report.text();
    EXPECT_EQ(fi.severity, analysis::Severity::Error);
    EXPECT_GE(fi.cycle, 0) << "dynamic finding must carry its cycle";
    EXPECT_FALSE(fi.object.empty()) << "must name the broken structure";
    EXPECT_FALSE(fi.message.empty());
    EXPECT_FALSE(f.diagnosis.empty()) << "first-divergence dump missing";
    EXPECT_NE(f.what.find(code), std::string::npos)
        << "what() should embed the finding: " << f.what;
}

TEST(FaultInjection, LeakPhysRegFiresPhysRegLeak)
{
    Failure f = runExpectFailure(sim::machine("base"),
                                 {check::FaultKind::LeakPhysReg, 0});
    expectPreciseFinding(f, "phys-reg-leak");
    if (f.fired) {
        EXPECT_EQ(f.report.findings()[0].object.rfind("prf:", 0), 0u);
    }
}

TEST(FaultInjection, ReorderStoreFiresSbOrder)
{
    Failure f = runExpectFailure(sim::machine("base"),
                                 {check::FaultKind::ReorderStore, 0});
    expectPreciseFinding(f, "sb-order");
    if (f.fired) {
        EXPECT_EQ(f.report.findings()[0].object.rfind("sb:", 0), 0u);
    }
}

TEST(FaultInjection, RobSeqSwapFiresRobAgeOrder)
{
    Failure f = runExpectFailure(sim::machine("base"),
                                 {check::FaultKind::RobSeqSwap, 0});
    expectPreciseFinding(f, "rob-age-order");
    if (f.fired) {
        EXPECT_EQ(f.report.findings()[0].object.rfind("rob:", 0), 0u);
    }
}

TEST(FaultInjection, DanglingPredicateFires)
{
    Failure f = runExpectFailure(sim::machine("base"),
                                 {check::FaultKind::DanglingPredicate, 0});
    expectPreciseFinding(f, "dangling-predicate");
}

TEST(FaultInjection, ClobberCheckpointFiresRatMapsFreedReg)
{
    // Baseline mode: predication is quiescent, so checkpoint RAT
    // validity is checked unconditionally (see DESIGN.md on the
    // quiescence gate).
    Failure f = runExpectFailure(sim::machine("base"),
                                 {check::FaultKind::ClobberCheckpoint, 0});
    expectPreciseFinding(f, "rat-maps-freed-reg");
    if (f.fired) {
        EXPECT_EQ(f.report.findings()[0].object.rfind("cp:", 0), 0u);
    }
}

TEST(FaultInjection, SkipFuncSimStepFiresLockstepPc)
{
    // Lockstep-only mode: proves the oracle catches the divergence on
    // its own, with no structural pass running.
    Failure f = runExpectFailure(sim::machine("base"),
                                 {check::FaultKind::SkipFuncSimStep, 0},
                                 check::Mode::Lockstep);
    expectPreciseFinding(f, "lockstep-pc");
}

/** notBefore delays the injection, and the finding's cycle shows it. */
TEST(FaultInjection, NotBeforeDelaysInjection)
{
    Failure f = runExpectFailure(sim::machine("base"),
                                 {check::FaultKind::RobSeqSwap, 500});
    expectPreciseFinding(f, "rob-age-order");
    if (f.fired) {
        EXPECT_GE(f.report.findings()[0].cycle, 500);
    }
}

/** An armed-but-never-matching plan must not fail a clean run. */
TEST(FaultInjection, UnarmedPlanLeavesRunClean)
{
    Program prog = faultProgram();
    core::Core machine(prog, sim::machine("base"));
    check::CheckerOptions opts;
    opts.deepStride = 1;
    check::CoreChecker checker(prog, machine, opts);
    checker.injectFault({check::FaultKind::None, 0});
    machine.addObserver(&checker);
    EXPECT_NO_THROW(machine.run(~0ULL, 2'000'000));
    EXPECT_TRUE(machine.halted());
    EXPECT_FALSE(checker.faultInjected());
    EXPECT_GT(checker.checkedCommits(), 0u);
}

} // namespace
} // namespace dmp
