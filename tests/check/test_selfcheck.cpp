/**
 * @file
 * Self-checker unit and integration tests: mode parsing, the
 * non-perturbation guarantee (an attached checker observes but never
 * changes timing), flush-recovery invariant passes under heavy
 * misprediction, CheckError/JSON surfaces, and SimConfig/BatchRunner
 * integration (a check failure fails that run's future, not the batch).
 */

#include <gtest/gtest.h>

#include <string>

#include "../testutil.hh"
#include "analysis/report.hh"
#include "check/checker.hh"
#include "isa/program.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"

namespace dmp
{
namespace
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

/** ~50% mispredicting branch loop with stores: flush-heavy. */
Program
flushyProgram(std::int64_t iters)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, iters);
    b.li(14, 0x12345);
    b.li(20, 4096);
    Label loop = b.newLabel();
    Label skip = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(1, 1, 1);
    b.beq(1, 0, skip);
    b.addi(2, 2, 3);
    b.st(20, 0, 2);
    b.bind(skip);
    b.st(20, 8, 14);
    b.ld(3, 20, 8);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    return b.build();
}

TEST(SelfCheck, ModeParsing)
{
    check::Mode m = check::Mode::Off;
    EXPECT_TRUE(check::parseMode("", m)); // bare --selfcheck
    EXPECT_EQ(m, check::Mode::All);
    EXPECT_TRUE(check::parseMode("all", m));
    EXPECT_EQ(m, check::Mode::All);
    EXPECT_TRUE(check::parseMode("invariants", m));
    EXPECT_EQ(m, check::Mode::Invariants);
    EXPECT_TRUE(check::parseMode("lockstep", m));
    EXPECT_EQ(m, check::Mode::Lockstep);
    EXPECT_TRUE(check::parseMode("off", m));
    EXPECT_EQ(m, check::Mode::Off);
    EXPECT_FALSE(check::parseMode("bogus", m));

    EXPECT_STREQ(check::modeName(check::Mode::Off), "off");
    EXPECT_STREQ(check::modeName(check::Mode::Invariants), "invariants");
    EXPECT_STREQ(check::modeName(check::Mode::Lockstep), "lockstep");
    EXPECT_STREQ(check::modeName(check::Mode::All), "all");

    EXPECT_TRUE(check::wantsInvariants(check::Mode::Invariants));
    EXPECT_TRUE(check::wantsInvariants(check::Mode::All));
    EXPECT_FALSE(check::wantsInvariants(check::Mode::Lockstep));
    EXPECT_TRUE(check::wantsLockstep(check::Mode::Lockstep));
    EXPECT_TRUE(check::wantsLockstep(check::Mode::All));
    EXPECT_FALSE(check::wantsLockstep(check::Mode::Invariants));
    EXPECT_FALSE(check::wantsInvariants(check::Mode::Off));
    EXPECT_FALSE(check::wantsLockstep(check::Mode::Off));
}

/**
 * The checker is an observer: attaching it must not change a single
 * cycle, retirement, or architectural value of the run it watches.
 */
TEST(SelfCheck, CheckerDoesNotPerturbTiming)
{
    Program prog = flushyProgram(400);

    core::Core bare(prog, sim::machine("base"));
    bare.run(~0ULL, 2'000'000);
    ASSERT_TRUE(bare.halted());

    core::Core watched(prog, sim::machine("base"));
    check::CoreChecker checker(prog, watched);
    watched.addObserver(&checker);
    watched.run(~0ULL, 2'000'000);
    ASSERT_TRUE(watched.halted());

    EXPECT_EQ(watched.stats().cycles.value(), bare.stats().cycles.value());
    EXPECT_EQ(watched.stats().retiredInsts.value(),
              bare.stats().retiredInsts.value());
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        EXPECT_EQ(watched.retiredState().read(ArchReg(r)),
                  bare.retiredState().read(ArchReg(r)))
            << "r" << r;

    EXPECT_GT(checker.checkedCommits(), 0u);
    EXPECT_GT(checker.invariantPasses(), 0u);
    EXPECT_GT(checker.deepPasses(), 0u);
}

/**
 * Flush recovery (free-list restoration, checkpoint reclamation) is
 * checked with a full deep pass after every flush; a mispredict-heavy
 * run must stay clean at the tightest stride.
 */
TEST(SelfCheck, FlushRecoveryStaysCleanUnderMispredictStorm)
{
    Program prog = flushyProgram(1200);
    core::Core machine(prog, sim::machine("base"));
    check::CheckerOptions opts;
    opts.deepStride = 1; // deep pass every cycle AND after every flush
    check::CoreChecker checker(prog, machine, opts);
    machine.addObserver(&checker);
    EXPECT_NO_THROW(machine.run(~0ULL, 4'000'000));
    EXPECT_TRUE(machine.halted());
    EXPECT_GT(machine.stats().retiredMispredCondBranches.value(), 100u)
        << "program no longer exercises flush recovery";
    EXPECT_GT(checker.deepPasses(), checker.checkedCommits() / 8);
}

TEST(SelfCheck, CheckErrorCarriesReportAndDiagnosis)
{
    analysis::Report rep;
    rep.add(analysis::Severity::Error, "rob-age-order", Addr(0x1010), -1,
            "seq out of order", 42, "rob:1");
    check::CheckError e("self-check failed: rob-age-order", rep,
                        "last retires: ...");
    EXPECT_EQ(e.report().size(), 1u);
    EXPECT_EQ(e.report().findings()[0].code, "rob-age-order");
    EXPECT_EQ(e.report().findings()[0].cycle, 42);
    EXPECT_EQ(e.diagnosis(), "last retires: ...");
    EXPECT_STREQ(e.what(), "self-check failed: rob-age-order");
}

TEST(SelfCheck, SelfcheckJsonSchema)
{
    analysis::Report empty;
    std::string clean = check::selfcheckJson(check::Mode::All, "bzip2",
                                             false, 123, empty, "");
    EXPECT_NE(clean.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(clean.find("\"mode\":\"all\""), std::string::npos);
    EXPECT_NE(clean.find("\"target\":\"bzip2\""), std::string::npos);
    EXPECT_NE(clean.find("\"failed\":false"), std::string::npos);
    EXPECT_NE(clean.find("\"checked_commits\":123"), std::string::npos);
    EXPECT_NE(clean.find("\"findings\":[]"), std::string::npos);
    EXPECT_NE(clean.find("\"diagnosis\":null"), std::string::npos);

    analysis::Report rep;
    rep.add(analysis::Severity::Error, "phys-reg-leak", kNoAddr, -1,
            "p17 unreachable", 99, "prf:17");
    std::string failed = check::selfcheckJson(
        check::Mode::Invariants, "mcf", true, 7, rep, "dump \"quoted\"");
    EXPECT_NE(failed.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(failed.find("\"mode\":\"invariants\""), std::string::npos);
    EXPECT_NE(failed.find("\"failed\":true"), std::string::npos);
    EXPECT_NE(failed.find("phys-reg-leak"), std::string::npos);
    EXPECT_NE(failed.find("\"object\":\"prf:17\""), std::string::npos);
    EXPECT_NE(failed.find("\\\"quoted\\\""), std::string::npos)
        << "diagnosis must be JSON-escaped: " << failed;
}

/** Small, fast workload config shared by the sim-level tests. */
sim::SimConfig
smallConfig(const std::string &workload)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.train.iterations = 150;
    cfg.ref.iterations = 150;
    cfg.marker.profileInsts = 80000;
    return cfg;
}

/** cfg.selfcheck turns checks on without changing the results. */
TEST(SelfCheck, RunSimWithSelfcheckMatchesBareRun)
{
    sim::SimConfig bare = smallConfig("mcf");
    sim::SimConfig checked = bare;
    checked.selfcheck = check::Mode::All;

    sim::SimResult a = sim::runSim(bare);
    sim::SimResult b = sim::runSim(checked);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retiredInsts, b.retiredInsts);
    EXPECT_EQ(a.ipc, b.ipc);
}

/** Selfcheck mode and fault plans are part of the result-memo key. */
TEST(SelfCheck, FingerprintSeparatesSelfcheckConfigs)
{
    sim::SimConfig base = smallConfig("bzip2");
    sim::SimConfig checked = base;
    checked.selfcheck = check::Mode::All;
    check::FaultPlan plan{check::FaultKind::RobSeqSwap, 100};
    sim::SimConfig faulted = checked;
    faulted.faultPlan = &plan;

    EXPECT_NE(sim::configFingerprint(base),
              sim::configFingerprint(checked));
    EXPECT_NE(sim::configFingerprint(checked),
              sim::configFingerprint(faulted));
}

/**
 * BatchRunner propagation: a check failure surfaces as a CheckError on
 * that run's future; sibling runs in the same batch are unaffected.
 */
TEST(SelfCheck, BatchFaultFailsOnlyThatRunsFuture)
{
    sim::SimConfig clean = smallConfig("bzip2");
    clean.selfcheck = check::Mode::All;
    check::FaultPlan plan{check::FaultKind::RobSeqSwap, 0};
    sim::SimConfig faulted = clean;
    faulted.faultPlan = &plan;

    sim::BatchRunner runner(2);
    auto cleanFut = runner.submit(clean);
    auto faultFut = runner.submit(faulted);

    EXPECT_THROW(faultFut.get(), check::CheckError);
    const sim::SimResult &ok = *cleanFut.get();
    EXPECT_GT(ok.retiredInsts, 0u);
    EXPECT_GT(ok.cycles, 0u);

    // The failure is memoized like any result: resubmitting the faulted
    // config rethrows instead of re-simulating, and the clean config is
    // still servable.
    EXPECT_THROW(runner.submit(faulted).get(), check::CheckError);
    EXPECT_EQ(runner.get(clean).retiredInsts, ok.retiredInsts);
}

} // namespace
} // namespace dmp
