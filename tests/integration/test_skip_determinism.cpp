/**
 * @file
 * Full-sweep determinism gate for event-driven cycle skipping: every
 * paper workload in every machine mode runs twice — clock skipping
 * enabled (the default) and full scan (a test::NoCycleSkip observer
 * attached) — and the two SimResults must be identical in every
 * simulated-performance field (cycles, IPC, all counters, all
 * distributions). Both runs also attach top-down cycle accounting and
 * must satisfy the bucket-sum == total-cycles invariant (the bulk
 * idle-span charge path is exercised by the skipping run, the
 * per-cycle path by the full scan). On bzip2, mcf and twolf the
 * skipping run must actually skip, so a dead fast path fails here.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "../testutil.hh"
#include "analysis/accounting.hh"
#include "core/params.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace dmp
{
namespace
{

const char *const kBuckets[] = {
    "acct_cycles_retire_useful", "acct_cycles_retire_false_path",
    "acct_cycles_flush_recovery", "acct_cycles_backend_stall",
    "acct_cycles_fetch_stall",    "acct_cycles_frontend_starved",
    "acct_cycles_idle",
};

sim::SimConfig
sweepConfig(const std::string &workload, const core::CoreParams &core)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.core = core;
    // Short inputs keep the 15 x 5 x 2 sweep inside a ctest budget;
    // every workload still crosses its skip-eligible regions (memory
    // misses, terminal drain) many times at this length.
    cfg.train.iterations = 40;
    cfg.ref.iterations = 40;
    cfg.marker.profileInsts = 40000;
    cfg.accounting = true;
    return cfg;
}

void
expectBucketInvariant(const sim::SimResult &r, const std::string &what)
{
    ASSERT_TRUE(r.hasAccounting) << what;
    std::uint64_t sum = 0;
    for (const char *b : kBuckets)
        sum += r.require(b);
    EXPECT_EQ(sum, r.cycles)
        << what << ": accounting buckets must sum to the cycle count";
}

/** runSimOnProgram's timing run, ticking every cycle. */
sim::SimResult
runFullScan(const isa::Program &prog, const sim::SimConfig &cfg)
{
    core::Core machine(prog, cfg.core);
    analysis::CycleAccounting acct(cfg.core.frontendDepth,
                                   cfg.core.retireWidth);
    test::NoCycleSkip no_skip;
    machine.addObserver(&acct);
    machine.addObserver(&no_skip);
    machine.run();
    acct.finish();
    return sim::resultOfRun(machine, &acct, 0);
}

void
expectSkipDeterminism(const std::string &workload,
                      const core::CoreParams &core, const std::string &what)
{
    const sim::SimConfig cfg = sweepConfig(workload, core);
    const auto [prog, report] = sim::prepareMarkedProgram(cfg);
    sim::SimResult fast = sim::runSimOnProgram(prog, report, cfg);
    sim::SimResult slow = runFullScan(prog, cfg);

    EXPECT_EQ(slow.get("cycles_skipped"), 0u)
        << what << ": full-scan run must not skip";
    // Skip liveness: these three idle behind memory misses often enough
    // that a skipping run with no skipped cycle means the fast path died.
    static const std::set<std::string> kMustSkip = {"bzip2", "mcf",
                                                    "twolf"};
    if (kMustSkip.count(workload)) {
        EXPECT_GT(fast.get("cycles_skipped"), 0u)
            << what << ": skipping run never skipped";
    }
    EXPECT_EQ(fast.cycles, slow.cycles) << what;
    EXPECT_EQ(fast.retiredInsts, slow.retiredInsts) << what;
    EXPECT_EQ(fast.ipc, slow.ipc) << what;

    // Every counter but the skip diagnostic itself must match. An
    // ordered map makes the first divergence deterministic to report.
    std::map<std::string, std::uint64_t> a(fast.counters.begin(),
                                           fast.counters.end());
    std::map<std::string, std::uint64_t> b(slow.counters.begin(),
                                           slow.counters.end());
    a.erase("cycles_skipped");
    b.erase("cycles_skipped");
    ASSERT_EQ(a.size(), b.size()) << what << ": counter sets differ";
    for (auto ita = a.begin(), itb = b.begin(); ita != a.end();
         ++ita, ++itb) {
        ASSERT_EQ(ita->first, itb->first) << what;
        EXPECT_EQ(ita->second, itb->second)
            << what << ": counter " << ita->first;
    }

    ASSERT_EQ(fast.distributions.size(), slow.distributions.size())
        << what;
    for (const auto &[name, da] : fast.distributions) {
        auto it = slow.distributions.find(name);
        ASSERT_NE(it, slow.distributions.end())
            << what << ": distribution " << name;
        const DistSnapshot &db = it->second;
        EXPECT_EQ(da.samples, db.samples) << what << ": " << name;
        EXPECT_EQ(da.sum, db.sum) << what << ": " << name;
        EXPECT_EQ(da.underflow, db.underflow) << what << ": " << name;
        EXPECT_EQ(da.overflow, db.overflow) << what << ": " << name;
        EXPECT_EQ(da.buckets, db.buckets) << what << ": " << name;
    }

    expectBucketInvariant(fast, what + "/skip");
    expectBucketInvariant(slow, what + "/full-scan");
}

/** One machine mode swept over all 15 paper workloads. */
class SkipDeterminismSweep
    : public ::testing::TestWithParam<const char *>
{
  protected:
    static core::CoreParams
    paramsFor(const std::string &mode)
    {
        return sim::machine(mode == "enh" ? "dmp-enhanced" : mode);
    }
};

TEST_P(SkipDeterminismSweep, AllWorkloadsMatchFullScan)
{
    const std::string mode = GetParam();
    const core::CoreParams params = paramsFor(mode);
    for (const auto &info : workloads::workloadList()) {
        expectSkipDeterminism(info.name, params, mode + "/" + info.name);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, SkipDeterminismSweep,
                         ::testing::Values("base", "dhp", "dmp", "enh",
                                           "dual"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
} // namespace dmp
