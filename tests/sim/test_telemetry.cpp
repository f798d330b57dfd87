/**
 * @file
 * Tests for SimResult telemetry: checked counter lookup (require vs.
 * warn-once get), distribution export from the core's stats, the
 * derived ratios left to readers, host-side wall-clock counters, and
 * the JSONL record format consumed by the figure pipeline (dmp run /
 * dmp paper --stats-json).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "sim/batch.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "../testutil.hh"

namespace dmp
{
namespace
{

sim::SimConfig
smallConfig()
{
    sim::SimConfig cfg;
    cfg.workload = "bzip2";
    cfg.train.iterations = 200;
    cfg.ref.iterations = 200;
    cfg.marker.profileInsts = 80000;
    cfg.core = sim::machine("dmp-enhanced");
    return cfg;
}

const sim::SimResult &
sharedResult()
{
    static sim::SimResult r = sim::runSim(smallConfig());
    return r;
}

TEST(Telemetry, RequireReturnsKnownCounters)
{
    const sim::SimResult &r = sharedResult();
    EXPECT_EQ(r.require("cycles"), r.cycles);
    EXPECT_EQ(r.require("retired_insts"), r.retiredInsts);
    EXPECT_GT(r.require("pipeline_flushes"), 0u);
}

TEST(TelemetryDeathTest, RequireUnknownCounterIsFatal)
{
    const sim::SimResult &r = sharedResult();
    EXPECT_EXIT(r.require("no_such_counter"),
                ::testing::ExitedWithCode(1), "no_such_counter");
}

TEST(Telemetry, GetUnknownCounterWarnsAndReturnsZero)
{
    const sim::SimResult &r = sharedResult();
    EXPECT_EQ(r.get("no_such_counter"), 0u);
    EXPECT_EQ(r.get("cycles"), r.cycles);
}

TEST(Telemetry, DistributionsExported)
{
    const sim::SimResult &r = sharedResult();
    const DistSnapshot *ep = r.dist("episode_length");
    ASSERT_NE(ep, nullptr);
    EXPECT_GT(ep->samples, 0u); // dmp-enhanced enters episodes
    const DistSnapshot *f2r = r.dist("fetch_to_retire");
    ASSERT_NE(f2r, nullptr);
    // Every committed program instruction is sampled, including the
    // predicated-FALSE ones that retire without architectural effect.
    EXPECT_EQ(f2r->samples,
              r.retiredInsts + r.require("retired_false_insts"));
    EXPECT_GT(f2r->mean(), 0.0);
    EXPECT_EQ(r.dist("no_such_distribution"), nullptr);
}

TEST(Telemetry, FormulasExported)
{
    // The derived ratios are not in the record (schema 3): a reader
    // derives IPC from the counters, as the result itself does.
    const sim::SimResult &r = sharedResult();
    EXPECT_EQ(r.ipc, double(r.retiredInsts) / double(r.cycles));
    const std::string j = sim::simResultJson(r, "dmp-enhanced", "bzip2");
    EXPECT_EQ(j.find("\"formulas\""), std::string::npos);
    EXPECT_EQ(j.find("\"ipc\""), std::string::npos);
    sim::StatsRecord rec;
    std::string err;
    ASSERT_TRUE(sim::parseStatsRecord(j, rec, err)) << err;
    EXPECT_EQ(rec.ipc, r.ipc);
}

/** Sorted keys of a map. */
template <class M>
std::vector<std::string>
sortedKeys(const M &m)
{
    std::vector<std::string> out;
    for (const auto &kv : m)
        out.push_back(kv.first);
    std::sort(out.begin(), out.end());
    return out;
}

// Every stat name a core run exports. The benchmark's golden outputs
// and the committed figure records key on these names, so a rename,
// an addition or a drop must show up here first.
const std::vector<std::string> kCoreCounters = {
    "btb_misses", "cond_branch_flushes", "cycles", "cycles_skipped",
    "dpred_entries", "dual_forks", "early_exits", "executed_extra_uops",
    "executed_insts", "executed_select_uops", "exit_case1", "exit_case2",
    "exit_case3", "exit_case4", "exit_case5", "exit_case6",
    "fetched_insts", "flushed_insts", "low_conf_diverge_fetches",
    "mdb_conversions", "overflow_conversions", "pipeline_flushes",
    "retired_cond_branches", "retired_control", "retired_extra_uops",
    "retired_false_insts", "retired_insts",
    "retired_mispred_cond_branches", "retired_select_uops",
    "squashed_episodes", "wp_control_dependent", "wp_control_independent",
    "wrong_path_fetched"};
const std::vector<std::string> kAcctCounters = {
    "acct_cycles_backend_stall", "acct_cycles_fetch_stall",
    "acct_cycles_flush_recovery", "acct_cycles_frontend_starved",
    "acct_cycles_idle", "acct_cycles_retire_false_path",
    "acct_cycles_retire_useful", "acct_episodes", "acct_flushes",
    "acct_flushes_avoided", "acct_pred_false_retired",
    "acct_pred_uops_retired", "acct_rename_blocked_cycles"};
const std::vector<std::string> kDistributions = {
    "episode_length", "fetch_to_retire", "flush_depth",
    "stage_active_cycles"};
const std::vector<std::string> kDerived = {
    "exec_overhead", "fetch_overhead", "flushes_per_kilo_insts", "ipc",
    "mispred_per_kilo_insts"};

TEST(Telemetry, StatNamesArePinned)
{
    const sim::SimResult &r = sharedResult();
    EXPECT_EQ(sortedKeys(r.counters), kCoreCounters);
    EXPECT_EQ(sortedKeys(r.distributions), kDistributions);
    EXPECT_EQ(sortedKeys(test::derivedStats(core::CoreStats{})), kDerived);

    sim::SimConfig cfg = smallConfig();
    cfg.accounting = true;
    const sim::SimResult acct = sim::runSim(cfg);
    std::vector<std::string> counters = kCoreCounters;
    counters.insert(counters.begin(), kAcctCounters.begin(),
                    kAcctCounters.end());
    EXPECT_EQ(sortedKeys(acct.counters), counters);
    EXPECT_EQ(sortedKeys(acct.distributions), kDistributions);
}

TEST(Telemetry, DerivedValuesOfAZeroCycleRunAreZero)
{
    const isa::Program prog = workloads::buildWorkload("bzip2");
    core::Core machine(prog, sim::machine("dmp-enhanced"));
    sim::SimResult r = sim::resultOfRun(machine, nullptr, 0.0);
    EXPECT_EQ(r.cycles, 0u);
    const auto derived = test::derivedStats(machine.stats());
    ASSERT_EQ(sortedKeys(derived), kDerived);
    for (const auto &[name, v] : derived)
        EXPECT_EQ(v, 0.0) << name; // exactly 0: no NaN, no Inf
    EXPECT_EQ(r.ipc, 0.0);

    // Derived values are read from the counters when visited.
    machine.stats().cycles += 4;
    machine.stats().retiredInsts += 6;
    EXPECT_EQ(test::derivedStats(machine.stats()).at("ipc"), 1.5);
    EXPECT_EQ(test::derivedStats(machine.stats()).at("fetch_overhead"), 0.0);
    EXPECT_EQ(sim::resultOfRun(machine, nullptr, 0.0).ipc, 1.5);
}

TEST(Telemetry, HostTelemetryPopulated)
{
    const sim::SimResult &r = sharedResult();
    EXPECT_GT(r.hostSeconds, 0.0);
}

TEST(Telemetry, JsonRecordRoundTrips)
{
    const sim::SimResult &r = sharedResult();
    std::string j = sim::simResultJson(r, "dmp-enhanced", "bzip2");
    // One line, no embedded newlines (JSONL requirement).
    EXPECT_EQ(j.find('\n'), std::string::npos);
    // The schema version leads every record (satellite contract:
    // consumers can cheaply sniff it before full parsing).
    EXPECT_EQ(j.rfind("{\"schema\":" +
                          std::to_string(sim::kStatsSchemaVersion) + ",",
                      0),
              0u)
        << j.substr(0, 40);
    EXPECT_NE(j.find("\"label\":\"dmp-enhanced\""), std::string::npos);
    EXPECT_NE(j.find("\"workload\":\"bzip2\""), std::string::npos);
    EXPECT_NE(j.find("\"cycles\":" + std::to_string(r.cycles)),
              std::string::npos);
    // Every counter and distribution appears by name.
    for (const auto &kv : r.counters)
        EXPECT_NE(j.find("\"" + kv.first + "\":"), std::string::npos)
            << kv.first;
    for (const auto &kv : r.distributions)
        EXPECT_NE(j.find("\"" + kv.first + "\":{"), std::string::npos)
            << kv.first;
}

TEST(Telemetry, JsonRecordSplicesExtraFields)
{
    const sim::SimResult &r = sharedResult();
    std::string j = sim::simResultJson(r, "l", "w", "fp\"1", 200);
    EXPECT_NE(j.find(",\"host_seconds\":"), std::string::npos) << j;
    EXPECT_NE(j.find(",\"fingerprint\":\"fp\\\"1\",\"bench_iters\":200,"
                     "\"counters\":{"),
              std::string::npos)
        << j;
    // Without a fingerprint neither field appears.
    EXPECT_EQ(sim::simResultJson(r, "l", "w").find("bench_iters"),
              std::string::npos);
}

TEST(Telemetry, JsonRecordBytesArePinned)
{
    // Every kind of value a record holds, byte for byte: host_seconds
    // at 12 digits, the distribution mean and the accounting net_cycles
    // at 6, and the marking block's counts. The result's ipc, cycles
    // and retiredInsts are not written: the counters carry them.
    sim::SimResult r;
    r.ipc = 1.0 / 3;
    r.cycles = 9;
    r.retiredInsts = 3;
    r.hostSeconds = 1.0 / 3;
    r.counters.emplace("pipeline_flushes", 17);
    DistSnapshot d;
    d.max = 3;
    d.bucketSize = 2;
    d.buckets = {1, 1};
    d.overflow = 1;
    d.samples = 3;
    d.sum = 14;
    d.minVal = 1;
    d.maxVal = 9;
    r.distributions.emplace("lat", d);
    r.marking.candidateBranches = 8;
    r.marking.markedDiverge = 5;
    r.marking.markedSimpleHammock = 2;
    r.marking.markedLoop = 1;
    r.marking.classification = {4, 6, 7, 2000};
    analysis::CycleAccounting acct(4, 3);
    acct.onEpisodeStart(1, 0x10d8, false, 0);
    acct.onPredicatedRetire(0x3000, false);
    acct.finish();
    r.hasAccounting = true;
    r.accountingJson = acct.json();
    EXPECT_EQ(sim::simResultJson(r, "dmp", "mcf"),
              "{\"schema\":3,\"label\":\"dmp\",\"workload\":\"mcf\","
              "\"host_seconds\":0.333333333333,"
              "\"counters\":{\"pipeline_flushes\":17},"
              "\"distributions\":{\"lat\":{\"min\":0,\"max\":3,"
              "\"bucket_size\":2,\"samples\":3,\"sum\":14,\"mean\":4.66667,"
              "\"min_val\":1,\"max_val\":9,\"underflow\":0,\"overflow\":1,"
              "\"buckets\":[1,1]}},\"marking\":{\"candidates\":8,"
              "\"diverge\":5,\"hammock\":2,\"loop\":1,\"classification\":"
              "{\"simple_hammock_diverge\":4,\"complex_diverge\":6,"
              "\"other_complex\":7,\"total_insts\":2000}},"
              "\"accounting\":{\"frontend_depth\":4,"
              "\"retire_width\":3,\"total_cycles\":0,"
              "\"buckets\":{\"retire_useful\":0,\"retire_false_path\":0,"
              "\"flush_recovery\":0,\"backend_stall\":0,\"fetch_stall\":0,"
              "\"frontend_starved\":0,\"idle\":0},"
              "\"branches\":[{\"pc\":\"0x10d8\",\"episodes\":1,"
              "\"dual_episodes\":0,\"merged_at_cfm\":0,\"overshot\":0,"
              "\"early_exits\":0,\"converted\":0,\"squashed\":0,"
              "\"fetched_insts\":0,\"false_insts\":0,\"extra_uops\":0,"
              "\"flushes_avoided\":0,\"flushes\":0,\"net_cycles\":0},"
              "{\"pc\":\"0x3000\",\"episodes\":0,\"dual_episodes\":0,"
              "\"merged_at_cfm\":0,\"overshot\":0,\"early_exits\":0,"
              "\"converted\":0,\"squashed\":0,\"fetched_insts\":0,"
              "\"false_insts\":1,\"extra_uops\":0,\"flushes_avoided\":0,"
              "\"flushes\":0,\"net_cycles\":-0.333333}]}}");
}

TEST(Telemetry, BatchAccruesSimWallClock)
{
    sim::BatchRunner runner(1);
    runner.get(smallConfig());
    sim::BatchStats st = runner.stats();
    EXPECT_EQ(st.simRuns, 1u);
    EXPECT_GT(st.simSeconds, 0.0);
    // A memo hit re-runs nothing and accrues no wall-clock.
    runner.get(smallConfig());
    sim::BatchStats st2 = runner.stats();
    EXPECT_EQ(st2.simRuns, 1u);
    EXPECT_EQ(st2.simSeconds, st.simSeconds);
}

} // namespace
} // namespace dmp
