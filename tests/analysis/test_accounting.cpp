/**
 * @file
 * Unit tests for the top-down cycle-accounting observer, plus the
 * whole-machine invariant: every simulated cycle is charged to exactly
 * one bucket, so the buckets always sum to the cycle count — checked
 * across all 15 workloads x all 5 machine modes.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "common/json.hh"
#include "core/episode.hh"
#include "core/params.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace dmp::analysis
{
namespace
{

// accounting.cc classifies AcctEpisodeEnd through numeric mirrors of
// the core enums (it deliberately does not include core/episode.hh).
// These assertions are the sync contract the mirrors rely on.
static_assert(std::uint8_t(core::ExitCase::Case2) == 2);
static_assert(std::uint8_t(core::ExitCase::Case3) == 3);
static_assert(std::uint8_t(core::ExitCase::Case4) == 4);
static_assert(std::uint8_t(core::ConversionReason::NotConverted) == 0);
static_assert(std::uint8_t(core::ConversionReason::EarlyExit) == 1);

core::AcctCycleSample
sample(Cycle cycle)
{
    core::AcctCycleSample s;
    s.cycle = cycle;
    return s;
}

core::FlushEvent
flush(Addr branch_pc, std::uint64_t squashed, Cycle cycle)
{
    core::FlushEvent e;
    e.cycle = cycle;
    e.branchPc = branch_pc;
    e.squashed = squashed;
    return e;
}

core::AcctEpisodeEnd
episodeEnd(EpisodeId id, Addr pc, core::ExitCase ec)
{
    core::AcctEpisodeEnd e;
    e.id = id;
    e.divergePc = pc;
    e.exitCase = std::uint8_t(ec);
    return e;
}

TEST(CycleAccounting, BucketNames)
{
    EXPECT_STREQ(bucketName(CycleBucket::RetireUseful), "retire_useful");
    EXPECT_STREQ(bucketName(CycleBucket::Idle), "idle");
    // Every bucket has a distinct, listed counter.
    CycleAccounting acct(8, 4);
    std::set<std::string> names;
    acct.counters().forEachStat(
        [&](std::string_view name, const Counter &, std::string_view) {
            EXPECT_TRUE(names.emplace(name).second) << name;
        });
    for (unsigned i = 0; i < unsigned(CycleBucket::NumBuckets); ++i) {
        std::string name =
            std::string("cycles_") + bucketName(CycleBucket(i));
        EXPECT_EQ(names.count(name), 1u) << name;
    }
}

TEST(CycleAccounting, ClassificationPriority)
{
    CycleAccounting acct(4, 4);

    core::AcctCycleSample s = sample(0);
    s.usefulRetired = 2;
    s.falseRetired = 1; // useful wins over false-path
    acct.onCycleEnd(s);

    s = sample(1);
    s.falseRetired = 1;
    acct.onCycleEnd(s);

    s = sample(2);
    s.uopRetired = 3; // uops alone also count as false-path retire
    acct.onCycleEnd(s);

    s = sample(3); // nothing retired, ROB has work
    acct.onCycleEnd(s);

    s = sample(4);
    s.robEmpty = true;
    s.fetchStalled = true;
    acct.onCycleEnd(s);

    s = sample(5);
    s.robEmpty = true;
    s.frontendActive = true;
    acct.onCycleEnd(s);

    s = sample(6);
    s.robEmpty = true;
    acct.onCycleEnd(s);
    acct.finish();

    EXPECT_EQ(acct.bucketCycles(CycleBucket::RetireUseful), 1u);
    EXPECT_EQ(acct.bucketCycles(CycleBucket::RetireFalsePath), 2u);
    EXPECT_EQ(acct.bucketCycles(CycleBucket::BackendStall), 1u);
    EXPECT_EQ(acct.bucketCycles(CycleBucket::FetchStall), 1u);
    EXPECT_EQ(acct.bucketCycles(CycleBucket::FrontendStarved), 1u);
    EXPECT_EQ(acct.bucketCycles(CycleBucket::Idle), 1u);
    EXPECT_EQ(acct.totalCycles(), 7u);
}

TEST(CycleAccounting, FlushShadowChargesRecovery)
{
    CycleAccounting acct(3, 4); // frontendDepth 3
    acct.onFlush(flush(0x1000, 12, 10));
    core::AcctCycleSample s = sample(10);
    acct.onCycleEnd(s); // 10, 11, 12 fall in the shadow
    acct.onCycleEnd(sample(11));
    acct.onCycleEnd(sample(12));
    acct.onCycleEnd(sample(13)); // shadow over -> backend stall
    // Retirement still outranks the shadow.
    s = sample(14);
    acct.onFlush(flush(0x1000, 1, 14));
    s.usefulRetired = 1;
    acct.onCycleEnd(s);
    acct.finish();

    EXPECT_EQ(acct.bucketCycles(CycleBucket::FlushRecovery), 3u);
    EXPECT_EQ(acct.bucketCycles(CycleBucket::BackendStall), 1u);
    EXPECT_EQ(acct.bucketCycles(CycleBucket::RetireUseful), 1u);
    EXPECT_EQ(acct.branches().at(0x1000).flushes, 2u);
}

TEST(CycleAccounting, EpisodeExitClassification)
{
    CycleAccounting acct(8, 4);
    const Addr pc = 0x2000;
    for (EpisodeId id = 1; id <= 5; ++id)
        acct.onEpisodeStart(id, pc, false, id);

    acct.onEpisodeEnd(episodeEnd(1, pc, core::ExitCase::Case2), 10);
    acct.onEpisodeEnd(episodeEnd(2, pc, core::ExitCase::Case4), 11);
    acct.onEpisodeEnd(episodeEnd(3, pc, core::ExitCase::Case3), 12);
    core::AcctEpisodeEnd dead = episodeEnd(4, pc, core::ExitCase::None);
    dead.dead = true;
    acct.onEpisodeEnd(dead, 13);
    core::AcctEpisodeEnd conv = episodeEnd(5, pc, core::ExitCase::None);
    conv.converted = std::uint8_t(core::ConversionReason::EarlyExit);
    acct.onEpisodeEnd(conv, 14);
    // Duplicate end for an already-closed id must be ignored.
    acct.onEpisodeEnd(episodeEnd(1, pc, core::ExitCase::Case6), 15);
    // Unknown id (never started) must be ignored too.
    acct.onEpisodeEnd(episodeEnd(99, pc, core::ExitCase::Case2), 16);
    acct.finish();

    const DivergeBranchStats &row = acct.branches().at(pc);
    EXPECT_EQ(row.episodes, 5u);
    EXPECT_EQ(row.mergedAtCfm, 1u);   // case 2
    EXPECT_EQ(row.flushesAvoided, 2u); // cases 2 + 4
    EXPECT_EQ(row.overshot, 1u);       // case 3
    EXPECT_EQ(row.squashed, 1u);
    EXPECT_EQ(row.earlyExits, 1u);
    EXPECT_EQ(row.converted, 1u);
}

TEST(CycleAccounting, NetCyclesEstimate)
{
    CycleAccounting acct(8, 4);
    DivergeBranchStats row;
    row.flushesAvoided = 3; // 3 * 8 = 24 cycles bought
    row.falseInsts = 10;
    row.extraUops = 6; // (10 + 6) / 4 = 4 cycles paid
    EXPECT_DOUBLE_EQ(acct.netCycles(row), 20.0);
}

TEST(CycleAccounting, PredicatedRetireAttribution)
{
    CycleAccounting acct(8, 4);
    acct.onPredicatedRetire(0x3000, false);
    acct.onPredicatedRetire(0x3000, false);
    acct.onPredicatedRetire(0x3000, true);
    acct.finish();
    const DivergeBranchStats &row = acct.branches().at(0x3000);
    EXPECT_EQ(row.falseInsts, 2u);
    EXPECT_EQ(row.extraUops, 1u);
    EXPECT_EQ(acct.counters().predFalseRetired.value(), 2u);
    EXPECT_EQ(acct.counters().predUopsRetired.value(), 1u);
}

TEST(CycleAccounting, JsonParsesAndBucketsSumToTotal)
{
    CycleAccounting acct(4, 4);
    core::AcctCycleSample s = sample(0);
    s.usefulRetired = 1;
    acct.onCycleEnd(s);
    acct.onCycleEnd(sample(1));
    acct.onEpisodeStart(1, 0x10d8, false, 1);
    acct.onEpisodeEnd(episodeEnd(1, 0x10d8, core::ExitCase::Case2), 1);
    acct.finish();

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(acct.json(), doc, err)) << err;
    const json::Value *bk = doc.get("buckets");
    ASSERT_NE(bk, nullptr);
    std::uint64_t sum = 0;
    for (const auto &[name, v] : bk->object)
        sum += v.asU64();
    EXPECT_EQ(sum, doc.get("total_cycles")->asU64());
    EXPECT_EQ(sum, acct.totalCycles());
    const json::Value *branches = doc.get("branches");
    ASSERT_NE(branches, nullptr);
    ASSERT_EQ(branches->array.size(), 1u);
    EXPECT_EQ(branches->array[0].get("pc")->string, "0x10d8");
    EXPECT_EQ(branches->array[0].get("flushes_avoided")->asU64(), 1u);
}

// ---------------------------------------------------------------------
// The invariant, on the real machine: buckets sum to the cycle count
// for every workload under every machine mode.
// ---------------------------------------------------------------------

TEST(CycleAccountingInvariant, BucketsSumToCyclesOnEveryWorkloadAndMode)
{

    const std::vector<std::string> modes = {"base", "dhp", "dmp",
                                            "dmp-enhanced", "dual"};
    std::vector<sim::SimConfig> grid;
    std::vector<std::pair<std::string, std::string>> names;
    for (const auto &info : workloads::workloadList()) {
        for (const std::string &mode : modes) {
            sim::SimConfig cfg;
            cfg.workload = info.name;
            cfg.core = sim::machine(mode);
            cfg.train.iterations = 60;
            cfg.ref.iterations = 60;
            cfg.marker.profileInsts = 60000;
            cfg.accounting = true;
            grid.push_back(cfg);
            names.emplace_back(info.name, mode);
        }
    }
    sim::BatchRunner runner;
    std::vector<sim::SimResult> results = runner.run(grid);
    ASSERT_EQ(results.size(), names.size());

    for (std::size_t i = 0; i < results.size(); ++i) {
        const sim::SimResult &r = results[i];
        ASSERT_TRUE(r.hasAccounting)
            << names[i].first << "/" << names[i].second;
        std::uint64_t sum = 0;
        for (unsigned b = 0; b < unsigned(CycleBucket::NumBuckets); ++b)
            sum += r.require(std::string("acct_cycles_") +
                             bucketName(CycleBucket(b)));
        EXPECT_EQ(sum, r.cycles)
            << names[i].first << "/" << names[i].second
            << ": buckets must sum to the cycle count";
        EXPECT_GT(r.cycles, 0u)
            << names[i].first << "/" << names[i].second;
    }
}

} // namespace
} // namespace dmp::analysis
