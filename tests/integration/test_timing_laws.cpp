/**
 * @file
 * Timing laws: relations between machine configurations that hold by
 * construction, so a violation is a timing bug that the architectural
 * oracles (which compare retired values) cannot see. Each law runs on
 * all 15 workloads at reduced length through one BatchRunner.
 *
 *  - L1: a predicating machine given no marks runs cycle for cycle
 *    like base and enters no predication episode.
 *  - L4: the per-diverge-branch accounting analytics sum to the core
 *    counters that count the same events: the episode column to
 *    dpred_entries and the dual-episode column to dual_forks.
 *  - L5: under perfect branch prediction and perfect confidence, dual
 *    and dmp-enhanced run cycle for cycle like base with perfect
 *    prediction, with no episode and no dual-path fork.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace dmp
{
namespace
{

constexpr std::uint64_t kIters = 200;

sim::SimConfig
config(const std::string &workload, const char *machine,
       sim::MarkMode marks, bool perfect)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.core = sim::machine(machine);
    cfg.core.perfectCondPredictor = perfect;
    cfg.markMode = marks;
    cfg.train.iterations = kIters;
    cfg.ref.iterations = kIters;
    return cfg;
}

/**
 * For each workload, run `reference` and then each of `machines`, and
 * expect every machine to match the reference's cycle count with no
 * dynamic-predication episode and no dual-path fork.
 */
void
expectCycleForCycle(const sim::SimConfig &reference,
                    const std::vector<sim::SimConfig> &machines)
{
    std::vector<sim::SimConfig> grid;
    for (const auto &info : workloads::workloadList()) {
        grid.push_back(reference);
        grid.back().workload = info.name;
        for (const sim::SimConfig &m : machines) {
            grid.push_back(m);
            grid.back().workload = info.name;
        }
    }
    sim::BatchRunner runner(2);
    const std::vector<sim::SimResult> results = runner.run(grid);
    const std::size_t row = machines.size() + 1;
    for (std::size_t i = 0; i < results.size(); i += row) {
        const sim::SimResult &ref = results[i];
        for (std::size_t k = 1; k < row; ++k) {
            const sim::SimResult &r = results[i + k];
            const std::string what =
                grid[i].workload + " machine #" + std::to_string(k);
            EXPECT_EQ(r.cycles, ref.cycles) << what;
            EXPECT_EQ(r.require("dpred_entries"), 0u) << what;
            EXPECT_EQ(r.require("dual_forks"), 0u) << what;
        }
    }
}

TEST(TimingLaws, L1UnmarkedPredicationEqualsBase)
{
    // dual forks on low confidence without any marks, so it is not an
    // L1 machine.
    std::vector<sim::SimConfig> machines;
    for (const char *m : {"dhp", "dmp", "mcfm", "mcfm-eexit",
                          "dmp-enhanced"})
        machines.push_back(config("", m, sim::MarkMode::None, false));
    expectCycleForCycle(config("", "base", sim::MarkMode::None, false),
                        machines);
}

/** Sum of one per-branch column of a run's accounting block. */
std::uint64_t
branchColumnSum(const sim::SimResult &r, std::string_view column)
{
    json::Value doc;
    std::string err;
    EXPECT_TRUE(json::parse(r.accountingJson, doc, err)) << err;
    std::uint64_t sum = 0;
    if (const json::Value *rows = doc.get("branches"))
        for (const json::Value &row : rows->array)
            if (const json::Value *v = row.get(column))
                sum += v->asU64();
    return sum;
}

/**
 * Only the start counts pair up. The per-branch early_exits and
 * squashed columns count a different event from the core's
 * early_exits and squashed_episodes: CycleAccounting files each
 * episode under one outcome when it first ends, while the core counts
 * every conversion and every kill (bzip2 dmp-enhanced reads 6 vs 19
 * early exits at 200 iterations, crafty 36 vs 38 squashed).
 */
TEST(TimingLaws, L4BranchAnalyticsSumToCoreCounters)
{
    const char *const machines[] = {"dhp", "dmp", "dmp-enhanced", "dual"};
    std::vector<sim::SimConfig> grid;
    std::vector<std::string> names;
    for (const auto &info : workloads::workloadList()) {
        for (const char *m : machines) {
            grid.push_back(
                config(info.name, m, sim::MarkMode::Profile, false));
            grid.back().accounting = true;
            names.push_back(info.name + " " + m);
        }
    }
    sim::BatchRunner runner(2);
    const std::vector<sim::SimResult> results = runner.run(grid);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const sim::SimResult &r = results[i];
        EXPECT_EQ(branchColumnSum(r, "episodes"),
                  r.require("dpred_entries"))
            << names[i];
        EXPECT_EQ(branchColumnSum(r, "dual_episodes"),
                  r.require("dual_forks"))
            << names[i];
    }
}

TEST(TimingLaws, L5PerfectConfidenceNeverPredicates)
{
    std::vector<sim::SimConfig> machines;
    for (const char *m : {"dual", "dmp-enhanced"}) {
        machines.push_back(config("", m, sim::MarkMode::Profile, true));
        machines.back().core.perfectConfidence = true;
    }
    expectCycleForCycle(config("", "base", sim::MarkMode::Profile, true),
                        machines);
}

} // namespace
} // namespace dmp
