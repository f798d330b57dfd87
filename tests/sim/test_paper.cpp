/**
 * @file
 * `dmp paper all` runs each distinct configuration once: every cell of
 * every figure goes through one BatchRunner, so a configuration that
 * several figures share is a memo hit, and the records hold one line
 * per distinct run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/batch.hh"
#include "sim/paper.hh"

namespace dmp
{
namespace
{

TEST(Paper, AllSimulatesEachDistinctCellOnce)
{
    sim::PaperOptions opts;
    opts.workloads = {"mcf"};
    opts.iters = 60;

    std::vector<const sim::Figure *> figs;
    std::unordered_set<std::string> distinct;
    std::uint64_t cells = 0;
    for (const sim::Figure &f : sim::figures()) {
        figs.push_back(&f);
        for (const sim::Cell &c : f.cells) {
            distinct.insert(
                sim::configFingerprint(sim::cellConfig(c, "mcf", opts)));
            ++cells;
        }
    }
    ASSERT_EQ(figs.size(), 17u);

    std::ostringstream records;
    opts.records = &records;
    sim::BatchRunner runner(2);
    ::testing::internal::CaptureStdout();
    sim::runPaper(figs, opts, runner);
    const std::string tables = ::testing::internal::GetCapturedStdout();

    const sim::BatchStats st = runner.stats();
    EXPECT_EQ(st.simRuns, distinct.size());
    EXPECT_EQ(st.simHits, cells - distinct.size());
    EXPECT_GT(st.simHits, 0u);

    std::istringstream lines(records.str());
    std::unordered_set<std::string> exported;
    for (std::string line; std::getline(lines, line);) {
        const std::size_t at = line.find("\"fingerprint\":\"") + 15;
        EXPECT_TRUE(exported.insert(line.substr(at, line.find('"', at) - at))
                        .second);
    }
    EXPECT_EQ(exported, distinct);
    EXPECT_NE(tables.find("=== Table 2:"), std::string::npos);
    EXPECT_NE(tables.find("=== Section 2.7.4 extensions"), std::string::npos);
}

} // namespace
} // namespace dmp
