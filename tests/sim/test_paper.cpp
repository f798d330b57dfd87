/**
 * @file
 * `dmp paper all` runs each distinct configuration once: every cell of
 * every figure goes through one BatchRunner, so a configuration that
 * several figures share is a memo hit, and the records hold one line
 * per distinct run. The figure tables come from those records, each
 * cell found by its fingerprint: a missing cell or counter is refused
 * naming the figure, and an average over no rows prints "-".
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "sim/batch.hh"
#include "sim/paper.hh"

namespace dmp
{
namespace
{

const sim::Figure &
figureNamed(const std::string &name)
{
    for (const sim::Figure &f : sim::figures())
        if (f.name == name)
            return f;
    ADD_FAILURE() << "no figure " << name;
    return sim::figures().front();
}

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

    sim::BatchRunner runner(2);
    const std::vector<std::string> lines = sim::runPaper(figs, opts, runner);

    const sim::BatchStats st = runner.stats();
    EXPECT_EQ(st.simRuns, distinct.size());
    EXPECT_EQ(st.simHits, cells - distinct.size());
    EXPECT_GT(st.simHits, 0u);

    std::vector<sim::StatsRecord> records(lines.size());
    std::unordered_set<std::string> exported;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string err;
        ASSERT_TRUE(sim::parseStatsRecord(lines[i], records[i], err)) << err;
        EXPECT_TRUE(exported.insert(records[i].fingerprint).second);
    }
    EXPECT_EQ(exported, distinct);

    // Every figure builds from the records alone, one row per workload.
    std::vector<sim::ReportTable> tables;
    std::string err;
    ASSERT_TRUE(sim::figureTables(figs, records, tables, err)) << err;
    ASSERT_FALSE(tables.empty());
    EXPECT_EQ(tables.front().title.rfind("Table 2:", 0), 0u);
    EXPECT_EQ(tables.back().title.rfind("Section 2.7.4 extensions", 0), 0u);
    EXPECT_EQ(tables.back().rows.front().front(), "mcf");
}

/**
 * One record per cell of `fig` on `wl` under `opts`, each with every
 * counter in `zeroes` at 0 and an empty marking block.
 */
std::vector<sim::StatsRecord>
zeroRecords(const sim::Figure &fig, const std::string &wl,
            const sim::PaperOptions &opts,
            const std::vector<std::string> &zeroes)
{
    std::vector<sim::StatsRecord> records;
    for (const sim::Cell &c : fig.cells) {
        sim::StatsRecord r;
        r.schema = sim::kStatsSchemaVersion;
        r.label = c.label;
        r.workload = wl;
        r.fingerprint = sim::configFingerprint(sim::cellConfig(c, wl, opts));
        r.benchIters = opts.iters;
        for (const std::string &name : zeroes)
            r.counters.emplace(name, 0);
        records.push_back(std::move(r));
    }
    return records;
}

TEST(Paper, Fig10AverageOverNoEpisodesIsADash)
{
    // perlbmk enters no episode on either machine, so no row qualifies
    // for the case-3 average.
    sim::PaperOptions opts;
    opts.workloads = {"perlbmk"};
    const sim::Figure &fig = figureNamed("fig10_exit_cases_enhanced");
    const std::vector<sim::StatsRecord> records =
        zeroRecords(fig, "perlbmk", opts,
                    {"exit_case1", "exit_case2", "exit_case3", "exit_case4",
                     "exit_case5", "exit_case6", "dpred_entries",
                     "early_exits", "mdb_conversions"});
    std::vector<sim::ReportTable> tables;
    std::string err;
    ASSERT_TRUE(sim::figureTables({&fig}, records, tables, err)) << err;
    ASSERT_EQ(tables.size(), 1u);
    const sim::ReportTable &t = tables[0];
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.rows[0].back(), "-"); // basic c3% with no basic episodes
    EXPECT_EQ(t.rows[1][0], "average");
    for (const std::string &cell : t.rows[1])
        EXPECT_EQ(cell.find("nan"), std::string::npos) << cell;
    EXPECT_EQ(t.rows[1][4], "-");
    EXPECT_EQ(t.rows[1].back(), "-");
    EXPECT_EQ(t.render(sim::ReportFormat::Text).find("nan"),
              std::string::npos);
}

TEST(Paper, MissingCellOrCounterNamesTheFigure)
{
    sim::PaperOptions opts;
    opts.workloads = {"mcf"};
    const sim::Figure &fig = figureNamed("fig11_flush_reduction");
    std::vector<sim::StatsRecord> records = zeroRecords(fig, "mcf", opts, {});
    std::vector<sim::ReportTable> tables;
    std::string err;
    EXPECT_FALSE(sim::figureTables({&fig}, records, tables, err));
    EXPECT_EQ(err, "fig11_flush_reduction: record base on mcf has no "
                   "counter \"pipeline_flushes\"");

    records.pop_back(); // the "enhanced" cell
    EXPECT_FALSE(sim::figureTables({&fig}, records, tables, err));
    EXPECT_EQ(err, "fig11_flush_reduction: workload mcf: no record of cell "
                   "enhanced");

    // The same records under another iteration count match no cell.
    for (sim::StatsRecord &r : records)
        r.benchIters = 100;
    EXPECT_FALSE(sim::figureTables({&fig}, records, tables, err));
    EXPECT_EQ(err, "fig11_flush_reduction: workload mcf: no record of cell "
                   "base");
    EXPECT_TRUE(tables.empty());
}

TEST(Paper, FigureRefusesRecordsOfAnotherSchema)
{
    // A schema-2 record's fingerprint is in the old term format, so it
    // is refused by its schema rather than as a missing cell.
    sim::PaperOptions opts;
    opts.workloads = {"mcf"};
    const sim::Figure &fig = figureNamed("fig11_flush_reduction");
    std::vector<sim::StatsRecord> records = zeroRecords(fig, "mcf", opts, {});
    records.front().schema = 2;
    std::vector<sim::ReportTable> tables;
    std::string err;
    EXPECT_FALSE(sim::figureTables({&fig}, records, tables, err));
    EXPECT_EQ(err, "record base on mcf is schema 2: its fingerprint names "
                   "no cell of this build");
}

} // namespace
} // namespace dmp
