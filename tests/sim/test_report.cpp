/**
 * @file
 * Tests for the stats-JSONL aggregation layer behind dmp report:
 * record parsing (including real simResultJson output round-trips and
 * the refusal of each kind of malformed field), table building, and
 * the Figure 11 flush-reduction computation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "../testutil.hh"

namespace dmp::sim
{
namespace
{

StatsRecord
parseOk(const std::string &line)
{
    StatsRecord rec;
    std::string err;
    EXPECT_TRUE(parseStatsRecord(line, rec, err)) << err << "\n" << line;
    return rec;
}

/** A synthetic schema-3 record line. */
std::string
recordLine(const std::string &label, const std::string &workload,
           std::uint64_t retired, std::uint64_t cycles,
           std::uint64_t flushes)
{
    return "{\"schema\":3,\"label\":\"" + label + "\",\"workload\":\"" +
           workload + "\",\"counters\":{\"cycles\":" +
           std::to_string(cycles) + ",\"pipeline_flushes\":" +
           std::to_string(flushes) + ",\"retired_insts\":" +
           std::to_string(retired) + "}}";
}

TEST(Report, ParsesSyntheticRecord)
{
    StatsRecord r = parseOk(recordLine("base", "bzip2", 840, 2000, 99));
    EXPECT_EQ(r.schema, 3);
    EXPECT_EQ(r.label, "base");
    EXPECT_EQ(r.workload, "bzip2");
    EXPECT_DOUBLE_EQ(r.ipc, 0.42);
    EXPECT_EQ(r.cycles, 2000u);
    EXPECT_EQ(r.retiredInsts, 840u);
    EXPECT_EQ(r.counter("pipeline_flushes"), 99u);
    EXPECT_EQ(r.counter("no_such_counter"), 0u);
    EXPECT_FALSE(r.hasAccounting);
}

TEST(Report, ParsesAccountingBlock)
{
    StatsRecord r = parseOk(
        "{\"schema\":3,\"label\":\"dmp\",\"workload\":\"mcf\","
        "\"counters\":{\"cycles\":100,\"retired_insts\":50},"
        "\"accounting\":{\"frontend_depth\":8,\"retire_width\":4,"
        "\"total_cycles\":100,"
        "\"buckets\":{\"retire_useful\":60,\"idle\":40},"
        "\"branches\":[{\"pc\":\"0x1300\",\"episodes\":7,"
        "\"flushes_avoided\":2,\"net_cycles\":12.5}]}}");
    ASSERT_TRUE(r.hasAccounting);
    ASSERT_EQ(r.buckets.size(), 2u);
    EXPECT_EQ(r.buckets[0].first, "retire_useful");
    EXPECT_EQ(r.buckets[0].second, 60u);
    ASSERT_EQ(r.branches.size(), 1u);
    EXPECT_EQ(r.branches[0].pc, "0x1300");
    EXPECT_EQ(r.branches[0].episodes, 7u);
    EXPECT_EQ(r.branches[0].flushesAvoided, 2u);
    EXPECT_DOUBLE_EQ(r.branches[0].netCycles, 12.5);
}

TEST(Report, RoundTripsRealSimResultJson)
{
    SimResult r;
    r.counters.emplace("cycles", 4000);
    r.counters.emplace("retired_insts", 3000);
    r.counters.emplace("pipeline_flushes", 17);
    std::string line = simResultJson(r, "dmp-enhanced", "twolf");
    StatsRecord rec = parseOk(line);
    EXPECT_EQ(rec.schema, kStatsSchemaVersion);
    EXPECT_EQ(rec.label, "dmp-enhanced");
    EXPECT_EQ(rec.workload, "twolf");
    EXPECT_DOUBLE_EQ(rec.ipc, 0.75);
    EXPECT_EQ(rec.cycles, 4000u);
    EXPECT_EQ(rec.retiredInsts, 3000u);
    EXPECT_EQ(rec.counter("pipeline_flushes"), 17u);
}

TEST(Report, IpcIsDerivedFromCounters)
{
    // Every schema carries cycles and retired_insts in its counters;
    // the top-level ipc, cycles and retired_insts that schemas 1 and 2
    // repeated are not read.
    const std::string counters =
        "\"counters\":{\"cycles\":8000,\"retired_insts\":3000}";
    const std::string old_top =
        "\"ipc\":\"x\",\"cycles\":1,\"retired_insts\":1,";
    for (const std::string &line :
         {"{\"schema\":1,\"label\":\"l\",\"workload\":\"w\"," + old_top +
              counters + ",\"formulas\":{}}",
          "{\"schema\":2,\"label\":\"l\",\"workload\":\"w\"," + old_top +
              counters + "}",
          "{\"schema\":3,\"label\":\"l\",\"workload\":\"w\"," + counters +
              "}"}) {
        const StatsRecord r = parseOk(line);
        EXPECT_EQ(r.cycles, 8000u) << line;
        EXPECT_EQ(r.retiredInsts, 3000u) << line;
        EXPECT_EQ(r.ipc, 3000.0 / 8000.0) << line;
    }
    EXPECT_EQ(parseOk(recordLine("l", "w", 5, 0, 0)).ipc, 0.0);
}

TEST(Report, RejectsMalformedLine)
{
    StatsRecord rec;
    std::string err;
    EXPECT_FALSE(parseStatsRecord("not json", rec, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseStatsRecord("[1,2,3]", rec, err));
    EXPECT_NE(err.find("not a JSON object"), std::string::npos);
}

TEST(Report, LoadsJsonlSkippingBlankLines)
{
    std::string path = testing::TempDir() + "dmp_report_test.jsonl";
    {
        std::ofstream out(path);
        out << recordLine("base", "bzip2", 40, 100, 10) << "\n\n"
            << "   \n"
            << recordLine("dmp", "bzip2", 40, 80, 4) << "\n";
    }
    std::vector<StatsRecord> recs;
    std::string err;
    ASSERT_TRUE(loadStatsJsonl(path, recs, err)) << err;
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].label, "base");
    EXPECT_EQ(recs[1].label, "dmp");
    EXPECT_NE(findRecord(recs, "dmp", "bzip2"), nullptr);
    EXPECT_EQ(findRecord(recs, "dmp", "mcf"), nullptr);
    std::remove(path.c_str());
}

TEST(Report, LoadErrorsCarryLineNumber)
{
    std::string path = testing::TempDir() + "dmp_report_bad.jsonl";
    {
        std::ofstream out(path);
        out << recordLine("base", "bzip2", 40, 100, 10) << "\n"
            << "{broken\n";
    }
    std::vector<StatsRecord> recs;
    std::string err;
    EXPECT_FALSE(loadStatsJsonl(path, recs, err));
    EXPECT_NE(err.find(":2:"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Report, FormatParsing)
{
    ReportFormat f;
    EXPECT_TRUE(parseReportFormat("text", f));
    EXPECT_EQ(f, ReportFormat::Text);
    EXPECT_TRUE(parseReportFormat("json", f));
    EXPECT_EQ(f, ReportFormat::Json);
    EXPECT_TRUE(parseReportFormat("md", f));
    EXPECT_EQ(f, ReportFormat::Markdown);
    EXPECT_FALSE(parseReportFormat("csv", f));
}

TEST(Report, FlushReductionMatchesFig11Formula)
{
    // Figure 11 and diffTable compute base ? 100*(base-enh)/base : 0
    // per workload, then the average.
    EXPECT_DOUBLE_EQ(flushReductionPct(200, 62), 69.0);
    EXPECT_DOUBLE_EQ(flushReductionPct(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(flushReductionPct(0, 5), 0.0); // no div-by-zero
    EXPECT_DOUBLE_EQ(flushReductionPct(50, 75), -50.0);
}

/** `line` is refused, and the error names `field`. */
void
expectRefused(const std::string &line, const std::string &field)
{
    StatsRecord rec;
    std::string err;
    EXPECT_FALSE(parseStatsRecord(line, rec, err)) << line;
    EXPECT_NE(err.find("\"" + field + "\""), std::string::npos)
        << "error does not name " << field << ": " << err;
}

/** recordLine's text with `from` replaced by `to` (which must occur). */
std::string
recordWith(const std::string &from, const std::string &to)
{
    std::string line = recordLine("base", "bzip2", 50, 100, 10);
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? line : line.replace(at, from.size(), to);
}

TEST(ReportRefuses, UnknownSchema)
{
    expectRefused(recordWith("\"schema\":3", "\"schema\":7"), "schema");
    expectRefused(recordWith("\"schema\":3", "\"schema\":0"), "schema");
    expectRefused(recordWith("\"schema\":3", "\"schema\":\"3\""),
                  "schema");
}

TEST(ReportRefuses, MissingSchema)
{
    expectRefused(recordWith("\"schema\":3,", ""), "schema");
}

TEST(ReportRefuses, LabelThatIsNotAString)
{
    expectRefused(recordWith("\"label\":\"base\"", "\"label\":5"), "label");
}

TEST(ReportRefuses, WorkloadThatIsNotAString)
{
    expectRefused(recordWith("\"workload\":\"bzip2\"", "\"workload\":null"),
                  "workload");
}

TEST(ReportRefuses, CyclesThatAreNotAnInteger)
{
    expectRefused(recordWith("\"cycles\":100", "\"cycles\":\"lots\""),
                  "counters.cycles");
    expectRefused(recordWith("\"cycles\":100", "\"cycles\":12.5"),
                  "counters.cycles");
    expectRefused(recordWith("\"cycles\":100,", ""), "counters.cycles");
}

TEST(ReportRefuses, NegativeRetiredInstructions)
{
    expectRefused(recordWith("\"retired_insts\":50",
                             "\"retired_insts\":-3"),
                  "counters.retired_insts");
}

TEST(ReportRefuses, CyclesFrom2To64Up)
{
    // Converting these to an integer would be undefined behaviour.
    expectRefused(recordWith("\"cycles\":100", "\"cycles\":1e30"),
                  "counters.cycles");
    expectRefused(recordWith("\"cycles\":100",
                             "\"cycles\":18446744073709551616"),
                  "counters.cycles");
}

TEST(ReportRefuses, CounterThatIsNotAnInteger)
{
    expectRefused(recordWith("\"pipeline_flushes\":10",
                             "\"pipeline_flushes\":2.5"),
                  "counters.pipeline_flushes");
    expectRefused(recordWith("\"pipeline_flushes\":10",
                             "\"pipeline_flushes\":-1"),
                  "counters.pipeline_flushes");
}

TEST(ReportRefuses, BucketThatIsNotAnInteger)
{
    expectRefused(recordWith("\"retired_insts\":50}",
                             "\"retired_insts\":50},\"accounting\":"
                             "{\"buckets\":{\"idle\":\"many\"}}"),
                  "accounting.buckets.idle");
}

TEST(ReportRefuses, MarkingBlockWithoutAllItsCounts)
{
    expectRefused(recordWith("\"retired_insts\":50}",
                             "\"retired_insts\":50},\"marking\":"
                             "{\"candidates\":1,\"diverge\":1,\"hammock\":0}"),
                  "marking.loop");
}

TEST(ReportRefuses, TheWholeBadRecordWithItsLineNumber)
{
    const std::string path = testing::TempDir() + "dmp_report_strict.jsonl";
    {
        std::ofstream out(path);
        out << recordLine("base", "bzip2", 40, 100, 10) << "\n"
            << "{\"schema\":7,\"label\":5,\"ipc\":\"x\",\"cycles\":"
               "\"lots\",\"retired_insts\":-3}\n";
    }
    std::vector<StatsRecord> recs;
    std::string err;
    EXPECT_FALSE(loadStatsJsonl(path, recs, err));
    EXPECT_EQ(err.rfind(path + ":2: ", 0), 0u) << err;
    EXPECT_NE(err.find("\"schema\""), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Report, ParsesMarkingBlockAndFingerprint)
{
    SimResult r;
    r.counters = {{"cycles", 1}, {"retired_insts", 1}};
    r.marking.candidateBranches = 9;
    r.marking.markedDiverge = 4;
    r.marking.markedSimpleHammock = 2;
    r.marking.markedLoop = 1;
    r.marking.classification = {3, 5, 7, 11000};
    const StatsRecord rec = parseOk(simResultJson(r, "l", "w", "fp", 60));
    EXPECT_EQ(rec.fingerprint, "fp");
    EXPECT_EQ(rec.benchIters, 60u);
    EXPECT_EQ(rec.marking.candidateBranches, 9u);
    EXPECT_EQ(rec.marking.markedDiverge, 4u);
    EXPECT_EQ(rec.marking.markedSimpleHammock, 2u);
    EXPECT_EQ(rec.marking.markedLoop, 1u);
    const profile::MispredictClassification &c = rec.marking.classification;
    EXPECT_EQ(c.simpleHammockDiverge, 3u);
    EXPECT_EQ(c.complexDiverge, 5u);
    EXPECT_EQ(c.otherComplex, 7u);
    EXPECT_EQ(c.totalInsts, 11000u);
}

TEST(Report, SummaryAndDiffTables)
{
    std::vector<StatsRecord> recs = {
        parseOk(recordLine("base", "bzip2", 40, 100, 10)),
        parseOk(recordLine("dmp", "bzip2", 40, 80, 5)),
    };
    ReportTable s = summaryTable(recs);
    ASSERT_EQ(s.rows.size(), 2u);
    EXPECT_EQ(s.rows[0][0], "base");
    EXPECT_EQ(s.rows[0][5], "10"); // flushes column

    ReportTable d = diffTable(recs, "base", "dmp");
    ASSERT_EQ(d.rows.size(), 2u); // bzip2 + average
    EXPECT_EQ(d.rows[0][0], "bzip2");
    EXPECT_EQ(d.rows[0][3], "25.0"); // IPC delta %
    EXPECT_EQ(d.rows[0][6], "50.0"); // flush reduction %
}

TEST(Report, SummaryMpkiFromCountersWhenRecordHasNoFormulas)
{
    // No schema-3 record carries formulas.
    StatsRecord rec = parseOk(
        "{\"schema\":3,\"label\":\"base\",\"workload\":\"mcf\","
        "\"counters\":{\"cycles\":8000,\"retired_insts\":3000,"
        "\"retired_mispred_cond_branches\":37}}");
    ReportTable s = summaryTable({rec});
    ASSERT_EQ(s.rows.size(), 1u);
    EXPECT_EQ(s.rows[0][6], "12.33");
}

TEST(Report, SummaryMpkiMatchesTheCoreFormula)
{
    workloads::WorkloadParams wp;
    wp.iterations = 100;
    const isa::Program prog = workloads::buildWorkload("mcf", wp);
    core::Core machine(prog, core::CoreParams{});
    machine.run();
    StatsRecord rec = parseOk(
        simResultJson(resultOfRun(machine, nullptr, 0), "base", "mcf"));
    ASSERT_GT(rec.counter("retired_mispred_cond_branches"), 0u);
    char want[48];
    std::snprintf(want, sizeof(want), "%.2f",
                  test::derivedStats(machine.stats())
                      .at("mispred_per_kilo_insts"));
    EXPECT_EQ(summaryTable({rec}).rows[0][6], want);
}

TEST(Report, RenderersProduceAllThreeFormats)
{
    ReportTable t;
    t.title = "demo";
    t.header = {"a", "b"};
    t.rows = {{"x", "1"}, {"y", "22"}};

    std::string text = t.render(ReportFormat::Text);
    EXPECT_NE(text.find("=== demo ==="), std::string::npos);
    EXPECT_NE(text.find("x"), std::string::npos);

    std::string md = t.render(ReportFormat::Markdown);
    EXPECT_NE(md.find("### demo"), std::string::npos);
    EXPECT_NE(md.find("| x | 1 |"), std::string::npos);

    std::string js = renderTables({t}, ReportFormat::Json);
    // The JSON rendering must itself be parsable.
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(js, doc, err)) << err << "\n" << js;
    ASSERT_TRUE(doc.isArray());
    EXPECT_EQ(doc.array[0].get("title")->string, "demo");
}

TEST(Report, BranchTableRanksByNetCycles)
{
    StatsRecord rec = parseOk(
        "{\"schema\":3,\"label\":\"dmp\",\"workload\":\"gap\","
        "\"counters\":{\"cycles\":10,\"retired_insts\":5},"
        "\"accounting\":{\"buckets\":{},\"branches\":["
        "{\"pc\":\"0x100\",\"episodes\":2,\"net_cycles\":5.0},"
        "{\"pc\":\"0x200\",\"episodes\":3,\"net_cycles\":50.0},"
        "{\"pc\":\"0x300\",\"episodes\":0,\"net_cycles\":99.0},"
        "{\"pc\":\"0x400\",\"episodes\":1,\"net_cycles\":-2.0}]}}");
    std::vector<StatsRecord> recs = {rec};
    ReportTable t = branchTable(recs, 0);
    // 0x300 excluded (no episodes); rest ranked best-first.
    ASSERT_EQ(t.rows.size(), 3u);
    EXPECT_EQ(t.rows[0][2], "0x200");
    EXPECT_EQ(t.rows[1][2], "0x100");
    EXPECT_EQ(t.rows[2][2], "0x400");
    ReportTable top1 = branchTable(recs, 1);
    ASSERT_EQ(top1.rows.size(), 1u);
    EXPECT_EQ(top1.rows[0][2], "0x200");
}

} // namespace
} // namespace dmp::sim
