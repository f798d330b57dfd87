/**
 * @file
 * Every JSON exporter writes through json::Writer: a name holding a
 * quote, a backslash, a tab and byte 0x01 must come back out of
 * json::parse unchanged from the stats record (with its accounting
 * block), the analysis report, the self-check outcome, the marking
 * report, a trace-event thread name, `dmp report --format=json` and
 * `dmp lint --json` (plain and --deep).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/accounting.hh"
#include "analysis/markgen.hh"
#include "analysis/report.hh"
#include "check/checker.hh"
#include "common/json.hh"
#include "common/trace.hh"
#include "dmp_cli.hh"
#include "sim/simulator.hh"
#include "../testutil.hh"

namespace dmp
{
namespace
{

const std::string &kName = test::kJsonName;

/** Parse `text`, which must hold no raw control byte but newline. */
json::Value
parseOk(const std::string &text)
{
    for (char c : text)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
            << "raw control byte " << int(c) << " in\n" << text;
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(text, v, err)) << err << "\n" << text;
    return v;
}

std::string
stringAt(const json::Value *v)
{
    return v && v->isString() ? v->string : "<missing>";
}

TEST(JsonRoundTrip, StatsRecord)
{
    sim::SimResult r;
    r.counters.emplace(kName, 1);
    json::Value doc = parseOk(sim::simResultJson(r, kName, kName));
    EXPECT_EQ(stringAt(doc.get("label")), kName);
    EXPECT_EQ(stringAt(doc.get("workload")), kName);
    const json::Value *counters = doc.get("counters");
    ASSERT_TRUE(counters && counters->isObject());
    ASSERT_EQ(counters->object.size(), 1u);
    EXPECT_EQ(counters->object[0].first, kName);
}

TEST(JsonRoundTrip, AnalysisReportAndSelfcheck)
{
    analysis::Report report;
    report.add(analysis::Severity::Error, kName, 0x1000, 0, kName, 7,
               kName);
    json::Writer w;
    report.json(w);
    json::Value findings = parseOk(w.str());
    ASSERT_TRUE(findings.isArray());
    ASSERT_EQ(findings.array.size(), 1u);
    EXPECT_EQ(stringAt(findings.array[0].get("code")), kName);
    EXPECT_EQ(stringAt(findings.array[0].get("object")), kName);
    EXPECT_EQ(stringAt(findings.array[0].get("message")), kName);

    json::Value sc = parseOk(check::selfcheckJson(
        check::Mode::All, kName, true, 0, report, kName));
    EXPECT_EQ(stringAt(sc.get("target")), kName);
    EXPECT_EQ(stringAt(sc.get("diagnosis")), kName);
}

TEST(JsonRoundTrip, MarkingReport)
{
    json::Writer w;
    analysis::markGenTargetJson(w, kName, analysis::MarkGenReport{},
                                nullptr);
    json::Value doc = parseOk(w.str());
    EXPECT_EQ(stringAt(doc.get("target")), kName);
}

TEST(JsonRoundTrip, AccountingDocument)
{
    analysis::CycleAccounting acct(4, 3);
    acct.onEpisodeStart(1, 0x10d8, false, 0);
    acct.onPredicatedRetire(0x10d8, false);
    acct.finish();
    sim::SimResult r;
    r.hasAccounting = true;
    r.accountingJson = acct.json();
    json::Value doc = parseOk(sim::simResultJson(r, kName, kName));
    EXPECT_EQ(stringAt(doc.get("label")), kName);
    const json::Value *branches = doc.get("accounting", "branches");
    ASSERT_TRUE(branches && branches->isArray());
    ASSERT_EQ(branches->array.size(), 1u);
    EXPECT_EQ(stringAt(branches->array[0].get("pc")), "0x10d8");
    const json::Value *net = branches->array[0].get("net_cycles");
    ASSERT_TRUE(net && net->isNumber());
    EXPECT_NEAR(net->number, -1.0 / 3, 1e-6);
}

TEST(JsonRoundTrip, TraceEventThreadName)
{
    const std::string path = ::testing::TempDir() + "roundtrip_trace.json";
    {
        trace::TraceEventWriter w(path);
        w.threadName(1, kName);
        w.instant(1, 0, kName, "cat",
                  trace::TraceEventWriter::args({{"squashed", 3}}));
    }
    json::Value doc = parseOk(test::slurp(path));
    const json::Value *events = doc.get("traceEvents");
    ASSERT_TRUE(events && events->isArray());
    ASSERT_EQ(events->array.size(), 2u);
    EXPECT_EQ(stringAt(events->array[0].get("args", "name")), kName);
    EXPECT_EQ(stringAt(events->array[1].get("name")), kName);
    std::remove(path.c_str());
}

TEST(JsonRoundTrip, DmpReportTables)
{
    const std::string path = ::testing::TempDir() + "roundtrip.jsonl";
    {
        std::ofstream out(path);
        sim::SimResult r;
        r.counters = {{"cycles", 2}, {"retired_insts", 1},
                      {"pipeline_flushes", 1}};
        out << sim::simResultJson(r, kName, kName) << "\n";
    }
    test::CliResult r = test::runDmp({"report", "--format=json", path});
    ASSERT_EQ(r.status, 0) << r.err;
    json::Value doc = parseOk(r.out);
    ASSERT_TRUE(doc.isArray());
    ASSERT_EQ(doc.array.size(), 1u);
    const json::Value *rows = doc.array[0].get("rows");
    ASSERT_TRUE(rows && rows->isArray());
    ASSERT_EQ(rows->array.size(), 1u);
    ASSERT_GE(rows->array[0].array.size(), 2u);
    EXPECT_EQ(rows->array[0].array[0].string, kName);
    EXPECT_EQ(rows->array[0].array[1].string, kName);
    std::remove(path.c_str());
}

/**
 * `dmp lint [extra] --json` on a file named kName: its target entry.
 * The files live in a directory private to the running test, so the
 * callers can run in parallel.
 */
json::Value
lintTargetPath(const std::vector<std::string> &extra)
{
    const std::string dir = test::tempPath("lint") + "/";
    std::filesystem::create_directories(dir);
    const std::string path = dir + kName + ".s";
    const std::string out = dir + "roundtrip_lint.json";
    {
        std::ofstream asm_file(path);
        EXPECT_TRUE(asm_file) << "cannot create " << path;
        asm_file << "li r1, 5\nhalt\n";
    }
    std::vector<std::string> args = {"lint", "--no-mark", "--quiet",
                                     "--json=" + out, path};
    args.insert(args.begin() + 1, extra.begin(), extra.end());
    EXPECT_EQ(test::runDmp(args).status, 0);

    json::Value doc = parseOk(test::slurp(out));
    std::filesystem::remove_all(dir);
    const json::Value *targets = doc.get("targets");
    if (!targets || !targets->isArray() || targets->array.size() != 1) {
        ADD_FAILURE() << "expected one target entry";
        return {};
    }
    EXPECT_EQ(stringAt(targets->array[0].get("target")), path);
    return targets->array[0];
}

TEST(JsonRoundTrip, DmpLintTargetPath)
{
    lintTargetPath({});
}

TEST(JsonRoundTrip, DmpLintDeepTargetPath)
{
    json::Value t = lintTargetPath({"--deep"});
    ASSERT_NE(t.get("absint"), nullptr);
    EXPECT_TRUE(t.get("absint", "ran")->boolean);
    ASSERT_NE(t.get("branch_proofs"), nullptr);
    EXPECT_TRUE(t.get("branch_proofs")->isArray());
}

} // namespace
} // namespace dmp
