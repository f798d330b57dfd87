/**
 * @file
 * Every JSON exporter escapes strings through json::escape: a name
 * holding a quote, a backslash, a tab and byte 0x01 must come back out
 * of json::parse unchanged from the stats record, the analysis report,
 * the self-check outcome, the marking report and `dmp lint --json`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "analysis/markgen.hh"
#include "analysis/report.hh"
#include "check/checker.hh"
#include "common/json.hh"
#include "dmp_cli.hh"
#include "sim/simulator.hh"

namespace dmp
{
namespace
{

const std::string kName = std::string("we\"ird\\na\tme") + '\x01';

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
    json::Value findings = parseOk(report.json());
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
    json::Value doc = parseOk(
        analysis::markGenTargetJson(kName, analysis::MarkGenReport{},
                                    nullptr));
    EXPECT_EQ(stringAt(doc.get("target")), kName);
}

TEST(JsonRoundTrip, DmpLintTargetPath)
{
    const std::string path = ::testing::TempDir() + kName + ".s";
    const std::string out = ::testing::TempDir() + "roundtrip_lint.json";
    {
        std::ofstream asm_file(path);
        ASSERT_TRUE(asm_file) << "cannot create " << path;
        asm_file << "li r1, 5\nhalt\n";
    }
    ASSERT_EQ(test::runDmp({"lint", "--no-mark", "--quiet",
                            "--json=" + out, path})
                  .status,
              0);

    json::Value doc = parseOk(test::slurp(out));
    const json::Value *targets = doc.get("targets");
    ASSERT_TRUE(targets && targets->isArray());
    ASSERT_EQ(targets->array.size(), 1u);
    EXPECT_EQ(stringAt(targets->array[0].get("target")), path);
    std::remove(path.c_str());
    std::remove(out.c_str());
}

} // namespace
} // namespace dmp
