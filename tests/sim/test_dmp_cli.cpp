/**
 * @file
 * The `dmp` command line, driven as a child process: a missing or
 * unknown subcommand is a usage error, numeric options of every
 * subcommand must parse whole, `dmp run --stats-json` writes the
 * record the library computes, single-run outputs refuse --sweep, a
 * ROB too small for a predicated exit fails cleanly, and the text
 * trace closes every episode it opens without moving a single stats
 * counter, `dmp paper` rejects a bad figure or workload list
 * before it simulates anything, `dmp lint/mark --json` to stdout
 * leaves nothing there but the document, `dmp lint` on a `.s` file
 * with a malformed operand fails naming the line, `dmp run` refuses
 * a program that `dmp lint` rejects, the `dmp lint --deep` and
 * `dmp mark` reports on every workload equal the copies committed
 * under tests/sim/reference, `dmp report --figure` renders every table
 * `dmp paper` prints from its records and refuses records it cannot
 * place, `dmp run --sweep` prints dmp report's summary table, and each
 * generated table in EXPERIMENTS.md equals `dmp report --figure
 * --format=md` over the committed figure records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "dmp_cli.hh"
#include "sim/paper.hh"
#include "sim/simulator.hh"

namespace dmp
{
namespace
{

using test::runDmp;
using test::slurp;
using test::tempPath;

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** JSONL text `s` with every host_* (wall-clock) field removed. */
std::string
withoutHostFields(std::string s)
{
    for (std::size_t at; (at = s.find(",\"host_")) != std::string::npos;)
        s.erase(at, s.find_first_of(",}", at + 1) - at);
    return s;
}

TEST(DmpCli, MissingOrUnknownSubcommandListsThemAll)
{
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{}, std::vector<std::string>{"frobnicate"}}) {
        test::CliResult r = runDmp(args);
        EXPECT_EQ(r.status, 2);
        for (const char *sub : {"dmp run ", "dmp lint ", "dmp mark ",
                                "dmp report ", "dmp paper "})
            EXPECT_NE(r.err.find(sub), std::string::npos)
                << sub << "missing from:\n" << r.err;
    }
}

TEST(DmpRun, NumericOptionsMustParseWhole)
{
    // Each row fails while parsing, before any target is built or read.
    const std::vector<std::vector<std::string>> rows = {
        {"run", "--iters=abc", "--list"},
        {"run", "--width=0x", "--list"},
        {"run", "--rob=12x", "--list"},
        {"run", "--seed=", "--list"},
        {"run", "--jobs=-1", "--list"},
        {"run", "--jobs=257", "--list"},
        {"run", "--jobs=4294967296", "--list"},
        {"run", "--depth=1.5", "--list"},
        {"run", "--rob=99999999999", "--list"},
        {"run", "--iters= 5", "--list"},
        {"run", "--seed=+5", "--list"},
        {"lint", "--iters=abc", "bzip2"},
        {"lint", "--seed=5x", "bzip2"},
        {"lint", "--depth=-1", "bzip2"},
        {"lint", "--mem=1.5", "bzip2"},
        {"lint", "--deep=xyz", "bzip2"},
        {"mark", "--iters=", "bzip2"},
        {"mark", "--seed=0x", "bzip2"},
        {"mark", "--mem=12k", "bzip2"},
        {"mark", "--prune=junk", "bzip2"},
        {"mark", "--prune=-0.5", "bzip2"},
        {"report", "--branches=zz", "stats.jsonl"},
        {"paper", "--iters=abc", "fig11_flush_reduction"},
        {"paper", "--jobs=2x", "fig11_flush_reduction"},
        {"paper", "--jobs=257", "--iters=10", "--workloads=mcf",
         "fig11_flush_reduction"},
    };
    for (const std::vector<std::string> &row : rows) {
        const std::string &bad = row[1];
        const std::string opt = bad.substr(0, bad.find('='));
        test::CliResult r = runDmp(row);
        EXPECT_EQ(r.status, 1) << row[0] << " " << bad;
        EXPECT_NE(r.err.find(opt + ": not a valid number"),
                  std::string::npos)
            << row[0] << " " << bad << ": " << r.err;
    }
    // Decimal, hex and octal values (and --prune fractions) still parse.
    EXPECT_EQ(runDmp({"run", "--iters=0x20", "--seed=017", "--rob=128",
                      "--list"}).status,
              0);
    EXPECT_EQ(runDmp({"lint", "--iters=0x20", "--seed=017", "--depth=8",
                      "--deep=3", "--quiet", "bzip2"}).status,
              0);
    EXPECT_EQ(runDmp({"mark", "--iters=0x20", "--prune=.25",
                      "--no-compare", "--quiet", "bzip2"}).status,
              0);
}

TEST(DmpCli, JsonToStdoutIsTheWholeDocument)
{
    const std::string path = tempPath("report.json");
    for (const std::vector<std::string> &row :
         {std::vector<std::string>{"lint"},
          std::vector<std::string>{"lint", "--deep"},
          std::vector<std::string>{"mark"}}) {
        const std::string what = row.size() > 1 ? "lint --deep" : row[0];
        std::vector<std::string> args = row;
        args.insert(args.end(), {"--iters=200", "--quiet"});
        std::vector<std::string> to_stdout = args;
        to_stdout.insert(to_stdout.end(), {"--json", "bzip2", "mcf"});
        test::CliResult piped = runDmp(to_stdout);
        EXPECT_EQ(piped.status, 0) << what << ": " << piped.err;
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::parse(piped.out, doc, err))
            << what << ": " << err << "\n" << piped.out;
        ASSERT_TRUE(doc.get("targets") && doc.get("targets")->isArray());
        EXPECT_EQ(doc.get("targets")->array.size(), 2u) << what;
        EXPECT_NE(piped.err.find("total: "), std::string::npos)
            << what << ": the text report belongs on stderr";

        // With a file sink the same text stays on stdout and the file
        // holds the same document.
        std::vector<std::string> to_file = args;
        to_file.insert(to_file.end(), {"--json=" + path, "bzip2", "mcf"});
        test::CliResult filed = runDmp(to_file);
        EXPECT_EQ(filed.status, 0) << what;
        EXPECT_EQ(filed.out, piped.err) << what;
        EXPECT_EQ(slurp(path), piped.out) << what;
        std::remove(path.c_str());
    }
}

/**
 * Where `got` first differs from `want`: the line number and the
 * target whose line it is (each report prints one target per line).
 */
std::string
firstDifference(const std::string &want, const std::string &got)
{
    std::istringstream w(want), g(got);
    std::string wl, gl;
    for (int line = 1;; ++line) {
        const bool more_w = bool(std::getline(w, wl));
        const bool more_g = bool(std::getline(g, gl));
        if (!more_w && !more_g)
            return "nowhere";
        if (more_w && more_g && wl == gl)
            continue;
        const std::string &at_line = more_w ? wl : gl;
        const std::string key = "{\"target\":\"";
        const std::size_t at = at_line.find(key);
        std::string target = "(none)";
        if (at != std::string::npos) {
            const std::size_t from = at + key.size();
            target = at_line.substr(from, at_line.find('"', from) - from);
        }
        return "line " + std::to_string(line) + ", target " + target;
    }
}

TEST(DmpCli, AbsintReportsMatchCommittedReferences)
{
    // Both reports hold no host fields, so any byte that moves is a
    // change in absint, the profiler, markgen or the linter. After an
    // intended change, regenerate the copy with the same command and
    // `--json=tests/sim/reference/<file>`.
    using Row = std::pair<std::string, std::vector<std::string>>;
    for (const auto &[file, args] :
         {Row{"lint_deep.json",
              {"lint", "--deep", "--quiet", "--json", "all"}},
          Row{"mark.json", {"mark", "--quiet", "--json", "all"}}}) {
        const std::string want =
            slurp(std::string(DMP_TEST_REFERENCE_DIR) + "/" + file);
        ASSERT_FALSE(want.empty()) << file << " is missing";
        test::CliResult r = runDmp(args);
        EXPECT_EQ(r.status, 0) << file << ": " << r.err;
        EXPECT_TRUE(r.out == want)
            << "dmp " << args[0] << " differs from tests/sim/reference/"
            << file << " first at " << firstDifference(want, r.out);
    }
}

TEST(DmpCli, LintRejectsOperandOfTheWrongKind)
{
    const std::string path = tempPath("bad.s");
    {
        std::ofstream src(path);
        src << "li r1, 6\nadd r2, r1, 5\nhalt\n";
    }
    test::CliResult r = runDmp({"lint", path});
    std::remove(path.c_str());
    EXPECT_NE(r.status, 0);
    EXPECT_NE(r.err.find("line 2"), std::string::npos) << r.err;
}

TEST(DmpRun, RefusesWhatDmpLintRejects)
{
    // No halt: execution falls off the end of the image, an error
    // finding. dmp run lints before it simulates, so it refuses the
    // program with the findings instead of running into a deadlock.
    // Marking by profile (the default) would execute the program, so
    // the verifier sees it first there too: every path reports the
    // finding instead of failing inside the train run.
    const std::string path = tempPath("fallthrough.s");
    {
        std::ofstream src(path);
        src << "li r1, 6\nadd r2, r1, r1\n";
    }
    const std::vector<std::vector<std::string>> commands = {
        {"lint", "--no-mark", path}, {"lint", path},
        {"lint", "--deep", path},    {"run", "--mark=none", path},
        {"run", path},               {"run", "--mark=static", path},
        {"mark", path},              {"mark", "--no-compare", path}};
    for (const std::vector<std::string> &args : commands) {
        std::string what = "dmp";
        for (std::size_t i = 0; i + 1 < args.size(); ++i)
            what += " " + args[i];
        test::CliResult r = runDmp(args);
        EXPECT_EQ(r.status, 1) << what;
        EXPECT_NE((r.out + r.err).find("fallthrough-end"),
                  std::string::npos)
            << what << ": " << r.out << r.err;
        EXPECT_EQ(r.err.find("fatal"), std::string::npos)
            << what << ": " << r.err;
        if (args[0] == "run") {
            EXPECT_EQ(r.out.find("IPC"), std::string::npos)
                << what << ": " << r.out;
        }
    }
    std::remove(path.c_str());
}

TEST(DmpRun, StatsJsonMatchesLibraryResult)
{
    const std::string path = tempPath("cli.jsonl");
    std::remove(path.c_str());
    ASSERT_EQ(runDmp({"run", "--mode=dmp-enhanced", "--iters=300",
                      "--accounting", "--stats-json=" + path, "bzip2"})
                  .status,
              0);

    sim::SimConfig cfg;
    cfg.workload = "bzip2";
    cfg.core = sim::machine("dmp-enhanced");
    cfg.train.iterations = 300;
    cfg.ref.iterations = 300;
    cfg.accounting = true;
    const std::string lib =
        sim::simResultJson(sim::runSim(cfg), "dmp-enhanced", "bzip2");

    const std::string cli = withoutHostFields(slurp(path));
    ASSERT_NE(cli.find("\"accounting\":"), std::string::npos);
    EXPECT_TRUE(cli == withoutHostFields(lib) + "\n")
        << "dmp run and sim::runSim disagree:\n" << cli;
    std::remove(path.c_str());
}

TEST(DmpRun, SingleRunOutputsRejectSweep)
{
    const std::string pv = tempPath("sweep.pv");
    const std::string txt = tempPath("sweep.txt");
    std::remove(pv.c_str());
    std::remove(txt.c_str());
    for (const std::vector<std::string> &outputs :
         {std::vector<std::string>{"--pipeview=" + pv},
          std::vector<std::string>{"--debug-flags=Dpred",
                                   "--trace-file=" + txt}}) {
        std::vector<std::string> args = {"run", "--sweep=base,dmp",
                                         "--iters=50"};
        args.insert(args.end(), outputs.begin(), outputs.end());
        args.push_back("bzip2");
        test::CliResult r = runDmp(args);
        const std::string opt =
            outputs[0].substr(0, outputs[0].find('='));
        EXPECT_EQ(r.status, 1) << opt;
        EXPECT_NE(r.err.find(opt + " is single-run only"),
                  std::string::npos)
            << r.err;
    }
    EXPECT_FALSE(exists(pv));
    EXPECT_FALSE(exists(txt));
}

TEST(DmpPaper, BadFigureOrWorkloadsFailBeforeSimulating)
{
    for (const std::string list : {"nosuch", "mcf,nosuch", "mcf,mcf"}) {
        test::CliResult r = runDmp(
            {"paper", "fig11_flush_reduction", "--workloads=" + list});
        EXPECT_EQ(r.status, 1) << list;
        const std::string bad = list.substr(list.rfind(',') + 1);
        EXPECT_NE(r.err.find("--workloads: "), std::string::npos) << r.err;
        EXPECT_NE(r.err.find(": " + bad), std::string::npos) << r.err;
    }

    test::CliResult r = runDmp({"paper", "nosuch"});
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("unknown figure: nosuch"), std::string::npos)
        << r.err;
    for (const sim::Figure &f : sim::figures())
        EXPECT_NE(r.err.find(std::string(" ") + f.name), std::string::npos)
            << f.name << " missing from:\n" << r.err;
}

TEST(DmpReport, FigureReproducesEveryPaperTable)
{
    const std::string stats = tempPath("paper.jsonl");
    std::remove(stats.c_str());
    test::CliResult paper =
        runDmp({"paper", "all", "--iters=60", "--workloads=mcf",
                "--stats-json=" + stats});
    ASSERT_EQ(paper.status, 0) << paper.err;

    std::string rendered;
    for (const sim::Figure &f : sim::figures()) {
        test::CliResult report =
            runDmp({"report", std::string("--figure=") + f.name, stats});
        EXPECT_EQ(report.status, 0) << f.name << ": " << report.err;
        EXPECT_NE(paper.out.find(report.out), std::string::npos)
            << f.name << ":\n" << report.out;
        rendered += (rendered.empty() ? "" : "\n") + report.out;
    }
    EXPECT_TRUE(rendered == paper.out) << "dmp paper printed:\n"
                                       << paper.out << "\ndmp report:\n"
                                       << rendered;
    test::CliResult all = runDmp({"report", "--figure=all", stats});
    EXPECT_TRUE(all.out == paper.out) << all.err;
    std::remove(stats.c_str());
}

TEST(DmpReport, FigureRefusesRecordsItCannotPlace)
{
    // dmp run records carry no fingerprint.
    const std::string run = tempPath("run.jsonl");
    std::remove(run.c_str());
    ASSERT_EQ(runDmp({"run", "--mode=base", "--iters=60",
                      "--stats-json=" + run, "mcf"})
                  .status,
              0);
    test::CliResult r =
        runDmp({"report", "--figure=table3_baseline", run});
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("record base on mcf has no fingerprint"),
              std::string::npos)
        << r.err;

    // One file, two iteration counts.
    const std::string mixed = tempPath("mixed.jsonl");
    std::remove(mixed.c_str());
    for (const char *iters : {"--iters=60", "--iters=70"})
        ASSERT_EQ(runDmp({"paper", "fig11_flush_reduction", iters,
                          "--workloads=mcf", "--stats-json=" + mixed})
                      .status,
                  0);
    r = runDmp({"report", "--figure=fig11_flush_reduction", mixed});
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("the records mix bench_iters 60 and 70"),
              std::string::npos)
        << r.err;

    // A figure whose cells the file does not hold.
    const std::string fig11 = tempPath("fig11.jsonl");
    std::remove(fig11.c_str());
    ASSERT_EQ(runDmp({"paper", "fig11_flush_reduction", "--iters=60",
                      "--workloads=mcf", "--stats-json=" + fig11})
                  .status,
              0);
    r = runDmp({"report", "--figure=fig07_basic_dmp", fig11});
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("fig07_basic_dmp: workload mcf: no record of "
                         "cell dhp_jrs"),
              std::string::npos)
        << r.err;
    r = runDmp({"report", "--figure=nosuch", fig11});
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("unknown figure: nosuch"), std::string::npos)
        << r.err;
    for (const std::string &p : {run, mixed, fig11})
        std::remove(p.c_str());
}

TEST(DmpRun, SweepPrintsTheSummaryTable)
{
    test::CliResult r =
        runDmp({"run", "--sweep=base,dmp", "--jobs=2", "--iters=60", "mcf"});
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_EQ(r.out.rfind("=== mcf: 2 modes on 2 worker(s) ===\nlabel", 0),
              0u)
        << r.out;
    for (const char *col : {"workload", "IPC", "cycles", "retired",
                            "flushes", "MPKI", "\nbase ", "\ndmp "})
        EXPECT_NE(r.out.find(col), std::string::npos) << col << "\n" << r.out;
}

TEST(DmpReport, ExperimentsBlocksMatchCommittedRecords)
{
    // Each generated block of EXPERIMENTS.md opens with the command
    // that renders it and closes with kEnd. After the committed
    // records change, paste each command's output over its block.
    const std::string kBegin = "<!-- dmp report --figure=";
    const std::string kEnd = "<!-- end of generated block -->\n";
    const std::string records =
        std::string(DMP_TEST_REFERENCE_DIR) + "/paper_records.jsonl";
    const std::string doc = slurp(DMP_EXPERIMENTS_MD);
    ASSERT_FALSE(doc.empty());
    std::set<std::string> seen;
    for (std::size_t at = doc.find(kBegin); at != std::string::npos;
         at = doc.find(kBegin, at + 1)) {
        const std::size_t name_at = at + kBegin.size();
        const std::string name =
            doc.substr(name_at, doc.find(' ', name_at) - name_at);
        const std::size_t body = doc.find('\n', at) + 1;
        const std::size_t end = doc.find(kEnd, body);
        ASSERT_NE(end, std::string::npos) << name << " block never ends";
        test::CliResult r = runDmp({"report", "--figure=" + name,
                                    "--format=md", records});
        EXPECT_EQ(r.status, 0) << name << ": " << r.err;
        EXPECT_TRUE(doc.substr(body, end - body) == r.out)
            << "EXPERIMENTS.md's " << name
            << " block differs from dmp report; it should read:\n" << r.out;
        seen.insert(name);
    }
    for (const sim::Figure &f : sim::figures())
        EXPECT_TRUE(seen.count(f.name)) << f.name << " has no block";
}

TEST(DmpRun, RobBelowPredicationMinimumFailsCleanly)
{
    test::CliResult r = runDmp(
        {"run", "--mode=dmp", "--rob=16", "--iters=50", "bzip2"});
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("fatal: robSize 16 is below the minimum of 64"),
              std::string::npos)
        << r.err;
}

TEST(DmpRun, DpredTraceClosesEveryEpisodeAndLeavesStatsAlone)
{
    const std::string plain = tempPath("plain.jsonl");
    const std::string traced = tempPath("traced.jsonl");
    const std::string txt = tempPath("dpred.txt");
    for (const std::string &p : {plain, traced, txt})
        std::remove(p.c_str());
    const std::vector<std::string> common = {"run", "--mode=dmp-enhanced",
                                             "--iters=300"};

    std::vector<std::string> args = common;
    args.push_back("--stats-json=" + plain);
    args.push_back("bzip2");
    ASSERT_EQ(runDmp(args).status, 0);
    args = common;
    args.push_back("--stats-json=" + traced);
    args.push_back("--debug-flags=Dpred,Flush");
    args.push_back("--trace-file=" + txt);
    args.push_back("bzip2");
    ASSERT_EQ(runDmp(args).status, 0);

    const std::string stats = withoutHostFields(slurp(plain));
    ASSERT_NE(stats.find("\"retired_insts\""), std::string::npos);
    EXPECT_EQ(stats.find("host_"), std::string::npos);
    EXPECT_TRUE(stats == withoutHostFields(slurp(traced)))
        << "the text trace changed the stats record";

    // "<cycle>: core.fetch: Dpred: sq=0: EP<id> enter pc=..." and
    // "<cycle>: core.dpred: Dpred: sq=0: EP<id> end pc=...".
    std::set<std::string> started, ended;
    std::size_t flush_lines = 0;
    std::istringstream lines(slurp(txt));
    const std::string dpred = ": Dpred: sq=0: EP";
    for (std::string line; std::getline(lines, line);) {
        const std::size_t at = line.find(dpred);
        if (at == std::string::npos) {
            EXPECT_NE(line.find(": Flush: "), std::string::npos) << line;
            ++flush_lines;
            continue;
        }
        std::istringstream rest(line.substr(at + dpred.size()));
        std::string id, what;
        rest >> id >> what;
        EXPECT_TRUE(what == "enter" || what == "end") << line;
        (what == "enter" ? started : ended).insert(id);
    }
    EXPECT_GT(started.size(), 10u);
    EXPECT_GT(flush_lines, 0u);
    for (const std::string &id : started)
        EXPECT_TRUE(ended.count(id)) << "EP" << id << " never ended";
    for (const std::string &p : {plain, traced, txt})
        std::remove(p.c_str());
}

} // namespace
} // namespace dmp
