/**
 * @file
 * dmp-run's command line, driven as a child process: numeric options
 * must parse whole, single-run outputs refuse --sweep, a ROB too small
 * for a predicated exit fails cleanly, and the text trace closes every
 * episode it opens without moving a single stats counter.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

extern char **environ;

namespace dmp
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** A temp file private to the running test (ctest runs them in parallel). */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "dmp_run_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + name;
}

/** Exit status and stderr of one dmp-run invocation. */
struct RunResult
{
    int status = -1;
    std::string err;
};

/** Run dmp-run with `args`; stdout is discarded, stderr captured. */
RunResult
dmpRun(std::vector<std::string> args)
{
    const std::string err_path = tempPath("stderr.txt");
    args.insert(args.begin(), DMP_RUN_BIN);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    RunResult r;
    const int spawned = posix_spawn(&pid, DMP_RUN_BIN, &fa, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    EXPECT_EQ(spawned, 0);
    if (spawned != 0)
        return r;
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    r.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    r.err = slurp(err_path);
    std::remove(err_path.c_str());
    return r;
}

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

TEST(DmpRun, NumericOptionsMustParseWhole)
{
    for (const char *bad : {"--iters=abc", "--width=0x", "--rob=12x",
                            "--seed=", "--jobs=-1", "--depth=1.5",
                            "--rob=99999999999", "--iters= 5",
                            "--seed=+5"}) {
        const std::string opt(bad, std::strchr(bad, '='));
        RunResult r = dmpRun({bad, "--list"});
        EXPECT_EQ(r.status, 1) << bad;
        EXPECT_NE(r.err.find(opt + ": not a valid number"),
                  std::string::npos)
            << bad << ": " << r.err;
    }
    // Decimal, hex and octal values still parse.
    EXPECT_EQ(dmpRun({"--iters=0x20", "--seed=017", "--rob=128",
                      "--list"}).status,
              0);
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
        std::vector<std::string> args = {"--sweep=base,dmp", "--iters=50"};
        args.insert(args.end(), outputs.begin(), outputs.end());
        args.push_back("bzip2");
        RunResult r = dmpRun(args);
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

TEST(DmpRun, RobBelowPredicationMinimumFailsCleanly)
{
    RunResult r =
        dmpRun({"--mode=dmp", "--rob=16", "--iters=50", "bzip2"});
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.err.find("fatal: robSize 16 is below the minimum of 64"),
              std::string::npos)
        << r.err;
}

/** `path`'s JSONL with every host_* (wall-clock) field removed. */
std::string
statsWithoutHostFields(const std::string &path)
{
    std::string s = slurp(path);
    for (std::size_t at; (at = s.find(",\"host_")) != std::string::npos;)
        s.erase(at, s.find_first_of(",}", at + 1) - at);
    return s;
}

TEST(DmpRun, DpredTraceClosesEveryEpisodeAndLeavesStatsAlone)
{
    const std::string plain = tempPath("plain.jsonl");
    const std::string traced = tempPath("traced.jsonl");
    const std::string txt = tempPath("dpred.txt");
    for (const std::string &p : {plain, traced, txt})
        std::remove(p.c_str());
    const std::vector<std::string> common = {"--mode=dmp-enhanced",
                                             "--iters=300"};

    std::vector<std::string> args = common;
    args.push_back("--stats-json=" + plain);
    args.push_back("bzip2");
    ASSERT_EQ(dmpRun(args).status, 0);
    args = common;
    args.push_back("--stats-json=" + traced);
    args.push_back("--debug-flags=Dpred,Flush");
    args.push_back("--trace-file=" + txt);
    args.push_back("bzip2");
    ASSERT_EQ(dmpRun(args).status, 0);

    const std::string stats = statsWithoutHostFields(plain);
    ASSERT_NE(stats.find("\"retired_insts\""), std::string::npos);
    EXPECT_EQ(stats.find("host_"), std::string::npos);
    EXPECT_TRUE(stats == statsWithoutHostFields(traced))
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
