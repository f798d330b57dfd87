/**
 * @file
 * Drive the `dmp` binary as a child process from a test.
 */

#ifndef DMP_TESTS_SIM_DMP_CLI_HH
#define DMP_TESTS_SIM_DMP_CLI_HH

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

extern char **environ;

namespace dmp::test
{

inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** A temp file private to the running test (ctest runs them in parallel). */
inline std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "dmp_cli_" + info->test_suite_name() +
        "_" + info->name() + "_" + name;
}

/** Exit status, stdout and stderr of one `dmp` invocation. */
struct CliResult
{
    int status = -1;
    std::string out;
    std::string err;
};

/** How long runDmp lets one `dmp` invocation run before killing it. */
constexpr std::chrono::seconds kDmpDeadline{120};

/**
 * Run `dmp` with `args`, capturing stdout and stderr. A run still going
 * after kDmpDeadline is killed, and its result has status -1 and
 * "timed out" in `err`, so a hang fails the test instead of stalling
 * the suite.
 */
inline CliResult
runDmp(std::vector<std::string> args)
{
    const std::string out_path = tempPath("stdout.txt");
    const std::string err_path = tempPath("stderr.txt");
    args.insert(args.begin(), DMP_BIN);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = 0;
    CliResult r;
    const int spawned =
        posix_spawn(&pid, DMP_BIN, &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    EXPECT_EQ(spawned, 0);
    if (spawned != 0)
        return r;
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() + kDmpDeadline;
    pid_t waited = 0;
    while ((waited = waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const bool timed_out = waited == 0;
    if (timed_out) {
        kill(pid, SIGKILL);
        waited = waitpid(pid, &status, 0);
    }
    EXPECT_EQ(waited, pid);
    r.status = WIFEXITED(status) && !timed_out ? WEXITSTATUS(status) : -1;
    r.out = slurp(out_path);
    r.err = slurp(err_path);
    if (timed_out)
        r.err += "\ndmp timed out after " +
                 std::to_string(kDmpDeadline.count()) + " s\n";
    std::remove(out_path.c_str());
    std::remove(err_path.c_str());
    return r;
}

} // namespace dmp::test

#endif // DMP_TESTS_SIM_DMP_CLI_HH
