/**
 * @file
 * Pins what the core's observers see. The checker's pass counters on
 * three workloads under four machine modes are fixed constants, and
 * cycle accounting, the pipeline viewer, the checker and the text
 * trace produce identical output whether each is attached alone or all
 * four are attached together.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "analysis/accounting.hh"
#include "check/checker.hh"
#include "common/trace.hh"
#include "core/core.hh"
#include "core/pipeview.hh"
#include "core/text_trace.hh"
#include "sim/simulator.hh"

namespace dmp
{
namespace
{

sim::SimConfig
pinConfig(const std::string &workload, const std::string &mode)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.train.iterations = 60;
    cfg.ref.iterations = 60;
    cfg.marker.profileInsts = 60000;
    cfg.core = sim::machine(mode);
    return cfg;
}

struct CheckCounts
{
    std::uint64_t commits = 0;
    std::uint64_t cheap = 0;
    std::uint64_t deep = 0;

    bool
    operator==(const CheckCounts &o) const
    {
        return commits == o.commits && cheap == o.cheap && deep == o.deep;
    }
};

/** What the observers attached to one run produced. */
struct Observed
{
    std::uint64_t cycles = 0;
    std::string accountingJson;
    std::string perfetto;
    std::string pipeview;
    std::string text;
    CheckCounts check;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Run `cfg` to completion with the chosen observers attached. */
Observed
runObserved(const sim::SimConfig &cfg, bool accounting, bool pipeview,
            bool checker, bool text = false)
{
    auto [prog, report] = sim::prepareMarkedProgram(cfg);
    core::Core machine(prog, cfg.core);

    const std::string stem = ::testing::TempDir() + "observer_pin_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string pv_path = stem + ".pv";
    const std::string perfetto_path = stem + ".perfetto.json";
    const std::string text_path = stem + ".txt";
    std::unique_ptr<trace::PipeView> pv;
    std::unique_ptr<core::PipeViewObserver> pv_obs;
    if (pipeview) {
        pv = std::make_unique<trace::PipeView>(pv_path);
        pv_obs = std::make_unique<core::PipeViewObserver>(machine, *pv);
        machine.addObserver(pv_obs.get());
    }
    std::unique_ptr<check::CoreChecker> chk;
    if (checker) {
        chk = std::make_unique<check::CoreChecker>(prog, machine);
        machine.addObserver(chk.get());
    }
    std::unique_ptr<analysis::CycleAccounting> acct;
    std::unique_ptr<trace::TraceEventWriter> perfetto;
    if (accounting) {
        acct = std::make_unique<analysis::CycleAccounting>(
            cfg.core.frontendDepth, cfg.core.retireWidth);
        perfetto = std::make_unique<trace::TraceEventWriter>(perfetto_path);
        acct->attachTrace(perfetto.get());
        machine.addObserver(acct.get());
    }

    std::unique_ptr<core::TextTraceObserver> txt;
    if (text) {
        txt = std::make_unique<core::TextTraceObserver>(
            machine, core::parseTraceFlags("all"), text_path);
        machine.addObserver(txt.get());
    }

    machine.run(~0ULL, ~0ULL);
    EXPECT_TRUE(machine.halted());

    Observed o;
    o.cycles = machine.stats().cycles.value();
    if (acct) {
        acct->finish();
        o.accountingJson = acct->json();
        perfetto->close();
        o.perfetto = slurp(perfetto_path);
        std::remove(perfetto_path.c_str());
    }
    if (pv) {
        pv.reset(); // close the file
        o.pipeview = slurp(pv_path);
        std::remove(pv_path.c_str());
    }
    if (txt) {
        txt.reset(); // close the file
        o.text = slurp(text_path);
        std::remove(text_path.c_str());
    }
    if (chk) {
        o.check = {chk->checkedCommits(), chk->invariantPasses(),
                   chk->deepPasses()};
    }
    return o;
}

/** FNV-1a 64 of `s`. */
std::uint64_t
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

struct PinnedCounts
{
    const char *workload;
    const char *mode;
    CheckCounts expect;
};

// Taken on the core before its observer hooks were merged; any change
// here means the checker now sees a different event stream.
const PinnedCounts kPinned[] = {
    {"bzip2", "base", {9507, 29701, 612}},
    {"bzip2", "dmp", {9507, 28339, 534}},
    {"bzip2", "dmp-enhanced", {9507, 27925, 521}},
    {"bzip2", "dual", {9507, 29292, 588}},
    {"mcf", "base", {4213, 17726, 373}},
    {"mcf", "dmp", {4213, 16917, 319}},
    {"mcf", "dmp-enhanced", {4213, 16917, 319}},
    {"mcf", "dual", {4213, 17478, 374}},
    {"twolf", "base", {10159, 27629, 549}},
    {"twolf", "dmp", {10159, 26418, 534}},
    {"twolf", "dmp-enhanced", {10159, 25724, 482}},
    {"twolf", "dual", {10159, 28087, 563}},
};

TEST(ObserverPin, CheckerCountersMatchPinnedConstants)
{
    for (const PinnedCounts &pin : kPinned) {
        Observed o = runObserved(pinConfig(pin.workload, pin.mode), false,
                                 false, true);
        EXPECT_EQ(o.check.commits, pin.expect.commits)
            << pin.workload << "/" << pin.mode;
        EXPECT_EQ(o.check.cheap, pin.expect.cheap)
            << pin.workload << "/" << pin.mode;
        EXPECT_EQ(o.check.deep, pin.expect.deep)
            << pin.workload << "/" << pin.mode;
    }
}

TEST(ObserverPin, ObserversAloneMatchObserversTogether)
{
    const sim::SimConfig cfg = pinConfig("bzip2", "dmp-enhanced");
    const Observed acct = runObserved(cfg, true, false, false);
    const Observed pv = runObserved(cfg, false, true, false);
    const Observed chk = runObserved(cfg, false, false, true);
    const Observed txt = runObserved(cfg, false, false, false, true);
    const Observed all = runObserved(cfg, true, true, true, true);

    ASSERT_FALSE(acct.accountingJson.empty());
    ASSERT_FALSE(pv.pipeview.empty());
    ASSERT_GT(chk.check.commits, 0u);
    ASSERT_FALSE(txt.text.empty());
    EXPECT_EQ(acct.accountingJson, all.accountingJson);
    EXPECT_TRUE(acct.perfetto == all.perfetto) << "perfetto bytes differ";
    // The timeline records same-cycle events in delivery order, so its
    // digest pins the order the core reports flushes and episode ends
    // in (taken, like kPinned, on the core before the merge).
    EXPECT_EQ(digest(acct.perfetto), 8869981798449030453ULL);
    EXPECT_TRUE(pv.pipeview == all.pipeview) << "pipeview bytes differ";
    EXPECT_TRUE(chk.check == all.check);
    EXPECT_TRUE(txt.text == all.text) << "text trace bytes differ";
    EXPECT_EQ(acct.cycles, all.cycles);
    EXPECT_EQ(pv.cycles, all.cycles);
    EXPECT_EQ(chk.cycles, all.cycles);
    EXPECT_EQ(txt.cycles, all.cycles);
}

} // namespace
} // namespace dmp
