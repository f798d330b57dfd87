/**
 * @file
 * Zero-findings gate: representative workloads run clean under full
 * self-checking (invariants + lockstep oracle) in every machine
 * configuration class — baseline, hammock-only predication, full DMP,
 * enhanced DMP, dual-path — and with the loop-marker extension. CI runs
 * the complete 15-workload sweep; this keeps a cross-section in ctest.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/checker.hh"
#include "sim/simulator.hh"

namespace dmp
{
namespace
{

sim::SimConfig
gateConfig(const std::string &workload, const std::string &mode)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.core = sim::machine(mode);
    cfg.train.iterations = 60;
    cfg.ref.iterations = 60;
    cfg.marker.profileInsts = 60000;
    cfg.selfcheck = check::Mode::All;
    return cfg;
}

/** Run one config under --selfcheck=all; any finding fails the test. */
void
expectClean(sim::SimConfig cfg, const std::string &what)
{
    try {
        sim::SimResult r = sim::runSim(cfg);
        EXPECT_GT(r.retiredInsts, 0u) << what;
    } catch (const check::CheckError &e) {
        FAIL() << what << ": self-check finding\n"
               << e.report().text() << e.diagnosis();
    }
}

TEST(SelfCheckWorkloads, BaselineClean)
{
    for (const char *wl : {"bzip2", "mcf", "twolf"})
        expectClean(gateConfig(wl, "base"), std::string("base/") + wl);
}

TEST(SelfCheckWorkloads, HammockPredicationClean)
{
    expectClean(gateConfig("parser", "dhp"), "dhp/parser");
}

TEST(SelfCheckWorkloads, DmpClean)
{
    for (const char *wl : {"bzip2", "gzip"})
        expectClean(gateConfig(wl, "dmp"), std::string("dmp/") + wl);
}

TEST(SelfCheckWorkloads, DmpEnhancedClean)
{
    for (const char *wl : {"bzip2", "mcf", "vpr"})
        expectClean(gateConfig(wl, "dmp-enhanced"),
                    std::string("dmp-enhanced/") + wl);
}

TEST(SelfCheckWorkloads, DualPathClean)
{
    for (const char *wl : {"bzip2", "twolf"})
        expectClean(gateConfig(wl, "dual"), std::string("dual/") + wl);
}

TEST(SelfCheckWorkloads, LoopMarkerExtensionClean)
{
    sim::SimConfig cfg = gateConfig("gzip", "dmp-enhanced");
    cfg.marker.markLoopBranches = true;
    expectClean(cfg, "dmp-enhanced+loop-ext/gzip");
}

} // namespace
} // namespace dmp
