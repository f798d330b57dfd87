/**
 * @file
 * Tests for the parallel batch-simulation engine (sim/batch.hh):
 * bit-identical results vs. the serial path, profile-cache correctness
 * and single-execution guarantees, serial degeneration at jobs=1, and
 * the canonical config fingerprint (regression for the old bench
 * RunCache, whose string key ignored marker config and budgets).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sim/batch.hh"

namespace dmp
{
namespace
{

/** A config small enough that a grid of them stays fast. */
sim::SimConfig
smallConfig(const std::string &workload)
{
    sim::SimConfig cfg;
    cfg.workload = workload;
    cfg.train.iterations = 200;
    cfg.ref.iterations = 200;
    cfg.marker.profileInsts = 80000;
    return cfg;
}

sim::SimConfig
withCore(sim::SimConfig cfg, const char *mode)
{
    cfg.core = sim::machine(mode);
    return cfg;
}

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.retiredInsts, b.retiredInsts) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what; // exact: both runs are deterministic
    ASSERT_EQ(a.counters.size(), b.counters.size()) << what;
    for (const auto &[name, value] : a.counters) {
        auto it = b.counters.find(name);
        ASSERT_NE(it, b.counters.end()) << what << ": missing " << name;
        EXPECT_EQ(value, it->second) << what << ": counter " << name;
    }
    EXPECT_EQ(a.marking.markedDiverge, b.marking.markedDiverge) << what;
    EXPECT_EQ(a.marking.markedSimpleHammock,
              b.marking.markedSimpleHammock)
        << what;
    EXPECT_EQ(a.marking.candidateBranches, b.marking.candidateBranches)
        << what;
    EXPECT_EQ(a.marking.profile.totalMispredicts,
              b.marking.profile.totalMispredicts)
        << what;
}

/**
 * (1) Parallel execution is bit-identical to serial runSim, under
 * every mark mode.
 */
TEST(BatchRunner, ParallelMatchesSerial)
{
    const char *wls[] = {"bzip2", "mcf", "parser"};
    const char *modes[] = {"base", "dmp", "dmp-enhanced"};

    std::vector<sim::SimConfig> grid;
    for (const char *wl : wls)
        for (const char *mode : modes)
            grid.push_back(withCore(smallConfig(wl), mode));
    for (sim::MarkMode marks : {sim::MarkMode::Static, sim::MarkMode::None})
        for (const char *wl : wls) {
            grid.push_back(withCore(smallConfig(wl), "dmp-enhanced"));
            grid.back().markMode = marks;
        }

    std::vector<sim::SimResult> serial;
    for (const sim::SimConfig &cfg : grid)
        serial.push_back(sim::runSim(cfg));

    sim::BatchRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4u);
    std::vector<sim::SimResult> parallel = runner.run(grid);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameResult(parallel[i], serial[i],
                         grid[i].workload + "#" + std::to_string(i));
}

/**
 * (2) The profile/marking cache runs the compiler pass exactly once
 * per (workload, marker, train input) and returns the same
 * MarkingReport as the uncached path.
 */
TEST(BatchRunner, ProfileCacheRunsOnceAndMatchesUncached)
{
    std::vector<sim::SimConfig> grid = {
        withCore(smallConfig("gzip"), "base"),
        withCore(smallConfig("gzip"), "dmp"),
        withCore(smallConfig("gzip"), "dmp-enhanced"),
    };

    sim::BatchRunner runner(3);
    std::vector<sim::SimResult> results = runner.run(grid);

    sim::BatchStats st = runner.stats();
    EXPECT_EQ(st.profileRuns, 1u)
        << "all three core configs share one compiler pass";
    EXPECT_EQ(st.profileHits, 2u);
    EXPECT_EQ(st.markedProgramBuilds, 1u)
        << "one shared marked ref program";
    EXPECT_EQ(st.simRuns, 3u);
    EXPECT_EQ(st.simHits, 0u);

    auto [ref, report] = sim::prepareMarkedProgram(grid[1]);
    (void)ref;
    for (const sim::SimResult &r : results) {
        EXPECT_EQ(r.marking.markedDiverge, report.markedDiverge);
        EXPECT_EQ(r.marking.markedSimpleHammock,
                  report.markedSimpleHammock);
        EXPECT_EQ(r.marking.markedLoop, report.markedLoop);
        EXPECT_EQ(r.marking.candidateBranches, report.candidateBranches);
        EXPECT_EQ(r.marking.profile.totalInsts, report.profile.totalInsts);
        EXPECT_EQ(r.marking.profile.totalMispredicts,
                  report.profile.totalMispredicts);
        EXPECT_EQ(r.marking.classification.complexDiverge,
                  report.classification.complexDiverge);
    }
}

/** (3) A jobs=1 pool degenerates to serial FIFO execution. */
TEST(BatchRunner, SingleJobExecutesInSubmissionOrder)
{
    std::vector<sim::SimConfig> grid;
    for (unsigned rob : {64u, 96u, 128u, 192u, 256u}) {
        sim::SimConfig cfg = smallConfig("mcf");
        cfg.core.robSize = rob;
        grid.push_back(cfg);
    }

    sim::BatchRunner runner(1);
    EXPECT_EQ(runner.jobs(), 1u);
    std::vector<sim::SimResult> results = runner.run(grid);
    ASSERT_EQ(results.size(), grid.size());

    std::vector<std::string> expected;
    for (const sim::SimConfig &cfg : grid)
        expected.push_back(sim::configFingerprint(cfg));
    EXPECT_EQ(runner.executionOrder(), expected);
}

/** FNV-1a over the bytes of `s`. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * The fingerprint bytes key the result memo, the profile cache and the
 * `fingerprint` field of every stats record, so they stay fixed until
 * the records are regenerated: the default config is pinned in full,
 * and each named machine by a digest of both fingerprints.
 */
TEST(BatchRunner, FingerprintBytesArePinned)
{
    const sim::SimConfig def;
    const std::string train = "train={iterations=4000,seed=517146}";
    const std::string marker =
        "marker={minMispredictRate=0x1.999999999999ap-4,"
        "reconvergeFraction=0x1.999999999999ap-3,maxCfmDistance=120,"
        "maxCfmPoints=4,cfmSampleRate=4,markLoopBranches=0,"
        "profileInsts=400000}";
    EXPECT_EQ(sim::configFingerprint(def),
              "workload=bzip2,core={fetchWidth=8,frontendDepth=30,"
              "robSize=512,issueWidth=8,retireWidth=8,numPhysRegs=0,"
              "storeBufferSize=128,maxCheckpoints=96,predictor=0,"
              "perfectCondPredictor=0,perfectConfidence=0,"
              "alwaysLowConfidence=0,mode=0,predication=0,enhMultiCfm=0,"
              "enhEarlyExit=0,enhMultiDiverge=0,extLoopBranches=0,"
              "extSelectiveUpdate=0,staticEarlyExitThreshold=96,"
              "forceStaticEarlyExit=0,predRegisters=32,cfmCamEntries=8,"
              "maxDpredPathInsts=256,classifyWrongPath=0,"
              "memoryBytes=16777216}," +
                  marker + "," + train +
                  ",ref={iterations=4000,seed=1263},markMode=0,"
                  "maxInsts=0,maxCycles=0,selfcheck=0,faultPlan=null,"
                  "accounting=0");
    EXPECT_EQ(sim::profileFingerprint(def),
              "workload=bzip2," + train + "," + marker +
                  ",memoryBytes=16777216,markMode=0");

    const std::pair<const char *, std::uint64_t> kDigests[] = {
        {"base", 0xd1608f1297809152ull},
        {"dhp", 0x5e58328daa2dd85full},
        {"dmp", 0x17ff76da1f31ead0ull},
        {"mcfm", 0x0a4d16350d3fd269ull},
        {"mcfm-eexit", 0x11ca7938a8961e6eull},
        {"dmp-enhanced", 0x6738a700694ebe41ull},
        {"dual", 0x45c63c913fa664ffull},
    };
    ASSERT_EQ(sim::machines().size(), std::size(kDigests));
    for (std::size_t i = 0; i < std::size(kDigests); ++i) {
        const sim::Machine &m = sim::machines()[i];
        sim::SimConfig cfg;
        cfg.core = m.params;
        EXPECT_STREQ(m.name, kDigests[i].first);
        EXPECT_EQ(fnv1a(sim::configFingerprint(cfg) + "\n" +
                        sim::profileFingerprint(cfg)),
                  kDigests[i].second)
            << m.name;
    }

    // A pointer field is written through to its pointee.
    const check::FaultPlan plan{check::FaultKind::LeakPhysReg, 7};
    sim::SimConfig faulted;
    faulted.faultPlan = &plan;
    EXPECT_NE(sim::configFingerprint(faulted).find(
                  ",faultPlan={kind=1,notBefore=7},"),
              std::string::npos);
}

/**
 * Regression for the old bench RunCache: its "workload/label" string
 * key ignored marker config and instruction/cycle budgets, so two
 * different experiments could alias to one cached result. The
 * canonical fingerprint must distinguish all of them.
 */
TEST(BatchRunner, FingerprintSeparatesMarkerAndBudgetConfigs)
{
    sim::SimConfig base = smallConfig("bzip2");

    sim::SimConfig marker = base;
    marker.marker.maxCfmDistance = 60;

    sim::SimConfig budget = base;
    budget.maxInsts = 50000;

    sim::SimConfig cycles = base;
    cycles.maxCycles = 100000;

    EXPECT_EQ(sim::configFingerprint(base),
              sim::configFingerprint(smallConfig("bzip2")));
    EXPECT_NE(sim::configFingerprint(base),
              sim::configFingerprint(marker));
    EXPECT_NE(sim::configFingerprint(base),
              sim::configFingerprint(budget));
    EXPECT_NE(sim::configFingerprint(base),
              sim::configFingerprint(cycles));

    // Distinct marker configs occupy distinct cache entries...
    sim::BatchRunner runner(2);
    const sim::SimResult &a = runner.get(base);
    const sim::SimResult &b = runner.get(marker);
    EXPECT_EQ(runner.stats().simRuns, 2u);
    // ...and the marker change is actually visible in the marking.
    EXPECT_NE(sim::configFingerprint(base),
              sim::configFingerprint(marker));
    (void)a;
    (void)b;

    // An identical re-submission is a memo hit, not a third run.
    runner.get(base);
    EXPECT_EQ(runner.stats().simRuns, 2u);
    EXPECT_EQ(runner.stats().simHits, 1u);

    // Profile cache keying: the marker change forces a second compiler
    // pass, but the budget change must not (marking is budget-blind).
    EXPECT_EQ(runner.stats().profileRuns, 2u);
    runner.get(budget);
    EXPECT_EQ(runner.stats().profileRuns, 2u);
    EXPECT_EQ(runner.stats().simRuns, 3u);
}

} // namespace
} // namespace dmp
