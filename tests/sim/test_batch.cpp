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
    const std::string train = "wl:bzip2|train:it=4000,seed=517146,"
                              "base=1048576";
    const std::string marker =
        "|marker:ms=0x1.0624dd2f1a9fcp-10,mr=0x1.999999999999ap-4,"
        "rf=0x1.999999999999ap-3,cd=120,cp=4,es=0x1p+1,el=16,eh=192,"
        "sr=4,lb=0,pd=0,pi=400000";
    EXPECT_EQ(sim::configFingerprint(def),
              train + "|ref:it=4000,seed=1263,base=1048576" + marker +
                  "|core:fw=8,cb=3,fd=30,fq=0,rob=512,iw=8,rw=8,pr=0,"
                  "sb=128,ck=96,la=1,lm=3,ld=20,lf=4,lb=1,lg=1,lw=1,"
                  "bp=0,pc=0,pf=0,al=0,btb=4096,ras=64,itc=65536,md=0,"
                  "ps=0,e1=0,e2=0,e3=0,x1=0,x2=0,se=96,fs=0,pg=32,cam=8,"
                  "dp=256,cw=0,mem=16777216|mi=0|mc=0|sc=0");
    EXPECT_EQ(sim::profileFingerprint(def),
              train + marker + "|mem=16777216");

    const std::pair<const char *, std::uint64_t> kDigests[] = {
        {"base", 0x88b46472ab469e43ull},
        {"dhp", 0x489f39125e4b5b82ull},
        {"dmp", 0x10a649a42c646cf5ull},
        {"mcfm", 0xe606474a0c18551eull},
        {"mcfm-eexit", 0x99b258d3d8c741dbull},
        {"dmp-enhanced", 0x34680195d32eac20ull},
        {"dual", 0xa040b0d42e7892fcull},
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
