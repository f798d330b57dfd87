/**
 * @file
 * Static marking synthesis (analysis/markgen.hh): determinism of the
 * dmp mark JSON rendering, legality of every synthesized marking, the
 * agreement metric against the profiled marker, and the static-mode
 * end-to-end flow through runSim and the BatchRunner.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/markgen.hh"
#include "common/json.hh"
#include "profile/profiler.hh"
#include "sim/batch.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace dmp;

namespace
{

constexpr std::size_t kMemoryBytes = 16 * 1024 * 1024;

isa::Program
buildTarget(const std::string &name)
{
    workloads::WorkloadParams wp;
    wp.iterations = 500;
    return workloads::buildWorkload(name, wp);
}

class MarkGenWorkloads : public testing::TestWithParam<std::string>
{
};

} // namespace

/**
 * Golden determinism: two independent syntheses of the same image must
 * render byte-identically — the dmp mark CI artifact depends on it.
 */
TEST_P(MarkGenWorkloads, JsonIsByteDeterministic)
{
    isa::Program a = buildTarget(GetParam());
    isa::Program b = buildTarget(GetParam());
    analysis::MarkGenReport ra = analysis::synthesizeMarks(a);
    analysis::MarkGenReport rb = analysis::synthesizeMarks(b);
    json::Writer ja, jb;
    analysis::markGenTargetJson(ja, GetParam(), ra, nullptr);
    analysis::markGenTargetJson(jb, GetParam(), rb, nullptr);
    EXPECT_EQ(ja.str(), jb.str());
}

/** Every synthesized marking must pass the legality linter clean. */
TEST_P(MarkGenWorkloads, SynthesizedMarkingIsLinterClean)
{
    isa::Program prog = buildTarget(GetParam());
    analysis::MarkGenReport report = analysis::synthesizeMarks(prog);
    EXPECT_EQ(report.lintErrors, 0u);

    analysis::AnalysisOptions ao;
    ao.memoryBytes = kMemoryBytes;
    analysis::Report lint = analysis::analyzeProgram(prog, ao);
    EXPECT_EQ(lint.errors(), 0u) << lint.text();
}

/**
 * Agreement sanity against the profiled marker: the comparison must be
 * internally consistent (common <= both sides, rates in [0, 1]).
 */
TEST_P(MarkGenWorkloads, AgreementMetricIsConsistent)
{
    isa::Program st = buildTarget(GetParam());
    analysis::synthesizeMarks(st);

    isa::Program pr = buildTarget(GetParam());
    profile::profileAndMark(pr, kMemoryBytes, {});

    analysis::MarkAgreement a = analysis::compareMarkings(st, pr);
    EXPECT_LE(a.commonDiverge, a.staticDiverge);
    EXPECT_LE(a.commonDiverge, a.profileDiverge);
    EXPECT_GE(a.divergePrecision, 0.0);
    EXPECT_LE(a.divergePrecision, 1.0);
    EXPECT_GE(a.divergeRecall, 0.0);
    EXPECT_LE(a.divergeRecall, 1.0);
    EXPECT_GE(a.cfmMatchRate, 0.0);
    EXPECT_LE(a.cfmMatchRate, 1.0);
    EXPECT_LE(a.cfmAnyMatch, a.cfmComparable);
    EXPECT_LE(a.cfmPrimaryMatch, a.cfmAnyMatch);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, MarkGenWorkloads, [] {
    std::vector<std::string> names;
    for (const auto &info : workloads::workloadList())
        names.push_back(info.name);
    return testing::ValuesIn(names);
}());

/**
 * Value-analysis proofs annotate the cost table but never change the
 * marking itself: selection, CFM placement, and early-exit thresholds
 * are pure functions of the heuristics (mcf is the one workload whose
 * branches absint proves one-sided, so it exercises the override).
 */
TEST(MarkGenAbsint, ProofsAnnotateButNeverUnmark)
{
    isa::Program withProofs = buildTarget("mcf");
    isa::Program heuristicOnly = buildTarget("mcf");
    analysis::MarkGenConfig off;
    off.useAbsint = false;
    analysis::MarkGenReport ra = analysis::synthesizeMarks(withProofs);
    analysis::MarkGenReport rb =
        analysis::synthesizeMarks(heuristicOnly, off);

    // The proofs must actually exist and land on selected branches...
    ASSERT_TRUE(ra.absintRan);
    unsigned provedSelected = 0;
    for (const analysis::MarkCandidate &c : ra.candidates) {
        if (c.proof == "none")
            continue;
        EXPECT_EQ(c.heuristic, analysis::ProbHeuristic::Proved);
        EXPECT_TRUE(c.takenProb == 0.0 || c.takenProb == 1.0);
        EXPECT_GT(c.mispredictEstimate, 0.0)
            << "selection estimate must stay heuristic";
        if (c.selected)
            ++provedSelected;
    }
    EXPECT_GT(provedSelected, 0u);

    // ...while every mark is bit-identical to the heuristic synthesis.
    EXPECT_EQ(ra.markedDiverge, rb.markedDiverge);
    EXPECT_EQ(ra.markedSimpleHammock, rb.markedSimpleHammock);
    EXPECT_EQ(ra.markedLoop, rb.markedLoop);
    for (std::size_t i = 0; i < withProofs.size(); ++i) {
        const Addr pc =
            withProofs.baseAddr() + (i << isa::Program::kInstShift);
        const isa::DivergeMark *ma = withProofs.mark(pc);
        const isa::DivergeMark *mb = heuristicOnly.mark(pc);
        ASSERT_EQ(ma == nullptr, mb == nullptr) << std::hex << pc;
        if (!ma)
            continue;
        EXPECT_EQ(ma->isDiverge, mb->isDiverge) << std::hex << pc;
        EXPECT_EQ(ma->isSimpleHammock, mb->isSimpleHammock)
            << std::hex << pc;
        EXPECT_EQ(ma->isLoopBranch, mb->isLoopBranch) << std::hex << pc;
        EXPECT_EQ(ma->cfmPoints, mb->cfmPoints) << std::hex << pc;
        EXPECT_EQ(ma->earlyExitThreshold, mb->earlyExitThreshold)
            << std::hex << pc;
    }
}

/**
 * Static marks are synthesized on the binary that executes (the ref
 * build), not profiled-and-transferred from the train build: absint
 * proofs embed the analyzed image's seeded immediates, which differ
 * between the two.
 */
TEST(MarkModeStatic, SynthesizesOnRefImage)
{
    sim::SimConfig cfg;
    cfg.workload = "mcf";
    cfg.train.iterations = 300;
    cfg.ref.iterations = 300;
    cfg.markMode = sim::MarkMode::Static;

    auto [prepared, report] = sim::prepareMarkedProgram(cfg);

    isa::Program ref = workloads::buildWorkload(cfg.workload, cfg.ref);
    analysis::MarkGenReport direct = analysis::synthesizeMarks(ref);
    EXPECT_EQ(report.markedDiverge, direct.markedDiverge);
    ASSERT_EQ(prepared.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const Addr pc = ref.baseAddr() + (i << isa::Program::kInstShift);
        const isa::DivergeMark *mp = prepared.mark(pc);
        const isa::DivergeMark *mr = ref.mark(pc);
        ASSERT_EQ(mp == nullptr, mr == nullptr) << std::hex << pc;
        if (!mp)
            continue;
        EXPECT_EQ(mp->isDiverge, mr->isDiverge) << std::hex << pc;
        EXPECT_EQ(mp->cfmPoints, mr->cfmPoints) << std::hex << pc;
    }
}

/** Static marks run end-to-end and actually enter diverge episodes. */
TEST(MarkModeStatic, RunsEndToEndAndPredicates)
{
    sim::SimConfig cfg;
    cfg.workload = "bzip2";
    cfg.train.iterations = 300;
    cfg.ref.iterations = 300;
    cfg.markMode = sim::MarkMode::Static;
    cfg.core = sim::machine("dmp-enhanced");

    sim::SimResult r = sim::runSim(cfg);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.marking.markedDiverge, 0u);
    EXPECT_GT(r.require("dpred_entries"), 0u);
}

/** mark=none leaves the image bare: no marks, no episodes. */
TEST(MarkModeNone, RunsUnmarked)
{
    sim::SimConfig cfg;
    cfg.workload = "bzip2";
    cfg.train.iterations = 300;
    cfg.ref.iterations = 300;
    cfg.markMode = sim::MarkMode::None;
    cfg.core = sim::machine("dmp");

    sim::SimResult r = sim::runSim(cfg);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.marking.markedDiverge, 0u);
    EXPECT_EQ(r.require("dpred_entries"), 0u);
}

/**
 * The three mark modes must produce three distinct batch cache keys for
 * otherwise identical configurations, each naming its mode.
 */
TEST(MarkModeFingerprint, ModesDoNotAlias)
{
    sim::SimConfig cfg;
    cfg.workload = "bzip2";

    std::string prof = sim::configFingerprint(cfg);
    EXPECT_NE(prof.find(",markMode=0,"), std::string::npos);

    cfg.markMode = sim::MarkMode::Static;
    std::string stat = sim::configFingerprint(cfg);
    cfg.markMode = sim::MarkMode::None;
    std::string none = sim::configFingerprint(cfg);

    EXPECT_NE(prof, stat);
    EXPECT_NE(prof, none);
    EXPECT_NE(stat, none);
    EXPECT_NE(stat.find(",markMode=1,"), std::string::npos);
    EXPECT_NE(none.find(",markMode=2,"), std::string::npos);

    EXPECT_NE(sim::profileFingerprint(cfg),
              [&] {
                  sim::SimConfig p = cfg;
                  p.markMode = sim::MarkMode::Profile;
                  return sim::profileFingerprint(p);
              }());
}

/** Static-mode results are identical at any batch worker count. */
TEST(MarkModeStatic, BatchResultsIndependentOfJobCount)
{
    std::vector<sim::SimConfig> grid;
    for (const char *wl : {"bzip2", "parser"}) {
        sim::SimConfig cfg;
        cfg.workload = wl;
        cfg.train.iterations = 300;
        cfg.ref.iterations = 300;
        cfg.markMode = sim::MarkMode::Static;
        cfg.core = sim::machine("dmp-enhanced");
        grid.push_back(cfg);
    }

    sim::BatchRunner serial(1);
    sim::BatchRunner wide(4);
    std::vector<sim::SimResult> a = serial.run(grid);
    std::vector<sim::SimResult> b = wide.run(grid);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycles, b[i].cycles) << grid[i].workload;
        EXPECT_EQ(a[i].retiredInsts, b[i].retiredInsts)
            << grid[i].workload;
        EXPECT_EQ(a[i].require("pipeline_flushes"),
                  b[i].require("pipeline_flushes"))
            << grid[i].workload;
    }
}
