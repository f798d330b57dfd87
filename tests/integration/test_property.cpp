/**
 * @file
 * Property-based tests: random programs and parameter sweeps, all
 * asserting timing-vs-functional architectural equivalence and
 * resource-leak freedom.
 */

#include <gtest/gtest.h>

#include "../testutil.hh"
#include "profile/profiler.hh"
#include "workloads/workloads.hh"

namespace dmp
{
namespace
{

isa::Program
markedRandomProgram(std::uint64_t structure_seed, bool loop_marks = false)
{
    isa::Program train =
        workloads::buildRandomProgram(structure_seed, 0xAAAA);
    profile::MarkerConfig cfg;
    cfg.profileInsts = 80000;
    cfg.markLoopBranches = loop_marks;
    profile::profileAndMark(train, 16 * 1024 * 1024, cfg);

    isa::Program ref =
        workloads::buildRandomProgram(structure_seed, 0xBBBB);
    profile::transferMarks(train, ref);
    return ref;
}

// ---------------------------------------------------------------
// Random-program fuzzing across machine modes.
// ---------------------------------------------------------------

class RandomProgramFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomProgramFuzz, AllModesMatchReference)
{
    isa::Program p = markedRandomProgram(GetParam());

    core::CoreParams modes[] = {
        sim::machine("base"),
        sim::machine("dhp"),
        sim::machine("dmp"),
        sim::machine("dmp-enhanced"),
        sim::machine("dual"),
    };
    const char *names[] = {"base", "dhp", "dmp", "enh", "dual"};
    for (unsigned i = 0; i < 5; ++i) {
        core::CoreParams params = modes[i];
        // Force heavy predication on odd seeds to stress the machinery.
        if (GetParam() % 2)
            params.alwaysLowConfidence = true;
        test::expectCoreMatchesReference(
            p, params,
            std::string("fuzz") + std::to_string(GetParam()) + "/" +
                names[i]);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramFuzz,
                         ::testing::Range(1u, 25u));

// ---------------------------------------------------------------
// Machine-parameter sweeps on one diverge-heavy workload.
// ---------------------------------------------------------------

struct SweepCase
{
    const char *name;
    core::CoreParams params;
};

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;
    auto add = [&](const char *name, auto tweak) {
        core::CoreParams p = sim::machine("dmp-enhanced");
        p.alwaysLowConfidence = true;
        tweak(p);
        cases.push_back({name, p});
    };
    add("rob64", [](core::CoreParams &p) { p.robSize = 64; });
    add("rob128", [](core::CoreParams &p) { p.robSize = 128; });
    add("narrow", [](core::CoreParams &p) {
        p.fetchWidth = 2;
        p.issueWidth = 2;
        p.retireWidth = 2;
    });
    add("shallow", [](core::CoreParams &p) { p.frontendDepth = 5; });
    add("deep", [](core::CoreParams &p) { p.frontendDepth = 60; });
    add("tiny_sb", [](core::CoreParams &p) { p.storeBufferSize = 6; });
    add("few_checkpoints",
        [](core::CoreParams &p) { p.maxCheckpoints = 12; });
    add("few_preds", [](core::CoreParams &p) { p.predRegisters = 3; });
    add("tight_prf",
        [](core::CoreParams &p) { p.numPhysRegs = p.robSize + 80; });
    add("small_cfm_cam",
        [](core::CoreParams &p) { p.cfmCamEntries = 1; });
    add("short_path_cap",
        [](core::CoreParams &p) { p.maxDpredPathInsts = 24; });
    add("static_eexit", [](core::CoreParams &p) {
        p.forceStaticEarlyExit = true;
        p.staticEarlyExitThreshold = 20;
    });
    add("gshare", [](core::CoreParams &p) {
        p.predictor = core::PredictorKind::Gshare;
    });
    add("hybrid", [](core::CoreParams &p) {
        p.predictor = core::PredictorKind::Hybrid;
    });
    return cases;
}

class MachineSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MachineSweep, EquivalenceHoldsUnderResourcePressure)
{
    static isa::Program prog = [] {
        workloads::WorkloadParams wp;
        wp.iterations = 300;
        isa::Program train = workloads::buildWorkload("vpr", wp);
        profile::MarkerConfig cfg;
        cfg.profileInsts = 100000;
        profile::profileAndMark(train, 16 * 1024 * 1024, cfg);
        workloads::WorkloadParams ref = wp;
        ref.seed = 0x999;
        isa::Program r = workloads::buildWorkload("vpr", ref);
        profile::transferMarks(train, r);
        return r;
    }();

    SweepCase c = sweepCases()[GetParam()];
    test::expectCoreMatchesReference(prog, c.params, c.name);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MachineSweep,
    ::testing::Range<std::size_t>(0, sweepCases().size()),
    [](const auto &info) {
        return std::string(sweepCases()[info.param].name);
    });

// ---------------------------------------------------------------
// Determinism: identical runs are bit-identical.
// ---------------------------------------------------------------

TEST(Determinism, SameConfigSameCycleCount)
{
    isa::Program p = markedRandomProgram(7);
    core::CoreParams params = sim::machine("dmp-enhanced");
    core::Core a(p, params), b(p, params);
    a.run();
    b.run();
    EXPECT_EQ(a.stats().cycles.value(), b.stats().cycles.value());
    EXPECT_EQ(a.stats().retiredInsts.value(),
              b.stats().retiredInsts.value());
    EXPECT_EQ(a.stats().dpredEntries.value(),
              b.stats().dpredEntries.value());
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        EXPECT_EQ(a.retiredState().read(ArchReg(r)),
                  b.retiredState().read(ArchReg(r)));
}

} // namespace
} // namespace dmp
