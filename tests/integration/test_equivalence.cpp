/**
 * @file
 * Architectural-equivalence integration tests: every workload, run
 * through the timing core in every machine mode, must produce exactly
 * the functional reference's architectural state. This is the central
 * correctness net for the whole dynamic-predication machinery
 * (select-uops, predicate-aware store buffer, all six exit cases, the
 * enhancements, and dual-path collapse).
 */

#include <gtest/gtest.h>

#include "../testutil.hh"
#include "profile/profiler.hh"
#include "workloads/workloads.hh"

namespace dmp
{
namespace
{

struct ModeCase
{
    const char *name;
    core::CoreParams params;
};

std::vector<ModeCase>
allModes()
{
    core::CoreParams perfconf = sim::machine("dmp");
    perfconf.perfectConfidence = true;
    core::CoreParams perfcbp = sim::machine("base");
    perfcbp.perfectCondPredictor = true;
    core::CoreParams loops = sim::machine("dmp-enhanced");
    loops.extLoopBranches = true;
    return {
        {"baseline", sim::machine("base")},
        {"dhp", sim::machine("dhp")},
        {"dmp_basic", sim::machine("dmp")},
        {"dmp_enhanced", sim::machine("dmp-enhanced")},
        {"dmp_perf_conf", perfconf},
        {"dual_path", sim::machine("dual")},
        {"perfect_cbp", perfcbp},
        {"dmp_loop_ext", loops},
    };
}

isa::Program
markedWorkload(const std::string &name, bool loop_marks = false)
{
    workloads::WorkloadParams train;
    train.seed = 0x7e41a;
    train.iterations = 600;
    isa::Program tp = workloads::buildWorkload(name, train);
    profile::MarkerConfig mc;
    mc.profileInsts = 150000;
    mc.markLoopBranches = loop_marks;
    profile::profileAndMark(tp, 16 * 1024 * 1024, mc);

    workloads::WorkloadParams ref;
    ref.seed = 0x4ef;
    ref.iterations = 600;
    isa::Program rp = workloads::buildWorkload(name, ref);
    profile::transferMarks(tp, rp);
    return rp;
}

class EquivalenceTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EquivalenceTest, AllModesMatchReference)
{
    const std::string wl = GetParam();
    isa::Program prog = markedWorkload(wl);
    for (const ModeCase &mode : allModes()) {
        isa::Program p = mode.params.extLoopBranches
                             ? markedWorkload(wl, true)
                             : prog;
        test::expectCoreMatchesReference(
            p, mode.params, wl + "/" + mode.name);
        if (HasFatalFailure())
            return;
    }
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const auto &info : workloads::workloadList())
        names.push_back(info.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Workloads, EquivalenceTest,
                         ::testing::ValuesIn(allWorkloadNames()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace dmp
