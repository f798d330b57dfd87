/**
 * @file
 * Regression gate: the profiler's markings for every shipped workload
 * — and for the example programs — must stay legal. A marker change
 * that starts emitting out-of-bounds CFM points, unreachable merge
 * targets, or broken hammock marks fails here, not as a silent IPC
 * regression.
 */

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "core/params.hh"
#include "isa/assembler.hh"
#include "profile/profiler.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace dmp;

namespace
{

constexpr std::size_t kMemoryBytes = 16 * 1024 * 1024;

analysis::Report
profileAndAnalyze(isa::Program &prog, bool loop_ext)
{
    profile::MarkerConfig mc;
    mc.markLoopBranches = loop_ext;
    mc.profileInsts = 150000;
    profile::profileAndMark(prog, kMemoryBytes, mc);

    analysis::AnalysisOptions ao;
    ao.marker = mc;
    ao.memoryBytes = kMemoryBytes;
    return analysis::analyzeProgram(prog, ao);
}

class LintWorkloads : public testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(LintWorkloads, MarkingsAreLegal)
{
    workloads::WorkloadParams wp;
    wp.iterations = 500;
    isa::Program prog = workloads::buildWorkload(GetParam(), wp);
    analysis::Report r = profileAndAnalyze(prog, false);
    EXPECT_EQ(r.errors(), 0u) << r.text();
}

TEST_P(LintWorkloads, LoopExtensionMarkingsAreLegal)
{
    workloads::WorkloadParams wp;
    wp.iterations = 500;
    isa::Program prog = workloads::buildWorkload(GetParam(), wp);
    analysis::Report r = profileAndAnalyze(prog, true);
    EXPECT_EQ(r.errors(), 0u) << r.text();
}

namespace
{

// sim::loadTarget verifies an assembly file with the value analysis
// before anything runs it, but skips that pass for generated
// programs: this is the proof that they would pass it, at the seeds
// and sizes runs use.
void
expectDeepClean(const isa::Program &prog, const std::string &what)
{
    analysis::AnalysisOptions ao;
    ao.memoryBytes = core::CoreParams{}.memoryBytes;
    ao.absint = true;
    analysis::AnalysisSummary summary;
    const analysis::Report r = analysis::analyzeProgram(prog, ao, &summary);
    EXPECT_TRUE(summary.absintRan) << what << ": the value analysis declined";
    EXPECT_EQ(r.errors(), 0u) << what << "\n" << r.text();
}

} // namespace

TEST_P(LintWorkloads, DeepVerifierFindsNoError)
{
    const sim::SimConfig defaults;
    for (const std::uint64_t seed : {defaults.train.seed, defaults.ref.seed})
        for (const std::uint64_t iters : {60, 2000}) {
            workloads::WorkloadParams wp;
            wp.seed = seed;
            wp.iterations = iters;
            expectDeepClean(workloads::buildWorkload(GetParam(), wp),
                            "seed " + std::to_string(seed) + ", iters " +
                                std::to_string(iters));
        }
}

TEST(LintRandomPrograms, DeepVerifierFindsNoError)
{
    // 25 structures, each at the train and ref data seeds of
    // RandomProgramFuzz.
    for (unsigned structure = 0; structure < 25; ++structure)
        for (const std::uint64_t data : {0xAAAA, 0xBBBB})
            expectDeepClean(workloads::buildRandomProgram(structure, data),
                            "random(" + std::to_string(structure) + ", " +
                                std::to_string(data) + ")");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, LintWorkloads, [] {
    std::vector<std::string> names;
    for (const auto &info : workloads::workloadList())
        names.push_back(info.name);
    return testing::ValuesIn(names);
}());

// The quickstart example's Figure-3-shaped source (examples/quickstart.cpp).
TEST(LintExamples, QuickstartProgramIsLegal)
{
    const char *source = R"(
        .base 0x1000
    start:
        li   r10, 0
        li   r11, 300
        li   r14, 88172645463325252
    loop:
        shli r2, r14, 13
        xor  r14, r14, r2
        shri r2, r14, 7
        xor  r14, r14, r2
        shli r2, r14, 17
        xor  r14, r14, r2
        andi r1, r14, 1
        bne  r1, r0, side_c
    side_b:
        addi r3, r3, 7
        shri r2, r14, 5
        andi r2, r2, 15
        beq  r2, r0, block_d
    block_e:
        xori r4, r3, 33
        jmp  merge
    block_d:
        addi r4, r4, 1
        jmp  merge
    side_c:
        addi r3, r3, 13
        shri r2, r14, 9
        andi r2, r2, 15
        beq  r2, r0, block_f
    block_g:
        xori r4, r3, 71
        jmp  merge
    block_f:
        addi r4, r4, 2
    merge:
        add  r5, r5, r4
        add  r6, r6, r3
        xor  r7, r7, r5
        addi r10, r10, 1
        blt  r10, r11, loop
        st   [r20 + 1048576], r7
        halt
    )";
    isa::Program prog = isa::assemble(source);
    analysis::Report r = profileAndAnalyze(prog, false);
    EXPECT_EQ(r.errors(), 0u) << r.text();
    EXPECT_GE(prog.allMarks().size(), 1u);
}

// The wish-loop scenario of examples/hard_to_predict_loop.cpp.
TEST(LintExamples, HardToPredictLoopProgramIsLegal)
{
    isa::ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 2000);
    b.li(14, 0x10ca1);
    isa::Label outer = b.newLabel();
    b.bind(outer);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 3);
    isa::Label inner = b.newLabel();
    b.bind(inner);
    b.addi(5, 5, 1);
    b.xor_(6, 6, 5);
    b.addi(2, 2, -1);
    b.blt(0, 2, inner);
    for (int i = 0; i < 24; ++i)
        b.addi(7, 7, 1);
    b.addi(10, 10, 1);
    b.blt(10, 11, outer);
    b.st(62, 0x100000, 6);
    b.halt();
    isa::Program prog = b.build();
    analysis::Report r = profileAndAnalyze(prog, true);
    EXPECT_EQ(r.errors(), 0u) << r.text();
    EXPECT_GE(prog.allMarks().size(), 1u);
}
