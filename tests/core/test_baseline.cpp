/** @file Directed tests of the baseline out-of-order core. */

#include <gtest/gtest.h>

#include "../testutil.hh"
#include "isa/program.hh"

namespace dmp
{
namespace
{

using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

TEST(BaselineCore, IlpRichCodeSustainsWideIssue)
{
    // Eight independent accumulator chains: IPC should approach the
    // machine width, far above 1.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 2000);
    Label loop = b.newLabel();
    b.bind(loop);
    for (int u = 0; u < 4; ++u) {
        for (ArchReg r = 1; r <= 8; ++r)
            b.addi(r, r, 1);
    }
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    core::Core m(p, sim::machine("base"));
    m.run();
    ASSERT_TRUE(m.halted());
    double ipc = double(m.stats().retiredInsts.value()) /
                 double(m.stats().cycles.value());
    EXPECT_GT(ipc, 4.0);
    EXPECT_EQ(m.retiredState().read(1), 8000u);
}

TEST(BaselineCore, SerialDependenceLimitsIpc)
{
    // One long dependence chain: IPC ~1.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 2000);
    Label loop = b.newLabel();
    b.bind(loop);
    for (int u = 0; u < 16; ++u)
        b.addi(1, 1, 1); // serial
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    core::Core m(p, sim::machine("base"));
    m.run();
    double ipc = double(m.stats().retiredInsts.value()) /
                 double(m.stats().cycles.value());
    EXPECT_LT(ipc, 1.4);
    EXPECT_GT(ipc, 0.8);
}

TEST(BaselineCore, MispredictionCostsAtLeastFrontendDepth)
{
    // A branch on in-register pseudo-random data mispredicts ~50% and
    // each misprediction costs >= 30 cycles.
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 1000);
    b.li(14, 0x12345);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(1, 1, 1);
    Label skip = b.newLabel();
    b.beq(1, 0, skip);
    b.addi(2, 2, 1);
    b.bind(skip);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    core::Core m(p, sim::machine("base"));
    m.run();
    std::uint64_t mispred =
        m.stats().retiredMispredCondBranches.value();
    EXPECT_GT(mispred, 300u); // ~50% of 1000
    // Total cycles must include ~30 per misprediction.
    EXPECT_GT(m.stats().cycles.value(),
              mispred * m.params().frontendDepth);
}

TEST(BaselineCore, PerfectPredictionRemovesFlushes)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 1000);
    b.li(14, 0x777);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(1, 1, 1);
    Label skip = b.newLabel();
    b.beq(1, 0, skip);
    b.addi(2, 2, 1);
    b.bind(skip);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    core::CoreParams base = sim::machine("base");
    core::Core m1(p, base);
    m1.run();

    core::CoreParams perfect = base;
    perfect.perfectCondPredictor = true;
    core::Core m2(p, perfect);
    m2.run();

    EXPECT_GT(m1.stats().condBranchFlushes.value(), 300u);
    EXPECT_EQ(m2.stats().condBranchFlushes.value(), 0u);
    EXPECT_LT(m2.stats().cycles.value(),
              m1.stats().cycles.value() / 2);
}

TEST(BaselineCore, CallReturnThroughRas)
{
    ProgramBuilder b;
    Label fn = b.newLabel(), over = b.newLabel();
    b.jmp(over);
    b.bind(fn);
    b.addi(1, 1, 1);
    b.ret();
    b.bind(over);
    b.li(10, 0);
    b.li(11, 500);
    Label loop = b.newLabel();
    b.bind(loop);
    b.call(fn);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    core::Core m(p, sim::machine("base"));
    m.run();
    ASSERT_TRUE(m.halted());
    EXPECT_EQ(m.retiredState().read(1), 500u);
    // Returns predicted by the RAS: no flushes from them after warmup.
    EXPECT_LT(m.stats().pipelineFlushes.value(), 10u);
}

TEST(BaselineCore, IndirectJumpLearnedByTargetCache)
{
    // jr with a repeating target pattern: the ITC should learn it.
    ProgramBuilder b2;
    b2.li(10, 0);
    b2.li(11, 600);
    Label loop2 = b2.newLabel();
    Label u0 = b2.newLabel(), u1 = b2.newLabel(), join2 = b2.newLabel();
    b2.bind(loop2);
    b2.andi(1, 10, 1);
    // Make the alternation visible in the global history: a branch
    // whose outcome mirrors the selector (the ITC indexes on pc^GHR,
    // not on register values).
    Label vis = b2.newLabel();
    b2.beq(1, 0, vis);
    b2.nop();
    b2.bind(vis);
    b2.muli(1, 1, 4 * 3); // each case block is 3 instructions
    Addr base_addr = 0x1000 + 9 * 4; // u0 begins after 9 instructions
    b2.li(2, std::int64_t(base_addr));
    b2.add(2, 2, 1);
    b2.jr(2);
    b2.bind(u0);
    b2.addi(3, 3, 1);
    b2.nop();
    b2.jmp(join2);
    b2.bind(u1);
    b2.addi(4, 4, 1);
    b2.nop();
    b2.jmp(join2);
    b2.bind(join2);
    b2.addi(10, 10, 1);
    b2.blt(10, 11, loop2);
    b2.halt();
    Program p = b2.build();
    ASSERT_EQ(p.fetch(base_addr).op, isa::Opcode::ADDI); // u0 sanity

    core::Core m(p, sim::machine("base"));
    m.run();
    ASSERT_TRUE(m.halted());
    EXPECT_EQ(m.retiredState().read(3), 300u);
    EXPECT_EQ(m.retiredState().read(4), 300u);
    // The alternating pattern is history-visible: few flushes.
    EXPECT_LT(m.stats().pipelineFlushes.value(), 100u);
}

TEST(BaselineCore, WrongPathClassifierSeesControlIndependence)
{
    // Random hammock with a long control-independent tail: most
    // wrong-path instructions are control-independent (Figure 1).
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 800);
    b.li(14, 0xabc);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(1, 1, 1);
    Label skip = b.newLabel();
    b.beq(1, 0, skip);
    b.addi(2, 2, 1);
    b.bind(skip);
    for (int i = 0; i < 40; ++i)
        b.addi(3, 3, 1); // control-independent tail
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    Program p = b.build();

    core::CoreParams params = sim::machine("base");
    params.classifyWrongPath = true;
    core::Core m(p, params);
    m.run();
    std::uint64_t dep = m.stats().wpControlDependent.value();
    std::uint64_t indep = m.stats().wpControlIndependent.value();
    EXPECT_GT(indep, 0u);
    EXPECT_GT(dep, 0u);
    // The tail dominates the hammock arm.
    EXPECT_GT(indep, dep);
}

TEST(BaselineCore, TickAndResetSemantics)
{
    ProgramBuilder b;
    b.li(1, 42);
    b.halt();
    Program p = b.build();
    core::Core m(p, sim::machine("base"));
    std::uint64_t ticks = 0;
    while (m.tick())
        ++ticks;
    EXPECT_TRUE(m.halted());
    EXPECT_GT(ticks, 30u); // at least the frontend depth
    EXPECT_EQ(m.retiredState().read(1), 42u);
}

/**
 * Two fresh cores end a store-heavy run with the same memory. The loop
 * below adds to each word of a 32 KiB array (eight pages) it loads.
 */
TEST(BaselineCore, ResetReproducesStoreHeavyRun)
{
    constexpr Addr kBase = 0x100000;
    constexpr int kWords = 4096;
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, kWords);
    b.li(12, std::int64_t(kBase));
    Label loop = b.newLabel();
    Label skip = b.newLabel();
    b.bind(loop);
    b.shli(1, 10, 3);
    b.add(1, 1, 12);
    b.ld(2, 1, 0);
    b.add(2, 2, 10);
    b.addi(2, 2, 5);
    b.st(1, 0, 2);
    b.andi(3, 2, 6);
    b.beq(3, 0, skip);
    b.addi(4, 4, 1);
    b.bind(skip);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.halt();
    b.dataWord(kBase, 1000);
    Program p = b.build();

    core::Core fresh(p, sim::machine("base"));
    fresh.run();
    ASSERT_TRUE(fresh.halted());
    EXPECT_EQ(fresh.retiredMemory().load(kBase), 1005u);

    core::Core m(p, sim::machine("base"));
    m.run();
    ASSERT_TRUE(m.halted());
    EXPECT_TRUE(m.retiredMemory() == fresh.retiredMemory());
}

} // namespace
} // namespace dmp
