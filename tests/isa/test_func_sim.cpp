/** @file Unit tests for the functional reference simulator. */

#include <gtest/gtest.h>

#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"

namespace dmp::isa
{
namespace
{

TEST(MemoryImage, LoadStoreRoundTrip)
{
    MemoryImage mem(1 << 20);
    mem.store(0x100, 0xdeadbeef);
    EXPECT_EQ(mem.load(0x100), 0xdeadbeefu);
    EXPECT_EQ(mem.load(0x108), 0u);
}

TEST(MemoryImage, Equality)
{
    constexpr std::size_t kBytes = 1 << 16;
    MemoryImage a(kBytes), b(kBytes);
    EXPECT_TRUE(a == b);
    a.store(8, 1);
    EXPECT_FALSE(a == b);
    b.store(8, 1);
    EXPECT_TRUE(a == b);
    a.store(kBytes - sizeof(Word), 1); // the last word counts too
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(MemoryImage(kBytes) == MemoryImage(kBytes / 2));
}

/** A new image reads zero from the first word to the last. */
TEST(MemoryImage, FreshImageReadsZeroAtBothEnds)
{
    constexpr std::size_t kBytes = 1 << 20;
    MemoryImage mem(kBytes);
    EXPECT_EQ(mem.sizeBytes(), kBytes);
    EXPECT_EQ(mem.load(0), 0u);
    EXPECT_EQ(mem.load(kBytes - sizeof(Word)), 0u);
}

/** A block copy that reaches past the image end is fatal, as a store
 *  there is; one that ends on the last word is not. */
TEST(MemoryImage, BlockCopyPastEndIsFatal)
{
    constexpr std::size_t kBytes = 1 << 12;
    const std::vector<Word> two{1, 2};
    MemoryImage mem(kBytes);
    mem.storeWords(kBytes - 2 * sizeof(Word), two);
    EXPECT_EQ(mem.load(kBytes - 2 * sizeof(Word)), 1u);
    EXPECT_EQ(mem.load(kBytes - sizeof(Word)), 2u);
    EXPECT_DEATH(mem.store(kBytes, 1), "out of bounds");
    EXPECT_DEATH(mem.storeWords(kBytes - sizeof(Word), two),
                 "out of bounds");
    EXPECT_DEATH(mem.storeWords(kBytes, two), "out of bounds");
}

TEST(FuncSim, ZeroRegisterIsImmutable)
{
    ProgramBuilder b;
    b.li(0, 42);
    b.add(1, 0, 0);
    b.halt();
    Program p = b.build();
    MemoryImage mem(1 << 16);
    FuncSim sim(p, mem);
    sim.run(10);
    EXPECT_EQ(sim.state().read(0), 0u);
    EXPECT_EQ(sim.state().read(1), 0u);
}

TEST(FuncSim, StepInfoReportsBranches)
{
    ProgramBuilder b;
    Label t = b.newLabel();
    b.li(1, 1);
    b.beq(1, 1, t); // taken
    b.nop();
    b.bind(t);
    b.halt();
    Program p = b.build();
    MemoryImage mem(1 << 16);
    FuncSim sim(p, mem);
    sim.step(); // li
    StepInfo info = sim.step();
    EXPECT_TRUE(info.isCondBranch);
    EXPECT_TRUE(info.taken);
    EXPECT_EQ(info.nextPc, p.labels().empty() ? info.nextPc : info.nextPc);
    EXPECT_EQ(sim.state().pc, 0x100cu);
}

TEST(FuncSim, HaltStopsExecution)
{
    ProgramBuilder b;
    b.li(1, 1);
    b.halt();
    b.li(1, 2); // unreachable
    Program p = b.build();
    MemoryImage mem(1 << 16);
    FuncSim sim(p, mem);
    std::uint64_t n = sim.run(100);
    EXPECT_EQ(n, 2u);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().read(1), 1u);
    // Further steps are no-ops.
    StepInfo info = sim.step();
    EXPECT_TRUE(info.halted);
    EXPECT_EQ(sim.retiredInsts(), 2u);
}

TEST(FuncSim, LoopComputesSum)
{
    // sum = 0; for (i = 1; i <= 100; ++i) sum += i;
    ProgramBuilder b;
    Label loop = b.newLabel();
    b.li(1, 1);    // i
    b.li(2, 0);    // sum
    b.li(3, 100);  // bound
    b.bind(loop);
    b.add(2, 2, 1);
    b.addi(1, 1, 1);
    b.bge(3, 1, loop);
    b.halt();
    Program p = b.build();
    MemoryImage mem(1 << 16);
    FuncSim sim(p, mem);
    sim.run(10000);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().read(2), 5050u);
}

TEST(FuncSim, CallStackDepth)
{
    // Nested calls through the link register (callee saves it manually).
    ProgramBuilder b;
    Label f1 = b.newLabel(), f2 = b.newLabel(), over = b.newLabel();
    b.jmp(over);
    b.bind(f1);
    b.add(5, 63, 0); // save link in r5
    b.call(f2);
    b.add(63, 5, 0); // restore
    b.addi(1, 1, 1);
    b.ret();
    b.bind(f2);
    b.addi(1, 1, 10);
    b.ret();
    b.bind(over);
    b.call(f1);
    b.halt();
    Program p = b.build();
    MemoryImage mem(1 << 16);
    FuncSim sim(p, mem);
    sim.run(100);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().read(1), 11u);
}

} // namespace
} // namespace dmp::isa
