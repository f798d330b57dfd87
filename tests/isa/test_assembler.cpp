/** @file Unit tests for the text assembler. */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"

namespace dmp::isa
{
namespace
{

TEST(Assembler, BasicProgram)
{
    Program p = assemble(R"(
        li r1, 5
        li r2, 7
        add r3, r1, r2
        halt
    )");
    ASSERT_EQ(p.size(), 4u);
    MemoryImage mem(1 << 20);
    FuncSim sim(p, mem);
    sim.run(100);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().read(3), 12u);
}

TEST(Assembler, CustomBase)
{
    Program p = assemble(R"(
        .base 0x4000
        nop
        halt
    )");
    EXPECT_EQ(p.baseAddr(), 0x4000u);
    EXPECT_TRUE(p.contains(0x4000));
}

TEST(Assembler, LabelsAndBranches)
{
    Program p = assemble(R"(
        li r1, 0
        li r2, 10
    loop:
        addi r1, r1, 1
        blt r1, r2, loop
        halt
    )");
    MemoryImage mem(1 << 20);
    FuncSim sim(p, mem);
    sim.run(1000);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().read(1), 10u);
}

TEST(Assembler, MemoryOperandSyntax)
{
    Program p = assemble(R"(
        .data 0x1000 99
        .data 0x2000 0xffffffffffffffff
        li r1, 0x1000
        ld r2, [r1 + 0]
        addi r2, r2, 1
        st [r1 + 8], r2
        ld r3, [r0 + 0x2000]
        halt
    )");
    MemoryImage mem(1 << 20);
    FuncSim sim(p, mem);
    sim.run(100);
    EXPECT_EQ(sim.state().read(2), 100u);
    EXPECT_EQ(mem.load(0x1008), 100u);
    // A 64-bit data word is stored whole, not clamped to INT64_MAX.
    EXPECT_EQ(sim.state().read(3), ~Word(0));
}

TEST(Assembler, CallAndReturn)
{
    Program p = assemble(R"(
        li r1, 1
        call fn
        addi r1, r1, 100
        halt
    fn:
        addi r1, r1, 10
        ret
    )");
    MemoryImage mem(1 << 20);
    FuncSim sim(p, mem);
    sim.run(100);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().read(1), 111u);
}

TEST(Assembler, CommentsIgnored)
{
    Program p = assemble(R"(
        ; full line comment
        li r1, 3   ; trailing comment
        # hash comment
        halt
    )");
    EXPECT_EQ(p.size(), 2u);
}

TEST(Assembler, ImmediateVsRegisterOperand)
{
    Program p = assemble(R"(
        li r1, 6
        add r2, r1, r1
        addi r3, r1, 4
        li r4, 0x8000000000000000
        li r5, -0x8000000000000000
        halt
    )");
    MemoryImage mem(1 << 20);
    FuncSim sim(p, mem);
    sim.run(100);
    EXPECT_EQ(sim.state().read(2), 12u);
    EXPECT_EQ(sim.state().read(3), 10u);
    // Both spellings of INT64_MIN load it; neither clamps to INT64_MAX.
    EXPECT_EQ(sim.state().read(4), Word(1) << 63);
    EXPECT_EQ(sim.state().read(5), Word(1) << 63);
}

TEST(Assembler, IndirectJump)
{
    Program p = assemble(R"(
        li r1, 0x1010
        jr r1
        halt
        nop
        li r2, 77
        halt
    )");
    MemoryImage mem(1 << 20);
    FuncSim sim(p, mem);
    sim.run(100);
    EXPECT_EQ(sim.state().read(2), 77u);
}

TEST(AssemblerDeath, UnknownMnemonic)
{
    EXPECT_DEATH(
        { assemble("frobnicate r1, r2, r3\n"); },
        "unknown mnemonic");
}

TEST(AssemblerDeath, UnboundLabel)
{
    EXPECT_DEATH({ assemble("jmp nowhere\nhalt\n"); }, "unbound label");
}

TEST(AssemblerDeath, BadRegister)
{
    EXPECT_DEATH({ assemble("li r99, 0\n"); }, "bad register");
}

TEST(AssemblerDeath, BadDataAddressOrImmediate)
{
    // A syntax error exits 1 and names the line: an unaligned data
    // address, 2^64, and -(2^63 + 1).
    EXPECT_EXIT({ assemble(".data 0x2004 7\nhalt\n"); },
                ::testing::ExitedWithCode(1), "line 1");
    EXPECT_EXIT({ assemble("li r1, 0x10000000000000000\nhalt\n"); },
                ::testing::ExitedWithCode(1), "line 1");
    EXPECT_EXIT({ assemble("halt\n.data 0x2000 -0x8000000000000001\n"); },
                ::testing::ExitedWithCode(1), "line 2");
}

// Operands are read by the opcode's format: an immediate where a
// register-register op wants a register, or the reverse, is a syntax
// error naming the line, never a silently different instruction.
TEST(AssemblerDeath, RegRegOpRejectsImmediate)
{
    EXPECT_EXIT({ assemble("li r1, 6\nadd r2, r1, 5\nhalt\n"); },
                ::testing::ExitedWithCode(1),
                "line 2: expected register, got '5'");
}

TEST(AssemblerDeath, RegImmOpRejectsRegister)
{
    EXPECT_EXIT({ assemble("li r1, 6\naddi r3, r1, r1\nhalt\n"); },
                ::testing::ExitedWithCode(1),
                "line 2: bad immediate 'r1'");
}

} // namespace
} // namespace dmp::isa
