/** @file Unit tests for Program and ProgramBuilder. */

#include <gtest/gtest.h>

#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"

namespace dmp::isa
{
namespace
{

TEST(ProgramBuilder, EmitsSequentialAddresses)
{
    ProgramBuilder b(0x1000);
    EXPECT_EQ(b.here(), 0x1000u);
    Addr a0 = b.li(1, 5);
    Addr a1 = b.add(2, 1, 1);
    EXPECT_EQ(a0, 0x1000u);
    EXPECT_EQ(a1, 0x1004u);
    Program p = b.build();
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.fetch(0x1000).op, Opcode::LI);
    EXPECT_EQ(p.fetch(0x1004).op, Opcode::ADD);
}

TEST(ProgramBuilder, ForwardLabelFixup)
{
    ProgramBuilder b;
    Label target = b.newLabel();
    b.beq(1, 2, target); // forward reference
    b.nop();
    b.bind(target);
    Addr t = b.here();
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.fetch(0x1000).target, t);
}

TEST(ProgramBuilder, BackwardLabelFixup)
{
    ProgramBuilder b;
    Label loop = b.newLabel();
    b.bind(loop);
    Addr top = 0x1000;
    b.addi(1, 1, 1);
    b.bne(1, 2, loop);
    Program p = b.build();
    EXPECT_EQ(p.fetch(0x1004).target, top);
}

TEST(ProgramBuilder, NamedLabels)
{
    ProgramBuilder b;
    Label l = b.newLabel();
    b.nop();
    b.bindNamed("entry2", l);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.labelAddr("entry2"), 0x1004u);
}

TEST(ProgramBuilder, CallWritesLinkRegister)
{
    ProgramBuilder b;
    Label fn = b.newLabel();
    b.call(fn);
    b.bind(fn);
    b.ret();
    Program p = b.build();
    const Inst &call = p.fetch(0x1000);
    EXPECT_EQ(call.op, Opcode::CALL);
    EXPECT_EQ(call.rd, kLinkReg);
    const Inst &ret = p.fetch(0x1004);
    EXPECT_EQ(ret.rs1, kLinkReg);
}

TEST(Program, ContainsAndBounds)
{
    ProgramBuilder b;
    b.nop();
    b.halt();
    Program p = b.build();
    EXPECT_TRUE(p.contains(0x1000));
    EXPECT_TRUE(p.contains(0x1004));
    EXPECT_FALSE(p.contains(0x1008));
    EXPECT_FALSE(p.contains(0x0ffc));
    EXPECT_FALSE(p.contains(0x1002)); // unaligned
    EXPECT_EQ(p.endAddr(), 0x1008u);
}

TEST(Program, InitialData)
{
    using Words = std::vector<Word>;
    {
        // In order: adjacent words merge into one run, a block that
        // starts at a run's end extends it, and a gap starts a new run.
        ProgramBuilder b;
        b.dataWord(0x100000, 1);
        b.dataWord(0x100008, 2);
        b.dataWord(0x100018, 3); // 0x100010 is never written
        std::span<Word> blk = b.dataBlock(0x100020, 2);
        ASSERT_EQ(blk.size(), 2u);
        blk[0] = 4;
        blk[1] = 5;
        EXPECT_TRUE(b.dataBlock(0x200000, 0).empty());
        b.halt();
        Program p = b.build();

        const auto &d = p.dataSegments();
        ASSERT_EQ(d.size(), 2u);
        EXPECT_EQ(d[0].base, 0x100000u);
        EXPECT_EQ(d[0].words, (Words{1, 2}));
        EXPECT_EQ(d[0].end(), 0x100010u);
        EXPECT_EQ(d[1].base, 0x100018u);
        EXPECT_EQ(d[1].words, (Words{3, 4, 5}));
    }

    // Out of order, and 0x100010 written three times (once inside a
    // block): the image keeps one word per address, ascending, with
    // the last write, cut into runs at the gap before 0x100028.
    ProgramBuilder b;
    b.dataWord(0x100010, 3);
    b.dataWord(0x100000, 42);
    b.dataBlock(0x100010, 1)[0] = 9;
    b.dataWord(0x100010, 4);
    b.dataWord(0x100030, 7);
    b.dataWord(0x100008, 43);
    b.dataWord(0x100028, 6);
    b.li(1, 0x100010);
    b.ld(2, 1, 0);
    b.halt();
    Program p = b.build();

    const auto &d = p.dataSegments();
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0].base, 0x100000u);
    EXPECT_EQ(d[0].words, (Words{42, 43, 4}));
    EXPECT_EQ(d[1].base, 0x100028u);
    EXPECT_EQ(d[1].words, (Words{6, 7}));

    MemoryImage mem(1 << 21);
    FuncSim sim(p, mem);
    sim.run(10);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.state().read(2), 4u);
}

TEST(Program, DivergeMarks)
{
    ProgramBuilder b;
    Label t = b.newLabel();
    Addr branch = b.beq(1, 2, t);
    b.bind(t);
    b.halt();
    Program p = b.build();

    DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(0x1004);
    mark.earlyExitThreshold = 32;
    p.setMark(branch, mark);

    const DivergeMark *m = p.mark(branch);
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->isDiverge);
    EXPECT_EQ(m->cfmPoints[0], 0x1004u);
    EXPECT_EQ(m->earlyExitThreshold, 32u);
    EXPECT_EQ(p.mark(0x1004), nullptr);

    p.clearMarks();
    EXPECT_EQ(p.mark(branch), nullptr);
}

TEST(Program, ListingShowsLabelsAndMarks)
{
    ProgramBuilder b;
    Label t = b.newLabel();
    Addr branch = b.beq(1, 2, t);
    b.bindNamed("join", t);
    b.halt();
    Program p = b.build();
    DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(p.labelAddr("join"));
    p.setMark(branch, mark);

    std::string listing = p.listing();
    EXPECT_NE(listing.find("join:"), std::string::npos);
    EXPECT_NE(listing.find("diverge"), std::string::npos);
}

TEST(ProgramDeath, MarkOnNonBranchPanics)
{
    ProgramBuilder b;
    b.nop();
    b.halt();
    Program p = b.build();
    DivergeMark mark;
    mark.isDiverge = true;
    EXPECT_DEATH(p.setMark(0x1000, mark), "non-conditional-branch");
}

} // namespace
} // namespace dmp::isa
