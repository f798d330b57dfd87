/**
 * @file
 * Directed tests of select-uop generation (paper section 2.4): which
 * architectural registers get merged, and that merged dataflow is
 * architecturally correct for every write pattern.
 */

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

struct HammockSpec
{
    unsigned thenWrites = 0; ///< distinct registers written, r40+
    unsigned elseWrites = 0;
    bool sameRegs = true; ///< else-arm writes the same registers
};

/** Build a loop with one marked random hammock per the spec. */
Program
build(const HammockSpec &spec, Addr *branch_out)
{
    ProgramBuilder b;
    b.li(10, 0);
    b.li(11, 300);
    b.li(14, 0x5e1ec7);
    Label loop = b.newLabel();
    b.bind(loop);
    b.muli(14, 14, 6364136223846793005LL);
    b.addi(14, 14, 1442695040888963407LL);
    b.shri(1, 14, 33);
    b.andi(2, 1, 1);
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(2, 0, els);
    for (unsigned i = 0; i < spec.thenWrites; ++i)
        b.addi(ArchReg(40 + i), ArchReg(40 + i), 3);
    b.jmp(join);
    b.bind(els);
    for (unsigned i = 0; i < spec.elseWrites; ++i) {
        ArchReg r = spec.sameRegs ? ArchReg(40 + i) : ArchReg(50 + i);
        b.addi(r, r, 7);
    }
    b.bind(join);
    // Consume every possibly-merged register.
    for (unsigned i = 0; i < 8; ++i) {
        b.xor_(7, 7, ArchReg(40 + i));
        b.xor_(7, 7, ArchReg(50 + i));
    }
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.st(62, 0x100000, 7);
    b.halt();
    *branch_out = branch;
    return b.build();
}

core::CoreParams
dmpForced()
{
    core::CoreParams p = sim::machine("dmp");
    p.alwaysLowConfidence = true;
    return p;
}

std::uint64_t
runSelects(const HammockSpec &spec, core::CoreParams params)
{
    Addr branch;
    Program p = build(spec, &branch);
    // CFM: first instruction of the join block. The else arm starts at
    // the branch target and has elseWrites instructions.
    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(p.fetch(branch).target +
                             spec.elseWrites * 4);
    p.setMark(branch, mark);

    test::expectCoreMatchesReference(p, params,
                                     "selects");
    core::Core m(p, params);
    m.run();
    std::uint64_t episodes = m.stats().exitCase[0].value() +
                             m.stats().exitCase[1].value();
    EXPECT_GT(episodes, 200u);
    return m.stats().retiredSelectUops.value() / std::max<std::uint64_t>(
                                                     1, episodes);
}

TEST(SelectUops, NoWritesMeansNoSelects)
{
    EXPECT_EQ(runSelects({0, 0, true}, dmpForced()), 0u);
}

TEST(SelectUops, OneSidedWriteMergesOnce)
{
    // Only the then-arm writes r40: exactly one select per episode
    // (choosing between the new value and the pre-branch value).
    EXPECT_EQ(runSelects({1, 0, true}, dmpForced()), 1u);
}

TEST(SelectUops, BothSidesSameRegisterMergesOnce)
{
    EXPECT_EQ(runSelects({1, 1, true}, dmpForced()), 1u);
}

TEST(SelectUops, DisjointWritesMergeEach)
{
    // then writes r40..r42, else writes r50..r51: five merges.
    EXPECT_EQ(runSelects({3, 2, false}, dmpForced()), 5u);
}

TEST(SelectUops, ManyRegisters)
{
    EXPECT_EQ(runSelects({8, 8, true}, dmpForced()), 8u);
}

TEST(SelectUops, MergedValueIsSelectedByRealDirection)
{
    // Two iterations with known outcomes: directly check the merged
    // architectural value of r40 after a predicated episode.
    ProgramBuilder b;
    b.li(1, 1); // condition = taken exactly once
    Label els = b.newLabel(), join = b.newLabel();
    Addr branch = b.beq(1, 0, els);
    b.li(40, 111);
    b.jmp(join);
    b.bind(els);
    b.li(40, 222);
    b.bind(join);
    Addr join_addr = b.add(41, 40, 0);
    b.halt();
    Program p = b.build();
    isa::DivergeMark mark;
    mark.isDiverge = true;
    mark.cfmPoints.push_back(join_addr);
    p.setMark(branch, mark);

    core::Core m(p, dmpForced());
    m.run();
    ASSERT_TRUE(m.halted());
    // r1 == 1 -> beq not taken -> then arm -> r40 = 111.
    EXPECT_EQ(m.retiredState().read(40), 111u);
    EXPECT_EQ(m.retiredState().read(41), 111u);
}

} // namespace
} // namespace dmp
