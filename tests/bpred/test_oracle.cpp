/** @file Unit tests for the correct-path oracle tracker. */

#include <gtest/gtest.h>

#include "bpred/oracle.hh"
#include "isa/program.hh"

namespace dmp::bpred
{
namespace
{

using isa::kInstBytes;
using isa::Label;
using isa::Program;
using isa::ProgramBuilder;

Program
branchy()
{
    // li r1,1; beq r1,r0,skip (never taken); addi; skip: halt
    ProgramBuilder b;
    Label skip = b.newLabel();
    b.li(1, 1);
    b.beq(1, 0, skip);
    b.addi(2, 2, 1);
    b.bind(skip);
    b.halt();
    return b.build();
}

TEST(Oracle, TracksCorrectPath)
{
    Program p = branchy();
    OracleTracker o(p, 1 << 20);
    EXPECT_TRUE(o.synced());
    EXPECT_EQ(o.truePc(), 0x1000u);

    // li: next 0x1004.
    o.onFetch(0x1000, 0x1004);
    EXPECT_TRUE(o.synced());
    // Peek the branch: not taken.
    isa::StepInfo info = o.peek();
    EXPECT_TRUE(info.isCondBranch);
    EXPECT_FALSE(info.taken);
    // Fetch goes the correct way.
    o.onFetch(0x1004, 0x1008);
    EXPECT_TRUE(o.synced());
    EXPECT_EQ(o.truePc(), 0x1008u);
}

TEST(Oracle, FreezesOnWrongPathAndResyncsAtRedirect)
{
    Program p = branchy();
    OracleTracker o(p, 1 << 20);
    o.onFetch(0x1000, 0x1004);
    // Front end mispredicts taken: goes to 0x100c.
    o.onFetch(0x1004, 0x100c);
    EXPECT_FALSE(o.synced());
    Addr frozen = o.truePc();
    EXPECT_EQ(frozen, 0x1008u);

    // Wrong-path fetches do not advance or resync the oracle.
    o.onFetch(0x100c, 0x1010);
    EXPECT_FALSE(o.synced());
    EXPECT_EQ(o.truePc(), frozen);

    // Sequential wrong-path fetch of the frozen pc does NOT resync
    // (only explicit redirects do).
    o.onFetch(0x1008, 0x100c);
    EXPECT_FALSE(o.synced());

    // Recovery redirect to the frozen pc resyncs.
    o.onRedirect(0x1008);
    EXPECT_TRUE(o.synced());
}

TEST(Oracle, RedirectToWrongAddressStaysFrozen)
{
    Program p = branchy();
    OracleTracker o(p, 1 << 20);
    o.onFetch(0x1000, 0x1004);
    o.onFetch(0x1004, 0x100c); // wrong path
    o.onRedirect(0x1000);      // not the frozen pc
    EXPECT_FALSE(o.synced());
    o.onRedirect(0x1008);
    EXPECT_TRUE(o.synced());
}

TEST(Oracle, StaysSyncedThroughHalt)
{
    Program p = branchy();
    OracleTracker o(p, 1 << 20);
    o.onFetch(0x1000, 0x1004);
    o.onFetch(0x1004, 0x1008);
    o.onFetch(0x1008, 0x100c);
    o.onFetch(0x100c, 0x1010); // the HALT itself
    EXPECT_TRUE(o.synced());
    EXPECT_TRUE(o.halted());
}

TEST(Oracle, PeekDoesNotAdvance)
{
    Program p = branchy();
    OracleTracker o(p, 1 << 20);
    isa::StepInfo a = o.peek();
    isa::StepInfo b = o.peek();
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(o.truePc(), 0x1000u);
}

} // namespace
} // namespace dmp::bpred
