/**
 * @file
 * Adversarial programs for the static verifier: each deliberately
 * malformed program must trigger exactly the expected finding, with
 * the expected severity, at the expected PC.
 */

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "common/json.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"

using namespace dmp;
using analysis::Severity;

namespace
{

analysis::Report
analyze(const isa::Program &prog, std::size_t memory_bytes = 1 << 20)
{
    analysis::AnalysisOptions ao;
    ao.memoryBytes = memory_bytes;
    return analysis::analyzeProgram(prog, ao);
}

} // namespace

TEST(Verifier, CleanProgramHasNoFindings)
{
    isa::ProgramBuilder b;
    b.li(1, 5);
    b.li(2, 7);
    isa::Label done = b.newLabel();
    b.beq(1, 2, done);
    b.add(3, 1, 2);
    b.bind(done);
    b.halt();
    analysis::Report r = analyze(b.build());
    EXPECT_TRUE(r.empty()) << r.text();
}

TEST(Verifier, BranchTargetOutOfRange)
{
    isa::ProgramBuilder b;
    b.li(1, 1);
    // Hand-emitted branch to an address far outside the image.
    Addr bad = b.emit(
        {isa::Opcode::BEQ, 0, 1, 0, 0, Addr(0x20000)});
    b.halt();
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("branch-target-oob");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, bad);
    EXPECT_EQ(r.errors(), 1u);
}

TEST(Verifier, BranchTargetMisaligned)
{
    isa::ProgramBuilder b;
    b.li(1, 1);
    // In range but off the 4-byte instruction grid.
    Addr bad = b.emit(
        {isa::Opcode::BNE, 0, 1, 0, 0, Addr(0x1002)});
    b.halt();
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("branch-target-misaligned");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, bad);
}

TEST(Verifier, MissingTarget)
{
    isa::ProgramBuilder b;
    Addr bad = b.emit({isa::Opcode::JMP, 0, 0, 0, 0, kNoAddr});
    b.halt();
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("missing-target");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, bad);
}

TEST(Verifier, FallThroughOffProgramEnd)
{
    isa::ProgramBuilder b;
    b.li(1, 1);
    Addr last = b.addi(1, 1, 1); // no HALT: execution runs off the image
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("fallthrough-end");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, last);
}

TEST(Verifier, ReadBeforeWriteIsInfo)
{
    isa::ProgramBuilder b;
    b.li(1, 5);
    Addr use = b.add(2, 1, 3); // r3 never written anywhere
    b.halt();
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("read-before-write");
    ASSERT_NE(f, nullptr) << r.text();
    // Registers are architecturally zero-initialized, so this is
    // defined behavior — must stay Info, never block a run.
    EXPECT_EQ(f->severity, Severity::Info);
    EXPECT_EQ(f->pc, use);
    EXPECT_NE(f->message.find("r3"), std::string::npos);
    EXPECT_EQ(r.errors(), 0u);
}

TEST(Verifier, WrittenOnOnlyOneSideIsMaybe)
{
    isa::ProgramBuilder b;
    b.li(1, 1);
    isa::Label skip = b.newLabel();
    b.beq(1, 0, skip); // taken side skips the write to r5
    b.li(5, 9);
    b.bind(skip);
    Addr use = b.add(6, 5, 1); // r5 only written on the fall-through
    b.halt();
    analysis::Report r = analyze(b.build());

    // A path-dependent init is distinguished from a definite one.
    const analysis::Finding *f = r.first("read-before-write-maybe");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Info);
    EXPECT_EQ(f->pc, use);
    EXPECT_EQ(r.first("read-before-write"), nullptr) << r.text();
}

TEST(Verifier, DefThenUseInSameBlockIsClean)
{
    // The old block-granular dataflow flagged a same-block def->use
    // when the block was a loop body; instruction granularity must not.
    isa::ProgramBuilder b;
    b.li(1, 3);
    b.li(2, 0);
    isa::Label loop = b.newLabel();
    b.bind(loop);
    b.li(7, 2);        // def...
    b.add(2, 2, 7);    // ...then use of r7, same block
    b.addi(1, 1, -1);
    b.bne(1, 0, loop);
    b.halt();
    analysis::Report r = analyze(b.build());
    EXPECT_EQ(r.first("read-before-write"), nullptr) << r.text();
    EXPECT_EQ(r.first("read-before-write-maybe"), nullptr) << r.text();
}

TEST(Verifier, AbsintProvesOobAndDeadArm)
{
    isa::ProgramBuilder b;
    b.li(1, 1 << 21);
    Addr oob = b.ld(2, 1, 0); // base proved 2 MiB, beyond 1 MiB
    b.li(3, 4);
    isa::Label off = b.newLabel();
    Addr dead = b.blt(3, 0, off); // 4 < 0 never holds
    b.halt();
    b.bind(off);
    b.halt();

    analysis::AnalysisOptions ao;
    ao.memoryBytes = 1 << 20;
    ao.absint = true;
    analysis::Report r =
        analysis::analyzeProgram(b.build(), ao);

    const analysis::Finding *f = r.first("mem-oob");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, oob);

    const analysis::Finding *d = r.first("dead-branch-arm");
    ASSERT_NE(d, nullptr) << r.text();
    EXPECT_EQ(d->severity, Severity::Warn);
    EXPECT_EQ(d->pc, dead);
}

/** `prog` analyzed with the value analysis on. */
analysis::Report
analyzeDeep(const isa::Program &prog)
{
    analysis::AnalysisOptions ao;
    ao.absint = true;
    return analysis::analyzeProgram(prog, ao);
}

TEST(Verifier, IndirectJumpProvedOutsideTheImage)
{
    // r1 = 8 lies below the image: the fetch after JR faults.
    const isa::Program prog = isa::assemble("li r1, 8\njr r1\nhalt\n");
    analysis::Report r = analyzeDeep(prog);
    const analysis::Finding *f = r.first("indirect-target-oob");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, prog.baseAddr() + isa::kInstBytes);
    EXPECT_NE(f->message.find("target 0x8 "), std::string::npos)
        << f->message;
    EXPECT_EQ(r.errors(), 1u) << r.text();

    // Without the value analysis the target is unknown: no finding.
    EXPECT_EQ(analyze(prog).first("indirect-target-oob"), nullptr);

    // A bare JR reads the zero-initialized r1: it jumps to 0x0.
    const isa::Program bare = isa::assemble("jr r1\n");
    r = analyzeDeep(bare);
    f = r.first("indirect-target-oob");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->pc, bare.baseAddr());
    EXPECT_NE(f->message.find("target 0x0 "), std::string::npos)
        << f->message;
    EXPECT_EQ(r.errors(), 1u) << r.text();
}

TEST(Verifier, IndirectJumpInsideTheImageIsClean)
{
    // r1 = the address of the HALT: a resolved in-image target.
    const Addr base = isa::assemble("halt\n").baseAddr();
    const isa::Program prog = isa::assemble(
        "li r1, " + std::to_string(base + 2 * isa::kInstBytes) +
        "\njr r1\nhalt\n");
    analysis::Report r = analyzeDeep(prog);
    EXPECT_EQ(r.first("indirect-target-oob"), nullptr) << r.text();
    EXPECT_EQ(r.errors(), 0u) << r.text();
}

TEST(Verifier, RetWithoutCall)
{
    isa::ProgramBuilder b;
    b.li(1, 1);
    Addr bad = b.ret(); // no CALL anywhere on the path
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("ret-without-call");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Warn);
    EXPECT_EQ(f->pc, bad);
}

TEST(Verifier, MatchedCallRetIsClean)
{
    isa::ProgramBuilder b;
    isa::Label fn = b.newLabel();
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.addi(2, 2, 1);
    b.ret();
    analysis::Report r = analyze(b.build());
    EXPECT_EQ(r.first("ret-without-call"), nullptr) << r.text();
    EXPECT_TRUE(r.clean()) << r.text();
}

TEST(Verifier, RetAgainstWrongRegister)
{
    isa::ProgramBuilder b;
    isa::Label fn = b.newLabel();
    b.call(fn);
    b.halt();
    b.bind(fn);
    Addr bad = b.emit({isa::Opcode::RET, 0, 5, 0, 0, kNoAddr});
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("ret-linkreg");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Error);
    EXPECT_EQ(f->pc, bad);
}

TEST(Verifier, UnreachableCodeRange)
{
    isa::ProgramBuilder b;
    isa::Label end = b.newLabel();
    b.li(1, 1);
    b.jmp(end);
    Addr dead = b.addi(2, 2, 1); // skipped by the jump, no other entry
    b.addi(2, 2, 2);
    b.bind(end);
    b.halt();
    analysis::Report r = analyze(b.build());

    const analysis::Finding *f = r.first("unreachable-code");
    ASSERT_NE(f, nullptr) << r.text();
    EXPECT_EQ(f->severity, Severity::Warn); // no JR: reach is exact
    EXPECT_EQ(f->pc, dead);
    EXPECT_NE(f->message.find("2 instruction(s)"), std::string::npos);
}

TEST(Verifier, NoReachableHalt)
{
    isa::ProgramBuilder b;
    isa::Label loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    b.jmp(loop); // spins forever; HALT below is dead
    b.halt();
    analysis::Report r = analyze(b.build());
    EXPECT_NE(r.first("no-reachable-halt"), nullptr) << r.text();
}

TEST(Verifier, MemOpsAgainstZeroBase)
{
    isa::ProgramBuilder b;
    Addr mis = b.ld(1, 0, 12);           // r0 base, 12 % 8 != 0
    Addr oob = b.st(0, 1 << 21, 1);      // r0 base, beyond 1 MiB
    Addr odd = b.ld(2, 3, 9);            // unknown base, odd offset
    b.halt();
    analysis::Report r = analyze(b.build(), 1 << 20);

    const analysis::Finding *f1 = r.first("mem-unaligned");
    ASSERT_NE(f1, nullptr) << r.text();
    EXPECT_EQ(f1->severity, Severity::Error);
    EXPECT_EQ(f1->pc, mis);

    const analysis::Finding *f2 = r.first("mem-oob");
    ASSERT_NE(f2, nullptr) << r.text();
    EXPECT_EQ(f2->severity, Severity::Error);
    EXPECT_EQ(f2->pc, oob);

    const analysis::Finding *f3 = r.first("mem-odd-offset");
    ASSERT_NE(f3, nullptr) << r.text();
    EXPECT_EQ(f3->severity, Severity::Info);
    EXPECT_EQ(f3->pc, odd);
}

TEST(Verifier, ReportJsonRoundTrips)
{
    isa::ProgramBuilder b;
    b.emit({isa::Opcode::BEQ, 0, 1, 0, 0, Addr(0x20000)});
    b.halt();
    analysis::Report r = analyze(b.build());
    json::Writer w;
    r.json(w);
    const std::string &js = w.str();
    EXPECT_NE(js.find("\"code\":\"branch-target-oob\""),
              std::string::npos)
        << js;
    EXPECT_NE(js.find("\"severity\":\"error\""), std::string::npos);
    EXPECT_NE(js.find("\"pc\":\"0x1000\""), std::string::npos) << js;
}
