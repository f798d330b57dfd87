/**
 * @file
 * Every opcode over corner operands, through every path that executes
 * it: isa::evaluate(), FuncSim single steps, a FuncSim run that enters
 * the fused superblock, the timing core, and absint's transfer (the
 * concrete result must lie in the abstract value).
 *
 * The expected values are literals, not computed through the opcode
 * table (isa.hh), so this file is an independent reference for the
 * table's semantic column. An opcode with no expected values here fails
 * every test below.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "analysis/absint.hh"
#include "core/core.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"

namespace dmp::isa
{
namespace
{

constexpr Word kMin = Word(1) << 63; // INT64_MIN
constexpr Word kMax = kMin - 1;      // INT64_MAX
constexpr Word kAll = ~Word(0);      // -1

/** The corner grid: first operands, and second operands (s2 or imm). */
constexpr std::array<Word, 5> kS1 = {0, 1, kAll, kMin, kMax};
constexpr std::array<Word, 7> kS2 = {0, 1, kAll, kMin, kMax, 63, 64};

/**
 * Expected result of each ALU and conditional-branch row over
 * kS1 x kS2: rd's value for the ALU formats (a register-immediate row
 * takes the kS2 value as its immediate), 1 when taken for a branch.
 */
using Grid = std::array<std::array<Word, kS2.size()>, kS1.size()>;
const std::map<Opcode, Grid> kGrid = {
    {Opcode::ADD, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {1, 2, 0, 0x8000000000000001, kMin, 64, 65},
        {kAll, 0, 0xfffffffffffffffe, kMax, 0x7ffffffffffffffe, 62, 63},
        {kMin, 0x8000000000000001, kMax, 0,
         kAll, 0x800000000000003f, 0x8000000000000040},
        {kMax, kMin, 0x7ffffffffffffffe, kAll,
         0xfffffffffffffffe, 0x800000000000003e, 0x800000000000003f},
    }}},
    {Opcode::SUB, {{
        {0, kAll, 1, kMin,
         0x8000000000000001, 0xffffffffffffffc1, 0xffffffffffffffc0},
        {1, 0, 2, 0x8000000000000001,
         0x8000000000000002, 0xffffffffffffffc2, 0xffffffffffffffc1},
        {kAll, 0xfffffffffffffffe, 0, kMax,
         kMin, 0xffffffffffffffc0, 0xffffffffffffffbf},
        {kMin, kMax, 0x8000000000000001, 0,
         1, 0x7fffffffffffffc1, 0x7fffffffffffffc0},
        {kMax, 0x7ffffffffffffffe, kMin, kAll,
         0, 0x7fffffffffffffc0, 0x7fffffffffffffbf},
    }}},
    {Opcode::MUL, {{
        {0, 0, 0, 0, 0, 0, 0},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, kAll, 1, kMin,
         0x8000000000000001, 0xffffffffffffffc1, 0xffffffffffffffc0},
        {0, kMin, kMin, 0, kMin, kMin, 0},
        {0, kMax, 0x8000000000000001, kMin,
         1, 0x7fffffffffffffc1, 0xffffffffffffffc0},
    }}},
    {Opcode::DIVQ, {{
        {kAll, 0, 0, 0, 0, 0, 0},
        {kAll, 1, 0, 0, 0, 0, 0},
        {kAll, kAll, 1, 1, 2, 0x410410410410410, 0x3ffffffffffffff},
        {kAll, kMin, 0, 1, 1, 0x208208208208208, 0x200000000000000},
        {kAll, kMax, 0, 0, 1, 0x208208208208208, 0x1ffffffffffffff},
    }}},
    {Opcode::AND, {{
        {0, 0, 0, 0, 0, 0, 0},
        {0, 1, 1, 0, 1, 1, 0},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, 0, kMin, kMin, 0, 0, 0},
        {0, 1, kMax, 0, kMax, 63, 64},
    }}},
    {Opcode::OR, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {1, 1, kAll, 0x8000000000000001, kMax, 63, 65},
        {kAll, kAll, kAll, kAll, kAll, kAll, kAll},
        {kMin, 0x8000000000000001, kAll, kMin,
         kAll, 0x800000000000003f, 0x8000000000000040},
        {kMax, kMax, kAll, kAll, kMax, kMax, kMax},
    }}},
    {Opcode::XOR, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {1, 0, 0xfffffffffffffffe, 0x8000000000000001,
         0x7ffffffffffffffe, 62, 65},
        {kAll, 0xfffffffffffffffe, 0, kMax,
         kMin, 0xffffffffffffffc0, 0xffffffffffffffbf},
        {kMin, 0x8000000000000001, kMax, 0,
         kAll, 0x800000000000003f, 0x8000000000000040},
        {kMax, 0x7ffffffffffffffe, kMin, kAll,
         0, 0x7fffffffffffffc0, 0x7fffffffffffffbf},
    }}},
    {Opcode::SHL, {{
        {0, 0, 0, 0, 0, 0, 0},
        {1, 2, kMin, 1, kMin, kMin, 1},
        {kAll, 0xfffffffffffffffe, kMin, kAll, kMin, kMin, kAll},
        {kMin, 0, 0, kMin, 0, 0, kMin},
        {kMax, 0xfffffffffffffffe, kMin, kMax, kMin, kMin, kMax},
    }}},
    {Opcode::SHR, {{
        {0, 0, 0, 0, 0, 0, 0},
        {1, 0, 0, 1, 0, 0, 1},
        {kAll, kMax, 1, kAll, 1, 1, kAll},
        {kMin, 0x4000000000000000, 1, kMin, 1, 1, kMin},
        {kMax, 0x3fffffffffffffff, 0, kMax, 0, 0, kMax},
    }}},
    {Opcode::SRA, {{
        {0, 0, 0, 0, 0, 0, 0},
        {1, 0, 0, 1, 0, 0, 1},
        {kAll, kAll, kAll, kAll, kAll, kAll, kAll},
        {kMin, 0xc000000000000000, kAll, kMin, kAll, kAll, kMin},
        {kMax, 0x3fffffffffffffff, 0, kMax, 0, 0, kMax},
    }}},
    {Opcode::SLT, {{
        {0, 1, 0, 0, 1, 1, 1},
        {0, 0, 0, 0, 1, 1, 1},
        {1, 1, 0, 0, 1, 1, 1},
        {1, 1, 1, 0, 1, 1, 1},
        {0, 0, 0, 0, 0, 0, 0},
    }}},
    {Opcode::SLTU, {{
        {0, 1, 1, 1, 1, 1, 1},
        {0, 0, 1, 1, 1, 1, 1},
        {0, 0, 0, 0, 0, 0, 0},
        {0, 0, 1, 0, 0, 0, 0},
        {0, 0, 1, 1, 0, 0, 0},
    }}},
    {Opcode::SEQ, {{
        {1, 0, 0, 0, 0, 0, 0},
        {0, 1, 0, 0, 0, 0, 0},
        {0, 0, 1, 0, 0, 0, 0},
        {0, 0, 0, 1, 0, 0, 0},
        {0, 0, 0, 0, 1, 0, 0},
    }}},
    {Opcode::ADDI, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {1, 2, 0, 0x8000000000000001, kMin, 64, 65},
        {kAll, 0, 0xfffffffffffffffe, kMax, 0x7ffffffffffffffe, 62, 63},
        {kMin, 0x8000000000000001, kMax, 0,
         kAll, 0x800000000000003f, 0x8000000000000040},
        {kMax, kMin, 0x7ffffffffffffffe, kAll,
         0xfffffffffffffffe, 0x800000000000003e, 0x800000000000003f},
    }}},
    {Opcode::MULI, {{
        {0, 0, 0, 0, 0, 0, 0},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, kAll, 1, kMin,
         0x8000000000000001, 0xffffffffffffffc1, 0xffffffffffffffc0},
        {0, kMin, kMin, 0, kMin, kMin, 0},
        {0, kMax, 0x8000000000000001, kMin,
         1, 0x7fffffffffffffc1, 0xffffffffffffffc0},
    }}},
    {Opcode::ANDI, {{
        {0, 0, 0, 0, 0, 0, 0},
        {0, 1, 1, 0, 1, 1, 0},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, 0, kMin, kMin, 0, 0, 0},
        {0, 1, kMax, 0, kMax, 63, 64},
    }}},
    {Opcode::ORI, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {1, 1, kAll, 0x8000000000000001, kMax, 63, 65},
        {kAll, kAll, kAll, kAll, kAll, kAll, kAll},
        {kMin, 0x8000000000000001, kAll, kMin,
         kAll, 0x800000000000003f, 0x8000000000000040},
        {kMax, kMax, kAll, kAll, kMax, kMax, kMax},
    }}},
    {Opcode::XORI, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {1, 0, 0xfffffffffffffffe, 0x8000000000000001,
         0x7ffffffffffffffe, 62, 65},
        {kAll, 0xfffffffffffffffe, 0, kMax,
         kMin, 0xffffffffffffffc0, 0xffffffffffffffbf},
        {kMin, 0x8000000000000001, kMax, 0,
         kAll, 0x800000000000003f, 0x8000000000000040},
        {kMax, 0x7ffffffffffffffe, kMin, kAll,
         0, 0x7fffffffffffffc0, 0x7fffffffffffffbf},
    }}},
    {Opcode::SHLI, {{
        {0, 0, 0, 0, 0, 0, 0},
        {1, 2, kMin, 1, kMin, kMin, 1},
        {kAll, 0xfffffffffffffffe, kMin, kAll, kMin, kMin, kAll},
        {kMin, 0, 0, kMin, 0, 0, kMin},
        {kMax, 0xfffffffffffffffe, kMin, kMax, kMin, kMin, kMax},
    }}},
    {Opcode::SHRI, {{
        {0, 0, 0, 0, 0, 0, 0},
        {1, 0, 0, 1, 0, 0, 1},
        {kAll, kMax, 1, kAll, 1, 1, kAll},
        {kMin, 0x4000000000000000, 1, kMin, 1, 1, kMin},
        {kMax, 0x3fffffffffffffff, 0, kMax, 0, 0, kMax},
    }}},
    {Opcode::SLTI, {{
        {0, 1, 0, 0, 1, 1, 1},
        {0, 0, 0, 0, 1, 1, 1},
        {1, 1, 0, 0, 1, 1, 1},
        {1, 1, 1, 0, 1, 1, 1},
        {0, 0, 0, 0, 0, 0, 0},
    }}},
    {Opcode::SEQI, {{
        {1, 0, 0, 0, 0, 0, 0},
        {0, 1, 0, 0, 0, 0, 0},
        {0, 0, 1, 0, 0, 0, 0},
        {0, 0, 0, 1, 0, 0, 0},
        {0, 0, 0, 0, 1, 0, 0},
    }}},
    {Opcode::LI, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, 1, kAll, kMin, kMax, 63, 64},
    }}},
    {Opcode::FADD, {{
        {0, 1, kAll, kMin, kMax, 63, 64},
        {1, 2, 0, 0x8000000000000001, kMin, 64, 65},
        {kAll, 0, 0xfffffffffffffffe, kMax, 0x7ffffffffffffffe, 62, 63},
        {kMin, 0x8000000000000001, kMax, 0,
         kAll, 0x800000000000003f, 0x8000000000000040},
        {kMax, kMin, 0x7ffffffffffffffe, kAll,
         0xfffffffffffffffe, 0x800000000000003e, 0x800000000000003f},
    }}},
    {Opcode::FMUL, {{
        {0, 0, 0, 0, 0, 0, 0},
        {0, 1, kAll, kMin, kMax, 63, 64},
        {0, kAll, 1, kMin,
         0x8000000000000001, 0xffffffffffffffc1, 0xffffffffffffffc0},
        {0, kMin, kMin, 0, kMin, kMin, 0},
        {0, kMax, 0x8000000000000001, kMin,
         1, 0x7fffffffffffffc1, 0xffffffffffffffc0},
    }}},
    {Opcode::FDIV, {{
        {kAll, 0, 0, 0, 0, 0, 0},
        {kAll, 1, 0, 0, 0, 0, 0},
        {kAll, kAll, 1, 1, 2, 0x410410410410410, 0x3ffffffffffffff},
        {kAll, kMin, 0, 1, 1, 0x208208208208208, 0x200000000000000},
        {kAll, kMax, 0, 0, 1, 0x208208208208208, 0x1ffffffffffffff},
    }}},
    {Opcode::BEQ, {{
        {1, 0, 0, 0, 0, 0, 0},
        {0, 1, 0, 0, 0, 0, 0},
        {0, 0, 1, 0, 0, 0, 0},
        {0, 0, 0, 1, 0, 0, 0},
        {0, 0, 0, 0, 1, 0, 0},
    }}},
    {Opcode::BNE, {{
        {0, 1, 1, 1, 1, 1, 1},
        {1, 0, 1, 1, 1, 1, 1},
        {1, 1, 0, 1, 1, 1, 1},
        {1, 1, 1, 0, 1, 1, 1},
        {1, 1, 1, 1, 0, 1, 1},
    }}},
    {Opcode::BLT, {{
        {0, 1, 0, 0, 1, 1, 1},
        {0, 0, 0, 0, 1, 1, 1},
        {1, 1, 0, 0, 1, 1, 1},
        {1, 1, 1, 0, 1, 1, 1},
        {0, 0, 0, 0, 0, 0, 0},
    }}},
    {Opcode::BGE, {{
        {1, 0, 1, 1, 0, 0, 0},
        {1, 1, 1, 1, 0, 0, 0},
        {0, 0, 1, 1, 0, 0, 0},
        {0, 0, 0, 1, 0, 0, 0},
        {1, 1, 1, 1, 1, 1, 1},
    }}},
    {Opcode::BLTU, {{
        {0, 1, 1, 1, 1, 1, 1},
        {0, 0, 1, 1, 1, 1, 1},
        {0, 0, 0, 0, 0, 0, 0},
        {0, 0, 1, 0, 0, 0, 0},
        {0, 0, 1, 1, 0, 0, 0},
    }}},
    {Opcode::BGEU, {{
        {1, 0, 0, 0, 0, 0, 0},
        {1, 1, 0, 0, 0, 0, 0},
        {1, 1, 1, 1, 1, 1, 1},
        {1, 1, 0, 1, 1, 1, 1},
        {1, 1, 0, 0, 1, 1, 1},
    }}},
};

/** One case: operand values, the immediate, and the expected result. */
struct Case
{
    Word s1 = 0;
    Word s2 = 0;
    std::int64_t imm = 0;
    Word expect = 0;
};

/*
 * Every probe program has the same layout (see makeProbe): the op under
 * test at 0x1010, a filler at 0x1014 and the final HALT at 0x1018.
 */
constexpr Addr kBase = 0x1000;
constexpr std::size_t kOpIdx = 4;
constexpr Addr kOpPc = 0x1010;
constexpr Addr kEnd = 0x1018;

/**
 * Rows whose effect the format fixes. `expect` is the pc after the op
 * (NOP; HALT's final pc), the effective address (LD, ST; s2 is the
 * word loaded or stored), the jump target (JMP, JR, RET) or the link
 * value (CALL). The addresses cover a negative offset and both ways
 * of wrapping past 2^64.
 */
const std::vector<Case> kMemCases = {
    {0x2000, 0x1111, 0, 0x2000},
    {0x2000, kAll, 8, 0x2008},
    {0x2010, kMin, -16, 0x2000},
    {0xfffffffffffffff8, 0x2222, 0x2008, 0x2000},
    {0x8000000000002000, kMax, INT64_MIN, 0x2000},
};
const std::map<Opcode, std::vector<Case>> kDirected = {
    {Opcode::NOP, {{0, 0, 0, 0x1014}}},
    {Opcode::HALT, {{0, 0, 0, 0x1014}}},
    {Opcode::LD, kMemCases},
    {Opcode::ST, kMemCases},
    {Opcode::JMP, {{0, 0, 0, 0x1018}}},
    {Opcode::JR, {{0x1018, 0, 0, 0x1018}}},
    {Opcode::CALL, {{0, 0, 0, 0x1014}}},
    {Opcode::RET, {{0x1018, 0, 0, 0x1018}}},
};

/** The cases of `op`, or none when this file has no values for it. */
std::vector<Case>
casesOf(Opcode op)
{
    std::vector<Case> out;
    if (auto it = kGrid.find(op); it != kGrid.end()) {
        for (std::size_t i = 0; i < kS1.size(); ++i)
            for (std::size_t j = 0; j < kS2.size(); ++j)
                out.push_back({kS1[i], kS2[j], SWord(kS2[j]),
                               it->second[i][j]});
    }
    if (auto it = kDirected.find(op); it != kDirected.end())
        out.insert(out.end(), it->second.begin(), it->second.end());
    return out;
}

/** Run `fn` on every case of every opcode; an opcode without cases
 *  fails. */
void
forEachCase(const std::function<void(Opcode, const Case &)> &fn)
{
    for (unsigned i = 0; i < unsigned(Opcode::NUM_OPCODES); ++i) {
        const Opcode op = Opcode(i);
        const std::vector<Case> cases = casesOf(op);
        EXPECT_FALSE(cases.empty())
            << opcodeName(op) << " has no expected values";
        for (const Case &c : cases) {
            SCOPED_TRACE(::testing::Message()
                         << opcodeName(op) << std::hex << " s1=0x" << c.s1
                         << " s2=0x" << c.s2 << " imm=0x" << Word(c.imm));
            fn(op, c);
        }
    }
}

/** A probe program and the register value it must end with. */
struct Probe
{
    Program prog;
    ArchReg reg = 3;           ///< register observed at the end
    Word value = 1;            ///< its expected value
    std::size_t haltIdx = 6;   ///< the HALT execution stops at
};

/**
 * nop; li r1, s1; li r2, s2; li r3, 1 — four simple ops, so FuncSim
 * enters them as one superblock (its fusion threshold is 4 ops) and an
 * ALU op under test extends it — then the op, a filler that a taken
 * transfer skips, and HALT. RET's operand goes to the link register.
 */
Probe
makeProbe(Opcode op, const Case &c)
{
    ProgramBuilder b(kBase);
    Label end = b.newLabel();
    b.nop();
    b.li(op == Opcode::RET ? kLinkReg : 1, SWord(c.s1));
    b.li(2, SWord(c.s2));
    b.li(3, 1);
    Probe p;
    switch (opFormat(op)) {
      case OpFormat::RegReg:
        b.emit({op, 3, 1, 2, 0, kNoAddr});
        b.nop();
        p.value = c.expect;
        break;
      case OpFormat::RegImm:
      case OpFormat::Li:
        b.emit({op, 3, 1, 0, c.imm, kNoAddr});
        b.nop();
        p.value = c.expect;
        break;
      case OpFormat::CondBranch:
        b.emitBranch(op, 1, 2, end);
        b.li(3, 0);
        p.value = c.expect;
        break;
      case OpFormat::Load:
        b.emit({op, 3, 1, 0, c.imm, kNoAddr});
        b.emit({op, kZeroReg, 1, 0, c.imm, kNoAddr}); // dead write
        b.dataWord(c.expect, c.s2);
        p.value = c.s2;
        break;
      case OpFormat::Store:
        b.emit({op, 0, 1, 2, c.imm, kNoAddr});
        b.ld(3, kZeroReg, SWord(c.expect));
        p.value = c.s2;
        break;
      case OpFormat::Jump:
        b.emitJump(op, end);
        b.li(3, 0);
        break;
      case OpFormat::Call:
        b.call(end);
        b.li(3, 0);
        p.reg = kLinkReg;
        p.value = c.expect;
        break;
      case OpFormat::Jr:
        b.jr(1);
        b.li(3, 0);
        break;
      case OpFormat::Ret:
        b.ret();
        b.li(3, 0);
        break;
      case OpFormat::None:
        b.emit({op, 0, 0, 0, 0, kNoAddr});
        b.li(3, 0);
        if (op == Opcode::HALT) {
            p.haltIdx = kOpIdx;
        } else {
            p.value = 0; // NOP falls through to the filler
        }
        break;
    }
    b.bind(end);
    b.halt();
    p.prog = b.build();
    return p;
}

TEST(OpcodeCorners, EveryRowHasExpectedValues)
{
    for (unsigned i = 0; i < unsigned(Opcode::NUM_OPCODES); ++i) {
        const Opcode op = Opcode(i);
        const OpFormat f = opFormat(op);
        const bool grid = isAluFormat(f) || f == OpFormat::CondBranch;
        EXPECT_EQ(kGrid.count(op), grid ? 1u : 0u) << opcodeName(op);
        EXPECT_EQ(kDirected.count(op), grid ? 0u : 1u) << opcodeName(op);
    }
    EXPECT_EQ(kGrid.size() + kDirected.size(),
              std::size_t(Opcode::NUM_OPCODES));
}

TEST(OpcodeCorners, Evaluate)
{
    forEachCase([](Opcode op, const Case &c) {
        const Probe p = makeProbe(op, c);
        const ExecResult r = evaluate(p.prog.instAt(kOpIdx), kOpPc, c.s1,
                                      c.s2);
        switch (opFormat(op)) {
          case OpFormat::RegReg:
          case OpFormat::RegImm:
          case OpFormat::Li:
            EXPECT_EQ(r.value, c.expect);
            break;
          case OpFormat::CondBranch:
            EXPECT_EQ(r.taken, c.expect != 0);
            EXPECT_EQ(r.target, kEnd);
            break;
          case OpFormat::Load:
            EXPECT_EQ(r.memAddr, c.expect);
            break;
          case OpFormat::Store:
            EXPECT_EQ(r.memAddr, c.expect);
            EXPECT_EQ(r.value, c.s2);
            break;
          case OpFormat::Jump:
          case OpFormat::Jr:
          case OpFormat::Ret:
            EXPECT_TRUE(r.taken);
            EXPECT_EQ(r.target, c.expect);
            break;
          case OpFormat::Call:
            EXPECT_TRUE(r.taken);
            EXPECT_EQ(r.target, kEnd);
            EXPECT_EQ(r.value, c.expect);
            break;
          case OpFormat::None:
            EXPECT_FALSE(r.taken);
            EXPECT_EQ(r.value, 0u);
            EXPECT_EQ(r.target, kNoAddr);
            break;
        }
    });
}

TEST(OpcodeCorners, FuncSimStep)
{
    forEachCase([](Opcode op, const Case &c) {
        const Probe p = makeProbe(op, c);
        MemoryImage mem(1 << 20);
        FuncSim sim(p.prog, mem);
        for (std::size_t i = 0; i < kOpIdx; ++i)
            sim.step();
        const StepInfo info = sim.step();
        ASSERT_EQ(info.pc, kOpPc);
        // The op's own observable, right after its step.
        Word seen = 0;
        switch (opFormat(op)) {
          case OpFormat::RegReg:
          case OpFormat::RegImm:
          case OpFormat::Li:
            seen = sim.state().read(3);
            break;
          case OpFormat::CondBranch:
            EXPECT_TRUE(info.isCondBranch);
            seen = info.taken;
            break;
          case OpFormat::Load:
          case OpFormat::Store:
            seen = info.memAddr;
            break;
          case OpFormat::Call:
            seen = sim.state().read(kLinkReg);
            break;
          case OpFormat::Jump:
          case OpFormat::Jr:
          case OpFormat::Ret:
          case OpFormat::None:
            seen = op == Opcode::HALT ? sim.state().pc : info.nextPc;
            break;
        }
        EXPECT_EQ(seen, c.expect);
        for (int i = 0; i < 8 && !sim.halted(); ++i)
            sim.step();
        ASSERT_TRUE(sim.halted());
        EXPECT_EQ(sim.state().read(p.reg), p.value);
    });
}

TEST(OpcodeCorners, FuncSimSuperblock)
{
    forEachCase([](Opcode op, const Case &c) {
        const Probe p = makeProbe(op, c);
        MemoryImage mem(1 << 20);
        FuncSim sim(p.prog, mem);
        sim.run(100);
        ASSERT_TRUE(sim.halted());
        EXPECT_EQ(sim.state().read(p.reg), p.value);
        EXPECT_EQ(sim.state().pc,
                  kBase + (p.haltIdx + 1) * kInstBytes);
    });
}

TEST(OpcodeCorners, TimingCore)
{
    forEachCase([](Opcode op, const Case &c) {
        const Probe p = makeProbe(op, c);
        core::CoreParams params = sim::machine("base");
        params.memoryBytes = 1 << 20;
        core::Core machine(p.prog, params);
        machine.run();
        ASSERT_TRUE(machine.halted());
        EXPECT_EQ(machine.retiredState().read(p.reg), p.value);
    });
}

TEST(OpcodeCorners, AbsintContainsResult)
{
    forEachCase([](Opcode op, const Case &c) {
        const Probe p = makeProbe(op, c);
        const analysis::AbsintResult r = analysis::runAbsint(p.prog);
        ASSERT_TRUE(r.ran);
        const analysis::AbsVal v = r.regBefore(p.haltIdx, p.reg);
        EXPECT_TRUE(v.contains(p.value))
            << "[" << SWord(v.smin) << ", " << SWord(v.smax) << "]";
    });
}

} // namespace
} // namespace dmp::isa
