/**
 * @file
 * The simulated instruction set.
 *
 * A from-scratch 64-bit load/store RISC ISA standing in for the Alpha ISA
 * the paper compiles SPEC to. Dynamic predication only cares about
 * conditional branches, register dataflow, and memory instructions; all
 * are present here. Each instruction occupies four bytes of the simulated
 * address space.
 *
 * Register convention: 64 architectural integer registers. r0 reads as
 * zero and ignores writes. r63 is the link register written by CALL and
 * read by RET. "Floating-point" opcodes (FADD/FMUL/FDIV) operate on the
 * same register file with longer execution latency: the paper's FP
 * benchmarks need FP-class latency behaviour, not IEEE semantics.
 */

#ifndef DMP_ISA_ISA_HH
#define DMP_ISA_ISA_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace dmp::isa
{

/** Bytes per instruction in the simulated address space. */
constexpr Addr kInstBytes = 4;

/** Number of architectural integer registers. */
constexpr unsigned kNumArchRegs = 64;

/** r0 is hardwired to zero. */
constexpr ArchReg kZeroReg = 0;

/** r63 holds return addresses (written by CALL, consumed by RET). */
constexpr ArchReg kLinkReg = 63;

/**
 * The opcode table: one row per opcode, in Opcode order.
 *
 *     X(NAME, "mnemonic", OpFormat, ExecClass, semantics)
 *
 * `semantics` is one expression over the operand values `Word s1`,
 * `Word s2` and `std::int64_t imm`: the value written to rd for the
 * ALU formats (RegReg, RegImm, Li), the taken condition for a
 * CondBranch, and 0 for the rows whose effect the format alone fixes
 * (NOP, HALT, memory, jumps). The Opcode enum, the mnemonics, the
 * operand formats and latency classes, evaluate(), FuncSim's handlers
 * and fused-run switch, disassemble() and the assembler are all
 * expanded from this table at compile time.
 *
 * Adding an opcode: add its row (keeping each class a contiguous range;
 * a static_assert below checks the range tests), then its abstract
 * transfer in absint's Engine::applyTransfer, whose switch has no
 * default so -Wswitch names the missing case; and its expected values
 * in tests/isa/test_opcode_corners.cpp, which fails without them.
 */
#define DMP_OPCODE_TABLE(X)                                             \
    X(NOP,  "nop",  None,       NONE,   0)                              \
    X(HALT, "halt", None,       NONE,   0)                              \
    X(ADD,  "add",  RegReg,     ALU,    s1 + s2)                        \
    X(SUB,  "sub",  RegReg,     ALU,    s1 - s2)                        \
    X(MUL,  "mul",  RegReg,     MUL,    s1 * s2)                        \
    X(DIVQ, "divq", RegReg,     DIV,    s2 ? s1 / s2 : ~Word(0))        \
    X(AND,  "and",  RegReg,     ALU,    s1 & s2)                        \
    X(OR,   "or",   RegReg,     ALU,    s1 | s2)                        \
    X(XOR,  "xor",  RegReg,     ALU,    s1 ^ s2)                        \
    X(SHL,  "shl",  RegReg,     ALU,    s1 << (s2 & 63))                \
    X(SHR,  "shr",  RegReg,     ALU,    s1 >> (s2 & 63))                \
    X(SRA,  "sra",  RegReg,     ALU,    Word(SWord(s1) >> (s2 & 63)))   \
    X(SLT,  "slt",  RegReg,     ALU,    SWord(s1) < SWord(s2))          \
    X(SLTU, "sltu", RegReg,     ALU,    s1 < s2)                        \
    X(SEQ,  "seq",  RegReg,     ALU,    s1 == s2)                       \
    X(ADDI, "addi", RegImm,     ALU,    s1 + Word(imm))                 \
    X(MULI, "muli", RegImm,     MUL,    s1 * Word(imm))                 \
    X(ANDI, "andi", RegImm,     ALU,    s1 & Word(imm))                 \
    X(ORI,  "ori",  RegImm,     ALU,    s1 | Word(imm))                 \
    X(XORI, "xori", RegImm,     ALU,    s1 ^ Word(imm))                 \
    X(SHLI, "shli", RegImm,     ALU,    s1 << (imm & 63))               \
    X(SHRI, "shri", RegImm,     ALU,    s1 >> (imm & 63))               \
    X(SLTI, "slti", RegImm,     ALU,    SWord(s1) < imm)                \
    X(SEQI, "seqi", RegImm,     ALU,    s1 == Word(imm))                \
    X(LI,   "li",   Li,         ALU,    Word(imm))                      \
    /* "Floating point": integer semantics, FP latency class. */        \
    X(FADD, "fadd", RegReg,     FP,     s1 + s2)                        \
    X(FMUL, "fmul", RegReg,     FP,     s1 * s2)                        \
    X(FDIV, "fdiv", RegReg,     FP,     s2 ? s1 / s2 : ~Word(0))        \
    X(LD,   "ld",   Load,       MEM,    0)                              \
    X(ST,   "st",   Store,      MEM,    0)                              \
    X(BEQ,  "beq",  CondBranch, BRANCH, s1 == s2)                       \
    X(BNE,  "bne",  CondBranch, BRANCH, s1 != s2)                       \
    X(BLT,  "blt",  CondBranch, BRANCH, SWord(s1) < SWord(s2))          \
    X(BGE,  "bge",  CondBranch, BRANCH, SWord(s1) >= SWord(s2))         \
    X(BLTU, "bltu", CondBranch, BRANCH, s1 < s2)                        \
    X(BGEU, "bgeu", CondBranch, BRANCH, s1 >= s2)                       \
    X(JMP,  "jmp",  Jump,       BRANCH, 0)                              \
    X(JR,   "jr",   Jr,         BRANCH, 0)                              \
    X(CALL, "call", Call,       BRANCH, 0)                              \
    X(RET,  "ret",  Ret,        BRANCH, 0)

/** Every opcode in the ISA, in table order. */
enum class Opcode : std::uint8_t
{
#define DMP_OPCODE_ENUM(name, mnem, fmt, cls, sem) name,
    DMP_OPCODE_TABLE(DMP_OPCODE_ENUM)
#undef DMP_OPCODE_ENUM
    NUM_OPCODES
};

/** Operand format: which fields of an Inst an opcode uses, and how. */
enum class OpFormat : std::uint8_t
{
    None,       ///< no operands (NOP, HALT)
    RegReg,     ///< rd <- rs1 op rs2
    RegImm,     ///< rd <- rs1 op imm
    Li,         ///< rd <- imm
    Load,       ///< rd <- mem[rs1 + imm]
    Store,      ///< mem[rs1 + imm] <- rs2
    CondBranch, ///< if (rs1 cmp rs2) pc <- target
    Jump,       ///< pc <- target
    Call,       ///< r63 <- pc + 4; pc <- target
    Jr,         ///< pc <- rs1
    Ret         ///< pc <- r63 (held in rs1)
};

/** Execution-latency class, mapped to functional units by the core. */
enum class ExecClass : std::uint8_t
{
    ALU,       ///< 1-cycle integer op
    MUL,       ///< pipelined multiply
    DIV,       ///< unpipelined divide
    FP,        ///< long-latency arithmetic
    MEM,       ///< load/store (address generation + cache access)
    BRANCH,    ///< control transfer
    NONE       ///< NOP/HALT
};

/**
 * One decoded instruction. This is the storage format: programs are
 * vectors of Inst. The opcode's OpFormat says which fields it uses.
 */
struct Inst
{
    Opcode op = Opcode::NOP;
    ArchReg rd = 0;
    ArchReg rs1 = 0;
    ArchReg rs2 = 0;
    std::int64_t imm = 0;
    Addr target = kNoAddr;
};

// The per-instruction classification helpers below run tens of millions
// of times per simulated second (fetch, rename, issue, functional
// re-execution). They are defined inline so every translation unit can
// fold them down to a couple of compare instructions; the opcode enum is
// laid out so each class is one contiguous range.

/** True for the six conditional-branch opcodes. */
constexpr bool
isCondBranch(Opcode op) noexcept
{
    return op >= Opcode::BEQ && op <= Opcode::BGEU;
}

/** True for direct unconditional transfers (JMP/CALL). */
constexpr bool
isDirectJump(Opcode op) noexcept
{
    return op == Opcode::JMP || op == Opcode::CALL;
}

/** True for indirect transfers (JR/RET). */
constexpr bool
isIndirect(Opcode op) noexcept
{
    return op == Opcode::JR || op == Opcode::RET;
}

/** True for any instruction that can redirect the PC. */
constexpr bool
isControl(Opcode op) noexcept
{
    return op >= Opcode::BEQ && op <= Opcode::RET;
}

constexpr bool
isCall(Opcode op) noexcept
{
    return op == Opcode::CALL;
}

constexpr bool
isReturn(Opcode op) noexcept
{
    return op == Opcode::RET;
}

constexpr bool
isLoad(Opcode op) noexcept
{
    return op == Opcode::LD;
}

constexpr bool
isStore(Opcode op) noexcept
{
    return op == Opcode::ST;
}

/**
 * `fact(f)` for op's operand format f, expanded as a switch over the
 * opcodes: with a constant-folding `fact` the compiler reduces it to a
 * bit test or range compare on the opcode, with no table load.
 */
template <class Fact>
constexpr auto
byFormat(Opcode op, Fact fact) noexcept
{
    switch (op) {
#define DMP_OPCODE_BY_FORMAT(name, mnem, fmt, cls, sem)                 \
      case Opcode::name: return fact(OpFormat::fmt);
      DMP_OPCODE_TABLE(DMP_OPCODE_BY_FORMAT)
#undef DMP_OPCODE_BY_FORMAT
      default: return fact(OpFormat::None);
    }
}

/** The opcode's operand format. */
constexpr OpFormat
opFormat(Opcode op) noexcept
{
    return byFormat(op, [](OpFormat f) { return f; });
}

/** The latency class the core schedules this opcode on. */
constexpr ExecClass
execClass(Opcode op) noexcept
{
    switch (op) {
#define DMP_OPCODE_CLASS(name, mnem, fmt, cls, sem)                     \
      case Opcode::name: return ExecClass::cls;
      DMP_OPCODE_TABLE(DMP_OPCODE_CLASS)
#undef DMP_OPCODE_CLASS
      default: return ExecClass::NONE;
    }
}

/** True for the formats whose table expression is an rd value. */
constexpr bool
isAluFormat(OpFormat f) noexcept
{
    return f == OpFormat::RegReg || f == OpFormat::RegImm ||
           f == OpFormat::Li;
}

/** isCondBranch() and isControl() agree with the table's rows. */
constexpr bool
rangeTestsMatchTable() noexcept
{
    for (unsigned i = 0; i < unsigned(Opcode::NUM_OPCODES); ++i) {
        const Opcode op = Opcode(i);
        if (isCondBranch(op) != (opFormat(op) == OpFormat::CondBranch) ||
            isControl(op) != (execClass(op) == ExecClass::BRANCH))
            return false;
    }
    return true;
}
static_assert(rangeTestsMatchTable(),
              "opcode table rows out of class order");

/** True when the instruction architecturally writes rd. */
constexpr bool
writesDest(const Inst &inst) noexcept
{
    return byFormat(inst.op, [&](OpFormat f) {
        return isAluFormat(f) || f == OpFormat::Load
                   ? inst.rd != kZeroReg
                   : f == OpFormat::Call; // link register
    });
}

/** True when rs1 (resp. rs2) is an architectural source. RET reads
 *  rs1 implicitly (the link register). */
constexpr bool
readsSrc1(const Inst &inst) noexcept
{
    return byFormat(inst.op, [](OpFormat f) {
        return f != OpFormat::None && f != OpFormat::Li &&
               f != OpFormat::Jump && f != OpFormat::Call;
    });
}

constexpr bool
readsSrc2(const Inst &inst) noexcept
{
    return byFormat(inst.op, [](OpFormat f) {
        return f == OpFormat::RegReg || f == OpFormat::Store ||
               f == OpFormat::CondBranch;
    });
}

/** @name Pre-decoded instruction flags
 *  One bit per classification the pipeline asks about every cycle. A
 *  PreDecode record is computed once per static instruction when a
 *  Program is linked; fetch, rename, and the functional simulators read
 *  the cached bits instead of re-running the opcode switches.
 */
/// @{
constexpr std::uint16_t kDecCondBranch = 1u << 0;
constexpr std::uint16_t kDecControl = 1u << 1;
constexpr std::uint16_t kDecDirectJump = 1u << 2;
constexpr std::uint16_t kDecIndirect = 1u << 3;
constexpr std::uint16_t kDecCall = 1u << 4;
constexpr std::uint16_t kDecReturn = 1u << 5;
constexpr std::uint16_t kDecLoad = 1u << 6;
constexpr std::uint16_t kDecStore = 1u << 7;
constexpr std::uint16_t kDecWritesDest = 1u << 8;
constexpr std::uint16_t kDecReadsSrc1 = 1u << 9;
constexpr std::uint16_t kDecReadsSrc2 = 1u << 10;
/// @}

/** Cached per-static-instruction decode work (flags + latency class). */
struct PreDecode
{
    std::uint16_t flags = 0;
    ExecClass cls = ExecClass::NONE;

    constexpr bool condBranch() const noexcept
    { return flags & kDecCondBranch; }
    constexpr bool control() const noexcept { return flags & kDecControl; }
    constexpr bool load() const noexcept { return flags & kDecLoad; }
    constexpr bool store() const noexcept { return flags & kDecStore; }
};

/** Decode one instruction into its cached classification record. */
constexpr PreDecode
preDecode(const Inst &inst) noexcept
{
    PreDecode d;
    const Opcode op = inst.op;
    d.flags = (isCondBranch(op) ? kDecCondBranch : 0) |
              (isControl(op) ? kDecControl : 0) |
              (isDirectJump(op) ? kDecDirectJump : 0) |
              (isIndirect(op) ? kDecIndirect : 0) |
              (isCall(op) ? kDecCall : 0) |
              (isReturn(op) ? kDecReturn : 0) |
              (isLoad(op) ? kDecLoad : 0) |
              (isStore(op) ? kDecStore : 0) |
              (writesDest(inst) ? kDecWritesDest : 0) |
              (readsSrc1(inst) ? kDecReadsSrc1 : 0) |
              (readsSrc2(inst) ? kDecReadsSrc2 : 0);
    d.cls = execClass(op);
    return d;
}

/** Mnemonic for diagnostics and the assembler. */
const char *opcodeName(Opcode op);

/** Disassemble one instruction at pc. */
std::string disassemble(const Inst &inst, Addr pc);

/**
 * Pure dataflow result of executing one instruction.
 *
 * The timing core and the functional simulator share this single
 * definition of ISA semantics so they cannot drift apart.
 */
struct ExecResult
{
    Word value = 0;        ///< rd result (or store data passthrough)
    bool taken = false;    ///< conditional-branch outcome
    Addr target = kNoAddr; ///< control-transfer destination
    Addr memAddr = 0;      ///< effective address for LD/ST
};

/** Effective address of a load or store: rs1 + imm, wrapping. */
constexpr Addr
memAddress(Word base, std::int64_t imm) noexcept
{
    return base + Word(imm);
}

/** evaluate()'s per-format half: place `sem` (the table expression)
 *  and the format's fixed effects into `r`. */
template <OpFormat F>
constexpr void
applyFormat(ExecResult &r, const Inst &inst, Addr pc, Word s1, Word s2,
            Word sem) noexcept
{
    if constexpr (isAluFormat(F)) {
        r.value = sem;
    } else if constexpr (F == OpFormat::Load || F == OpFormat::Store) {
        r.memAddr = memAddress(s1, inst.imm);
        if constexpr (F == OpFormat::Store)
            r.value = s2; // store data passthrough
    } else if constexpr (F == OpFormat::CondBranch) {
        r.taken = sem != 0;
        r.target = inst.target;
    } else if constexpr (F != OpFormat::None) {
        r.taken = true;
        r.target = F == OpFormat::Jr || F == OpFormat::Ret ? s1
                                                           : inst.target;
        if constexpr (F == OpFormat::Call)
            r.value = pc + kInstBytes; // link value
    }
}

/**
 * Evaluate an instruction's dataflow function.
 *
 * Defined inline: the timing core, the functional simulator, and the
 * oracle tracker all call this once per simulated instruction.
 *
 * @param inst the instruction
 * @param pc its address (for CALL link values and fallthrough math)
 * @param s1 value of rs1
 * @param s2 value of rs2
 * @return computed result; loads leave value to be filled from memory.
 */
inline ExecResult
evaluate(const Inst &inst, Addr pc, Word s1, Word s2)
{
    ExecResult r;
    [[maybe_unused]] const std::int64_t imm = inst.imm;
    switch (inst.op) {
#define DMP_OPCODE_EVALUATE(name, mnem, fmt, cls, sem)                  \
      case Opcode::name:                                                \
        applyFormat<OpFormat::fmt>(r, inst, pc, s1, s2, Word(sem));     \
        return r;
      DMP_OPCODE_TABLE(DMP_OPCODE_EVALUATE)
#undef DMP_OPCODE_EVALUATE
      default:
        break;
    }
    dmp_panic("evaluate: bad opcode ", int(inst.op));
}

} // namespace dmp::isa

#endif // DMP_ISA_ISA_HH
