/**
 * @file
 * Program image: instructions, initial data, and compiler markings.
 *
 * A Program is what the "compiler" side of the paper produces: the
 * instruction stream plus per-branch diverge/CFM annotations conveyed to
 * the microarchitecture "through modifications in the ISA" (paper
 * section 2.2). The profiler writes the markings; the core reads them.
 */

#ifndef DMP_ISA_PROGRAM_HH
#define DMP_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace dmp::isa
{

/**
 * Compiler marking attached to one static conditional branch.
 *
 * A branch can be marked as a diverge branch (DMP), as a simple hammock
 * (DHP baseline), or both. CFM points are ordered most-frequent first;
 * the basic DMP machine uses only the first entry, the enhanced machine
 * loads all of them into its CFM CAM (section 2.7.1).
 */
struct DivergeMark
{
    bool isDiverge = false;
    bool isSimpleHammock = false;
    /** Backward (loop) diverge branch, for the section 2.7.4 extension. */
    bool isLoopBranch = false;
    std::vector<Addr> cfmPoints;
    /**
     * Compiler-selected early-exit threshold N: maximum alternate-path
     * instructions to fetch before giving up on reconvergence
     * (section 2.7.2). Zero means "use the machine's static default".
     */
    std::uint32_t earlyExitThreshold = 0;
};

/** One run of consecutive initial data words, the first at `base`. */
struct DataSegment
{
    Addr base = 0;
    std::vector<Word> words;

    /** One past the last byte address of the run. */
    Addr end() const noexcept { return base + words.size() * sizeof(Word); }
};

/** An immutable, fully linked program image. */
class Program
{
  public:
    Program() = default;

    // The O(1) mark index stores pointers into this program's own marks
    // map, so copies must re-point it at their own map (map nodes are
    // stable under insert, which is why the index survives setMark).
    Program(const Program &o);
    Program &operator=(const Program &o);
    Program(Program &&) noexcept = default;
    Program &operator=(Program &&) noexcept = default;

    /** log2(kInstBytes): pc-to-index conversions compile to a shift. */
    static constexpr unsigned kInstShift = 2;
    static_assert((Addr(1) << kInstShift) == kInstBytes);

    /** First instruction address. */
    Addr baseAddr() const noexcept { return base; }

    /** One past the last instruction address. */
    Addr endAddr() const noexcept
    {
        return base + insts.size() * kInstBytes;
    }

    /** Number of static instructions. */
    std::size_t size() const noexcept { return insts.size(); }

    /** True when pc addresses an instruction of this program. */
    bool contains(Addr pc) const noexcept
    {
        // Unsigned wrap makes the single compare also reject pc < base.
        return pc - base < insts.size() * kInstBytes &&
               (pc & (kInstBytes - 1)) == 0;
    }

    /** Static-instruction index of pc; caller guarantees contains(pc). */
    std::size_t indexOf(Addr pc) const noexcept
    {
        return (pc - base) >> kInstShift;
    }

    /** The instruction at pc; fatal when pc is outside the image. */
    const Inst &fetch(Addr pc) const
    {
        if (!contains(pc)) [[unlikely]]
            fetchFault(pc);
        return insts[indexOf(pc)];
    }

    /** Cached decode record for the instruction at pc (see isa.hh). */
    const PreDecode &preDecoded(Addr pc) const
    {
        if (!contains(pc)) [[unlikely]]
            fetchFault(pc);
        return preDec[indexOf(pc)];
    }

    /** Cached decode record by static-instruction index (no checks). */
    const PreDecode &preDecodedAt(std::size_t idx) const noexcept
    {
        return preDec[idx];
    }

    /** Instruction by static-instruction index (no checks). */
    const Inst &instAt(std::size_t idx) const noexcept
    {
        return insts[idx];
    }

    /**
     * Initial data image: maximal runs of consecutive words, ascending
     * by address, with at least one unwritten word between two runs.
     * When the builder wrote one address more than once, the last
     * write is the one kept.
     */
    const std::vector<DataSegment> &dataSegments() const { return data; }

    /** Address of a label; fatal when unknown. */
    Addr labelAddr(const std::string &name) const;

    /** All label names (for diagnostics and the disassembler). */
    const std::unordered_map<std::string, Addr> &labels() const
    {
        return labelMap;
    }

    /** @name Compiler markings (mutated by the profiler/marker). */
    /// @{
    void setMark(Addr pc, DivergeMark mark);

    /**
     * Replace every marking with `marks_`. Only the image bounds are
     * asserted: marks copied from another build may sit on a
     * non-branch here, which the linter reports (`mark-not-branch`).
     */
    void setMarks(std::map<Addr, DivergeMark> marks_);

    /**
     * The marking on the branch at pc, or nullptr. O(1): indexes the
     * per-static-instruction pointer table rather than searching the map
     * (fetch asks this question for every conditional branch).
     */
    const DivergeMark *mark(Addr pc) const noexcept
    {
        const std::size_t idx = (pc - base) >> kInstShift;
        return idx < markIndex.size() ? markIndex[idx] : nullptr;
    }

    const std::map<Addr, DivergeMark> &allMarks() const { return marks; }

    void clearMarks()
    {
        marks.clear();
        markIndex.assign(insts.size(), nullptr);
    }
    /// @}

    /** Full-program disassembly listing. */
    std::string listing() const;

  private:
    friend class ProgramBuilder;
    /** Only ProgramBuilder::build() links a program; it hands over
     *  data already cut into runs as dataSegments() promises. */
    Program(Addr base, std::vector<Inst> insts_,
            std::vector<DataSegment> data_,
            std::unordered_map<std::string, Addr> labels_);

    [[noreturn]] void fetchFault(Addr pc) const;
    void rebuildMarkIndex();

    Addr base = 0x1000;
    std::vector<Inst> insts;
    /** Parallel to insts: classification cached at link time. */
    std::vector<PreDecode> preDec;
    /** Parallel to insts: marks-map node for each pc (or nullptr). */
    std::vector<const DivergeMark *> markIndex;
    std::vector<DataSegment> data;
    std::unordered_map<std::string, Addr> labelMap;
    std::map<Addr, DivergeMark> marks;
};

/** A forward reference to a not-yet-bound code location. */
class Label
{
  public:
    Label() = default;

  private:
    friend class ProgramBuilder;
    explicit Label(std::size_t id_) : id(id_), valid(true) {}
    std::size_t id = 0;
    bool valid = false;
};

/**
 * Incremental program constructor with label fixup.
 *
 * Workloads and tests build programs through this API; the text
 * assembler lowers onto it as well. All emit methods return the address
 * of the emitted instruction.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(Addr base_ = 0x1000) : base(base_) {}

    /** Create an unbound label. */
    Label newLabel();

    /** Bind a label to the next emitted instruction's address. */
    void bind(Label l);

    /** Bind a named label (also retrievable from the built Program). */
    void bindNamed(const std::string &name, Label l);

    /** Address the next emitted instruction will occupy. */
    Addr here() const { return base + insts.size() * kInstBytes; }

    /** @name Raw emission */
    /// @{
    Addr emit(Inst inst);
    Addr emitBranch(Opcode op, ArchReg rs1, ArchReg rs2, Label target);
    Addr emitJump(Opcode op, Label target);
    /// @}

    /** @name Mnemonic helpers */
    /// @{
    Addr nop() { return emit({Opcode::NOP, 0, 0, 0, 0, kNoAddr}); }
    Addr halt() { return emit({Opcode::HALT, 0, 0, 0, 0, kNoAddr}); }

    Addr add(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::ADD, rd, rs1, rs2, 0, kNoAddr}); }
    Addr sub(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::SUB, rd, rs1, rs2, 0, kNoAddr}); }
    Addr mul(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::MUL, rd, rs1, rs2, 0, kNoAddr}); }
    Addr divq(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::DIVQ, rd, rs1, rs2, 0, kNoAddr}); }
    Addr and_(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::AND, rd, rs1, rs2, 0, kNoAddr}); }
    Addr or_(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::OR, rd, rs1, rs2, 0, kNoAddr}); }
    Addr xor_(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::XOR, rd, rs1, rs2, 0, kNoAddr}); }
    Addr shl(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::SHL, rd, rs1, rs2, 0, kNoAddr}); }
    Addr shr(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::SHR, rd, rs1, rs2, 0, kNoAddr}); }
    Addr sra(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::SRA, rd, rs1, rs2, 0, kNoAddr}); }
    Addr slt(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::SLT, rd, rs1, rs2, 0, kNoAddr}); }
    Addr sltu(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::SLTU, rd, rs1, rs2, 0, kNoAddr}); }
    Addr seq(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::SEQ, rd, rs1, rs2, 0, kNoAddr}); }

    Addr addi(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::ADDI, rd, rs1, 0, imm, kNoAddr}); }
    Addr muli(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::MULI, rd, rs1, 0, imm, kNoAddr}); }
    Addr andi(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::ANDI, rd, rs1, 0, imm, kNoAddr}); }
    Addr ori(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::ORI, rd, rs1, 0, imm, kNoAddr}); }
    Addr xori(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::XORI, rd, rs1, 0, imm, kNoAddr}); }
    Addr shli(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::SHLI, rd, rs1, 0, imm, kNoAddr}); }
    Addr shri(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::SHRI, rd, rs1, 0, imm, kNoAddr}); }
    Addr slti(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::SLTI, rd, rs1, 0, imm, kNoAddr}); }
    Addr seqi(ArchReg rd, ArchReg rs1, std::int64_t imm)
    { return emit({Opcode::SEQI, rd, rs1, 0, imm, kNoAddr}); }
    Addr li(ArchReg rd, std::int64_t imm)
    { return emit({Opcode::LI, rd, 0, 0, imm, kNoAddr}); }

    Addr fadd(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::FADD, rd, rs1, rs2, 0, kNoAddr}); }
    Addr fmul(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::FMUL, rd, rs1, rs2, 0, kNoAddr}); }
    Addr fdiv(ArchReg rd, ArchReg rs1, ArchReg rs2)
    { return emit({Opcode::FDIV, rd, rs1, rs2, 0, kNoAddr}); }

    Addr ld(ArchReg rd, ArchReg rs1, std::int64_t imm = 0)
    { return emit({Opcode::LD, rd, rs1, 0, imm, kNoAddr}); }
    Addr st(ArchReg rs1, std::int64_t imm, ArchReg rs2)
    { return emit({Opcode::ST, 0, rs1, rs2, imm, kNoAddr}); }

    Addr beq(ArchReg a, ArchReg b, Label t)
    { return emitBranch(Opcode::BEQ, a, b, t); }
    Addr bne(ArchReg a, ArchReg b, Label t)
    { return emitBranch(Opcode::BNE, a, b, t); }
    Addr blt(ArchReg a, ArchReg b, Label t)
    { return emitBranch(Opcode::BLT, a, b, t); }
    Addr bge(ArchReg a, ArchReg b, Label t)
    { return emitBranch(Opcode::BGE, a, b, t); }
    Addr bltu(ArchReg a, ArchReg b, Label t)
    { return emitBranch(Opcode::BLTU, a, b, t); }
    Addr bgeu(ArchReg a, ArchReg b, Label t)
    { return emitBranch(Opcode::BGEU, a, b, t); }
    Addr jmp(Label t) { return emitJump(Opcode::JMP, t); }
    Addr call(Label t)
    {
        Addr a = emitJump(Opcode::CALL, t);
        instAt(a).rd = kLinkReg;
        return a;
    }
    Addr ret()
    { return emit({Opcode::RET, 0, kLinkReg, 0, 0, kNoAddr}); }
    Addr jr(ArchReg rs1)
    { return emit({Opcode::JR, 0, rs1, 0, 0, kNoAddr}); }
    /// @}

    /** Seed one word of the initial data image; a later write to the
     *  same address replaces an earlier one. */
    void dataWord(Addr addr, Word value);

    /**
     * Seed `words` consecutive data words from `addr`, zero until the
     * caller fills the returned span. The span is valid until the next
     * data write; a later write to one of its words replaces it.
     */
    std::span<Word> dataBlock(Addr addr, std::size_t words);

    /** Link: resolve label fixups and produce the immutable Program. */
    Program build();

  private:
    Inst &instAt(Addr pc);

    Addr base;
    std::vector<Inst> insts;
    /** The data runs in write order; build() sorts them if needed. */
    std::vector<DataSegment> data;
    bool dataAscending = true; ///< each run starts past the previous one
    std::vector<Addr> labelAddrs;       // kNoAddr while unbound
    std::vector<std::string> labelNames; // empty when anonymous
    struct Fixup
    {
        std::size_t instIndex;
        std::size_t labelId;
    };
    std::vector<Fixup> fixups;
    bool built = false;
};

} // namespace dmp::isa

#endif // DMP_ISA_PROGRAM_HH
