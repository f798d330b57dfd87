/**
 * @file
 * Functional reference simulator.
 *
 * Executes a Program one instruction at a time with architectural state
 * only. It is the ground truth the timing core is validated against, the
 * engine behind the profiler's "train run", and the oracle used by
 * perfect-branch-prediction / perfect-confidence configurations.
 *
 * The interpreter is a predecoded threaded-dispatch loop: construction
 * lowers the Program's instructions into a dense FastOp table (operands,
 * immediates, pre-resolved branch-target indices), and visitRun()
 * dispatches over it with computed goto. Straight-line runs of simple
 * ALU ops are additionally fused into superblocks executed with the
 * per-instruction budget and bounds checks hoisted out of the loop. The
 * ALU and branch handlers and the superblock switch are expanded from
 * the opcode table (isa.hh), the same rows isa::evaluate() is expanded
 * from. All three consumers — the profiler's whole-train pass, the
 * oracle tracker, and the selfcheck lockstep oracle — share this one
 * dispatch engine. OpcodeCorners.* (tests/isa/test_opcode_corners.cpp)
 * runs every opcode through single steps and a superblock against
 * literal expected values.
 */

#ifndef DMP_ISA_FUNC_SIM_HH
#define DMP_ISA_FUNC_SIM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"

namespace dmp::isa
{

/** Architectural register file + PC. */
struct ArchState
{
    std::array<Word, kNumArchRegs> regs{};
    Addr pc = 0;

    Word
    read(ArchReg r) const
    {
        return r == kZeroReg ? 0 : regs[r];
    }

    void
    write(ArchReg r, Word v)
    {
        if (r != kZeroReg)
            regs[r] = v;
    }
};

/** What one functional step did (consumed by profiler and tests). */
struct StepInfo
{
    Addr pc = 0;
    Inst inst;
    bool isCondBranch = false;
    bool taken = false;
    Addr nextPc = 0;
    Addr memAddr = kNoAddr; ///< effective address for LD/ST
    bool halted = false;
};

/**
 * One predecoded interpreter op: the instruction's operands plus the
 * dispatch id its handler is selected by. Direct control transfers
 * carry their target as a static-instruction index so taken branches
 * are a single table jump with no address translation.
 */
struct FastOp
{
    /** Target not inside the program image (fault on use). */
    static constexpr std::uint32_t kBadTarget = ~std::uint32_t(0);

    std::int64_t imm = 0;
    std::uint32_t targetIdx = kBadTarget;
    /**
     * Straight-line simple-ALU run length starting here (this op
     * included); 0 for ops that end a run (control/memory/HALT).
     */
    std::uint16_t run = 0;
    /** Dispatch id (a FastHandler value). */
    std::uint8_t op = 0;
    /**
     * Underlying per-instruction handler: identical to `op` except for
     * fused-run heads, which dispatch to kFhFused but execute as
     * `exec` when the run cannot be entered (instruction budget).
     * Superblock inner loops always dispatch on `exec`.
     */
    std::uint8_t exec = 0;
    ArchReg rd = 0;
    ArchReg rs1 = 0;
    ArchReg rs2 = 0;
};

/**
 * Dispatch ids. Values 0..NUM_OPCODES-1 mirror Opcode; the extra ids
 * are interpreter-internal specializations chosen at table-build time.
 */
enum FastHandler : std::uint8_t
{
    /** Load whose architectural write is dead (rd == r0): the access
     *  (and its bounds fault) still happens, the write does not. */
    kFhLoadDead = std::uint8_t(Opcode::NUM_OPCODES),
    /** Head of a fusable straight-line run (superblock entry). */
    kFhFused,
    kNumFastHandlers
};

/** In-order architectural interpreter for one Program. */
class FuncSim
{
  public:
    /**
     * @param program the program to run (not owned; must outlive us)
     * @param mem the architectural memory (not owned; seeded from the
     *            program's initial data)
     */
    FuncSim(const Program &program, MemoryImage &mem);

    /** Execute one instruction. No-op when halted. */
    StepInfo step();

    /** Run up to max_insts instructions or until HALT. @return count. */
    std::uint64_t run(std::uint64_t max_insts);

    /**
     * Run up to max_insts instructions (or until HALT), invoking
     * `fn(pc, inst, isCondBranch, taken, nextPc, memAddr)` after each
     * one. The visitor inlines into every dispatch handler, so an
     * empty functor compiles to the plain run() loop. @return count.
     */
    template <class Fn>
    std::uint64_t visitRun(std::uint64_t max_insts, Fn &&fn);

    bool halted() const { return isHalted; }
    const ArchState &state() const { return arch; }
    ArchState &state() { return arch; }
    std::uint64_t retiredInsts() const { return retired; }

  private:
    /** Lower a program into its FastOp table (shared across copies). */
    static std::shared_ptr<const std::vector<FastOp>>
    buildFastOps(const Program &program);

    const Program &prog;
    MemoryImage &memory;
    /** Predecoded dispatch table, parallel to the program's insts. */
    std::shared_ptr<const std::vector<FastOp>> ops;
    ArchState arch;
    bool isHalted = false;
    std::uint64_t retired = 0;
};

/*
 * The dispatch loop: computed goto (a GNU extension that GCC and Clang
 * both provide), one indirect jump per handler, so the host branch
 * predictor sees per-opcode jump history. The handlers for the ALU and
 * conditional-branch formats are expanded from DMP_OPCODE_TABLE; the
 * other formats have one opcode each and are written out by hand.
 */
#define DMP_FS_NEXT()                                                   \
    do {                                                                \
        if (n >= max_insts)                                             \
            goto fs_done;                                               \
        if (idx >= sz) [[unlikely]]                                     \
            (void)prog.fetch(basePc + (Addr(idx) << Program::kInstShift)); \
        goto *kFsLabels[opv[idx].op];                                   \
    } while (0)

/*
 * Route a table row to DMP_FS_ALU (the formats isAluFormat() names) or
 * DMP_FS_BRANCH by its format. visitRun defines the pair three times,
 * one of them empty in each: for the ALU handlers, for the branch
 * handlers (emitted after the memory ones, keeping the hand-ordered
 * handler layout the host predicts well) and for the fused-run switch.
 */
#define DMP_FS_GENERATE(name, mnem, fmt, cls, sem)                      \
    DMP_FS_FORMAT_##fmt(name, sem)
#define DMP_FS_FORMAT_RegReg(name, sem) DMP_FS_ALU(name, sem)
#define DMP_FS_FORMAT_RegImm(name, sem) DMP_FS_ALU(name, sem)
#define DMP_FS_FORMAT_Li(name, sem) DMP_FS_ALU(name, sem)
#define DMP_FS_FORMAT_CondBranch(name, sem) DMP_FS_BRANCH(name, sem)
#define DMP_FS_FORMAT_None(name, sem)
#define DMP_FS_FORMAT_Load(name, sem)
#define DMP_FS_FORMAT_Store(name, sem)
#define DMP_FS_FORMAT_Jump(name, sem)
#define DMP_FS_FORMAT_Call(name, sem)
#define DMP_FS_FORMAT_Jr(name, sem)
#define DMP_FS_FORMAT_Ret(name, sem)

template <class Fn>
std::uint64_t
FuncSim::visitRun(std::uint64_t max_insts, Fn &&fn)
{
    if (isHalted || max_insts == 0)
        return 0;

    const FastOp *const opv = ops->data();
    const std::size_t sz = ops->size();
    const Addr basePc = prog.baseAddr();
    Word *const regs = arch.regs.data();

    if (!prog.contains(arch.pc)) [[unlikely]]
        (void)prog.fetch(arch.pc); // fatal with the standard message
    std::size_t idx = prog.indexOf(arch.pc);
    std::uint64_t n = 0;

    // Current pc; only materialized where a handler needs it.
#define DMP_FS_PC() (basePc + (Addr(idx) << Program::kInstShift))
    // Visit + advance for a straight-line (non-control, non-mem) op.
#define DMP_FS_STEP_SIMPLE()                                            \
    do {                                                                \
        const Addr pc_ = DMP_FS_PC();                                   \
        fn(pc_, prog.instAt(idx), false, false, pc_ + kInstBytes,       \
           kNoAddr);                                                    \
        ++n;                                                            \
        ++idx;                                                          \
        DMP_FS_NEXT();                                                  \
    } while (0)

    static const void *const kFsLabels[kNumFastHandlers] = {
#define DMP_FS_LABEL(name, mnem, fmt, cls, sem) &&fs_##name,
        DMP_OPCODE_TABLE(DMP_FS_LABEL)
#undef DMP_FS_LABEL
        &&fs_LOAD_DEAD, &&fs_FUSED,
    };
    DMP_FS_NEXT();

fs_NOP:
    DMP_FS_STEP_SIMPLE();
fs_HALT:
    {
        const Addr pc_ = DMP_FS_PC();
        isHalted = true;
        fn(pc_, prog.instAt(idx), false, false, pc_ + kInstBytes,
           kNoAddr);
        ++n;
        ++idx; // arch.pc ends one past HALT, matching the timing core
        goto fs_done;
    }

    // ALU formats. Table build guarantees rd != r0 here (dead-write
    // instances dispatch as NOP), so regs[0] stays zero and source
    // reads need no zero-register guard.
#define DMP_FS_ALU(name, sem)                                           \
    fs_##name:                                                          \
    {                                                                   \
        const FastOp &f = opv[idx];                                     \
        [[maybe_unused]] const Word s1 = regs[f.rs1];                   \
        [[maybe_unused]] const Word s2 = regs[f.rs2];                   \
        [[maybe_unused]] const std::int64_t imm = f.imm;                \
        regs[f.rd] = Word(sem);                                         \
        DMP_FS_STEP_SIMPLE();                                           \
    }
#define DMP_FS_BRANCH(name, sem)
    DMP_OPCODE_TABLE(DMP_FS_GENERATE)
#undef DMP_FS_ALU
#undef DMP_FS_BRANCH

fs_LD:
    {
        const FastOp &f = opv[idx];
        const Addr a = memAddress(regs[f.rs1], f.imm);
        regs[f.rd] = memory.load(a);
        const Addr pc_ = DMP_FS_PC();
        fn(pc_, prog.instAt(idx), false, false, pc_ + kInstBytes, a);
        ++n;
        ++idx;
        DMP_FS_NEXT();
    }
fs_LOAD_DEAD:
    {
        const FastOp &f = opv[idx];
        const Addr a = memAddress(regs[f.rs1], f.imm);
        (void)memory.load(a); // keep the bounds fault, drop the write
        const Addr pc_ = DMP_FS_PC();
        fn(pc_, prog.instAt(idx), false, false, pc_ + kInstBytes, a);
        ++n;
        ++idx;
        DMP_FS_NEXT();
    }
fs_ST:
    {
        const FastOp &f = opv[idx];
        const Addr a = memAddress(regs[f.rs1], f.imm);
        memory.store(a, regs[f.rs2]);
        const Addr pc_ = DMP_FS_PC();
        fn(pc_, prog.instAt(idx), false, false, pc_ + kInstBytes, a);
        ++n;
        ++idx;
        DMP_FS_NEXT();
    }

    // Conditional branches. Taken targets use the pre-resolved index;
    // an out-of-image target lands on the resync path so the fault
    // fires on the *next* dispatch, exactly like a per-step
    // interpreter.
#define DMP_FS_ALU(name, sem)
#define DMP_FS_BRANCH(name, sem)                                        \
    fs_##name:                                                          \
    {                                                                   \
        const FastOp &f = opv[idx];                                     \
        const Word s1 = regs[f.rs1];                                    \
        const Word s2 = regs[f.rs2];                                    \
        const bool taken = (sem);                                       \
        const Addr pc_ = DMP_FS_PC();                                   \
        const Addr next_pc =                                            \
            taken ? prog.instAt(idx).target : pc_ + kInstBytes;         \
        fn(pc_, prog.instAt(idx), true, taken, next_pc, kNoAddr);       \
        ++n;                                                            \
        if (taken && f.targetIdx == FastOp::kBadTarget) [[unlikely]] {  \
            arch.pc = next_pc;                                          \
            goto fs_resync;                                             \
        }                                                               \
        idx = taken ? f.targetIdx : idx + 1;                            \
        DMP_FS_NEXT();                                                  \
    }
    DMP_OPCODE_TABLE(DMP_FS_GENERATE)
#undef DMP_FS_ALU
#undef DMP_FS_BRANCH

fs_JMP:
    {
        const FastOp &f = opv[idx];
        const Addr pc_ = DMP_FS_PC();
        const Addr next_pc = prog.instAt(idx).target;
        fn(pc_, prog.instAt(idx), false, true, next_pc, kNoAddr);
        ++n;
        if (f.targetIdx == FastOp::kBadTarget) [[unlikely]] {
            arch.pc = next_pc;
            goto fs_resync;
        }
        idx = f.targetIdx;
        DMP_FS_NEXT();
    }
fs_CALL:
    {
        const FastOp &f = opv[idx];
        const Addr pc_ = DMP_FS_PC();
        const Addr next_pc = prog.instAt(idx).target;
        if (f.rd != kZeroReg)
            regs[f.rd] = pc_ + kInstBytes; // link value
        fn(pc_, prog.instAt(idx), false, true, next_pc, kNoAddr);
        ++n;
        if (f.targetIdx == FastOp::kBadTarget) [[unlikely]] {
            arch.pc = next_pc;
            goto fs_resync;
        }
        idx = f.targetIdx;
        DMP_FS_NEXT();
    }
fs_JR:
fs_RET:
    {
        const FastOp &f = opv[idx];
        const Addr pc_ = DMP_FS_PC();
        const Addr next_pc = regs[f.rs1];
        fn(pc_, prog.instAt(idx), false, true, next_pc, kNoAddr);
        ++n;
        if (!prog.contains(next_pc)) [[unlikely]] {
            arch.pc = next_pc;
            goto fs_resync;
        }
        idx = prog.indexOf(next_pc);
        DMP_FS_NEXT();
    }

fs_FUSED:
    {
        const FastOp &head = opv[idx];
        const std::uint64_t len = head.run;
        if (len > max_insts - n) {
            // Not enough budget for the whole superblock: execute this
            // op alone through its underlying handler.
            goto *kFsLabels[head.exec];
        }
        // The whole run is straight-line simple ALU: no control, no
        // memory, no HALT — budget and bounds checks hoisted here.
        Addr pc_ = DMP_FS_PC();
        const FastOp *f = &opv[idx];
        const FastOp *const e = f + len;
        std::size_t j = idx;
        for (; f != e; ++f, ++j, pc_ += kInstBytes) {
            const Word s1 = regs[f->rs1];
            const Word s2 = regs[f->rs2];
            Word v = 0;
            switch (Opcode(f->exec)) {
              case Opcode::NOP:
                goto fs_fused_visit; // dead write: skip the store
#define DMP_FS_ALU(name, sem)                                           \
              case Opcode::name: {                                      \
                [[maybe_unused]] const std::int64_t imm = f->imm;       \
                v = Word(sem);                                          \
                break;                                                  \
              }
#define DMP_FS_BRANCH(name, sem)
              DMP_OPCODE_TABLE(DMP_FS_GENERATE)
#undef DMP_FS_ALU
#undef DMP_FS_BRANCH
              default:
                dmp_panic("fused run contains non-simple op ",
                          int(f->exec));
            }
            regs[f->rd] = v;
          fs_fused_visit:
            fn(pc_, prog.instAt(j), false, false, pc_ + kInstBytes,
               kNoAddr);
        }
        n += len;
        idx += len;
        DMP_FS_NEXT();
    }

fs_resync:
    // arch.pc was redirected outside the program image. Stop cleanly
    // if the budget is spent; otherwise fault with the standard
    // message, exactly as a per-step interpreter would on its next
    // fetch.
    if (n < max_insts)
        (void)prog.fetch(arch.pc);
    retired += n;
    return n;

fs_done:
    arch.pc = basePc + (Addr(idx) << Program::kInstShift);
    retired += n;
    return n;

#undef DMP_FS_PC
#undef DMP_FS_STEP_SIMPLE
}

#undef DMP_FS_NEXT
#undef DMP_FS_GENERATE
#undef DMP_FS_FORMAT_RegReg
#undef DMP_FS_FORMAT_RegImm
#undef DMP_FS_FORMAT_Li
#undef DMP_FS_FORMAT_CondBranch
#undef DMP_FS_FORMAT_None
#undef DMP_FS_FORMAT_Load
#undef DMP_FS_FORMAT_Store
#undef DMP_FS_FORMAT_Jump
#undef DMP_FS_FORMAT_Call
#undef DMP_FS_FORMAT_Jr
#undef DMP_FS_FORMAT_Ret

} // namespace dmp::isa

#endif // DMP_ISA_FUNC_SIM_HH
