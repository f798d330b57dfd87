#include "isa/func_sim.hh"

#include "common/logging.hh"

namespace dmp::isa
{

namespace
{

/** Minimum straight-line run length worth entering as a superblock. */
constexpr std::uint16_t kFuseMin = 4;

/** True when the dispatch id is a straight-line simple op: NOP or an
 *  ALU format, which the fused-run switch executes. */
constexpr bool
isSimpleExec(std::uint8_t exec) noexcept
{
    return exec == std::uint8_t(Opcode::NOP) ||
           (exec < std::uint8_t(Opcode::NUM_OPCODES) &&
            isAluFormat(opFormat(Opcode(exec))));
}

} // namespace

FuncSim::FuncSim(const Program &program, MemoryImage &mem)
    : prog(program), memory(mem), ops(buildFastOps(program))
{
    arch.pc = prog.baseAddr();
    isHalted = prog.size() == 0;
    for (const DataSegment &seg : prog.dataSegments())
        memory.storeWords(seg.base, seg.words);
}

std::shared_ptr<const std::vector<FastOp>>
FuncSim::buildFastOps(const Program &program)
{
    const std::size_t sz = program.size();
    auto table = std::make_shared<std::vector<FastOp>>(sz);
    std::vector<FastOp> &ops = *table;

    for (std::size_t i = 0; i < sz; ++i) {
        const Inst &inst = program.instAt(i);
        const PreDecode &dec = program.preDecodedAt(i);
        FastOp &f = ops[i];
        f.rd = inst.rd;
        f.rs1 = inst.rs1;
        f.rs2 = inst.rs2;
        f.imm = inst.imm;

        std::uint8_t exec = std::uint8_t(inst.op);
        if (dec.load()) {
            // A load whose destination is r0 must still access memory
            // (bounds fault) but never write the register file.
            if (!(dec.flags & kDecWritesDest))
                exec = kFhLoadDead;
        } else if (!dec.control() && !dec.store() &&
                   inst.op != Opcode::HALT &&
                   !(dec.flags & kDecWritesDest)) {
            // An ALU op with a dead destination has no architectural
            // effect at all: execute it as a NOP so the write handlers
            // can store unconditionally (keeping regs[r0] == 0).
            exec = std::uint8_t(Opcode::NOP);
        }
        f.exec = exec;
        f.op = exec;

        // Pre-resolve direct control targets to instruction indices.
        if (dec.condBranch() || (dec.flags & kDecDirectJump)) {
            f.targetIdx = program.contains(inst.target)
                              ? std::uint32_t(program.indexOf(inst.target))
                              : FastOp::kBadTarget;
        }
    }

    // Straight-line run lengths (reverse pass), then promote heads of
    // long-enough runs to the fused superblock handler.
    std::uint32_t run = 0;
    for (std::size_t i = sz; i-- > 0;) {
        run = isSimpleExec(ops[i].exec) ? run + 1 : 0;
        ops[i].run = std::uint16_t(run > 0xffff ? 0xffff : run);
        if (ops[i].run >= kFuseMin)
            ops[i].op = kFhFused;
    }
    return table;
}

StepInfo
FuncSim::step()
{
    StepInfo info;
    if (isHalted) {
        info.halted = true;
        info.pc = arch.pc;
        return info;
    }
    visitRun(1, [&](Addr pc, const Inst &inst, bool is_cond_branch,
                    bool taken, Addr next_pc, Addr mem_addr) {
        info.pc = pc;
        info.inst = inst;
        info.isCondBranch = is_cond_branch;
        info.taken = taken;
        info.nextPc = next_pc;
        info.memAddr = mem_addr;
        info.halted = inst.op == Opcode::HALT;
    });
    return info;
}

std::uint64_t
FuncSim::run(std::uint64_t max_insts)
{
    return visitRun(max_insts,
                    [](Addr, const Inst &, bool, bool, Addr, Addr) {});
}

} // namespace dmp::isa
