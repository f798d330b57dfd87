#include "bpred/oracle.hh"

#include "common/logging.hh"

namespace dmp::bpred
{

OracleTracker::OracleTracker(const isa::Program &program,
                             std::size_t mem_bytes)
    : prog(program),
      memory(std::make_unique<isa::MemoryImage>(mem_bytes)),
      sim(std::make_unique<isa::FuncSim>(prog, *memory))
{
}

Addr
OracleTracker::truePc() const
{
    return sim->state().pc;
}

isa::StepInfo
OracleTracker::peek() const
{
    dmp_assert(isSynced, "OracleTracker::peek while desynced");
    // Step a copy: FuncSim is cheap to copy via its state, but it holds
    // references; instead, evaluate without side effects. Shares the
    // program's pre-decode cache with the timing front-end.
    const Addr pc = sim->state().pc;
    if (!prog.contains(pc)) [[unlikely]]
        (void)prog.fetch(pc); // fatal with the standard message
    const std::size_t idx = prog.indexOf(pc);
    const isa::Inst &inst = prog.instAt(idx);
    const isa::PreDecode &dec = prog.preDecodedAt(idx);
    isa::StepInfo info;
    info.pc = pc;
    info.inst = inst;
    info.isCondBranch = dec.condBranch();

    Word s1 = sim->state().read(inst.rs1);
    Word s2 = sim->state().read(inst.rs2);
    isa::ExecResult r = isa::evaluate(inst, info.pc, s1, s2);
    info.taken = r.taken;
    info.memAddr = (dec.load() || dec.store()) ? r.memAddr : kNoAddr;
    info.nextPc = r.taken ? r.target : info.pc + isa::kInstBytes;
    info.halted = inst.op == isa::Opcode::HALT;
    return info;
}

void
OracleTracker::onFetch(Addr pc, Addr chosen_next_pc)
{
    if (!isSynced) {
        // Self-healing after a drift freeze: the refetched correct
        // path walks through the frozen position.
        if (driftFrozen && pc == sim->state().pc && !sim->halted()) {
            isSynced = true;
            driftFrozen = false;
        } else {
            return;
        }
    }
    if (pc != sim->state().pc || sim->halted()) {
        // The caller drifted without a redirect; freeze defensively.
        isSynced = false;
        driftFrozen = true;
        return;
    }
    isa::StepInfo info = sim->step();
    if (info.halted)
        return; // stay synced at the halt point
    if (chosen_next_pc != info.nextPc) {
        isSynced = false; // front-end went down the wrong path
        driftFrozen = false;
    }
}

void
OracleTracker::onRedirect(Addr pc)
{
    if (sim->halted())
        return;
    if (!isSynced && pc == sim->state().pc) {
        driftFrozen = false;
        isSynced = true;
    }
}

} // namespace dmp::bpred
