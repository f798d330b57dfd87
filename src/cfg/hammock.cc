#include "cfg/hammock.hh"

#include "common/logging.hh"

namespace dmp::cfg
{

namespace
{

/**
 * True when `side` qualifies as a hammock side block: straight-line code
 * with a single successor and a single predecessor, no calls, no
 * conditional branches, no indirect transfers.
 */
bool
isSideBlock(const Cfg &cfg, const isa::Program &program, BlockId side,
            BlockId branch_block, BlockId &join_out)
{
    const BasicBlock &bb = cfg.block(side);
    if (bb.succs.size() != 1)
        return false;
    if (bb.preds.size() != 1 || bb.preds[0] != branch_block)
        return false;
    if (bb.hasCall || bb.endsInCondBranch || bb.endsInIndirect ||
        bb.endsInHalt) {
        return false;
    }
    // Internal instructions must be non-control; the terminator may be a
    // fallthrough or a direct JMP (checked via block metadata above plus
    // a scan for stray control instructions).
    for (Addr pc = bb.start; pc < bb.end; pc += isa::kInstBytes) {
        const isa::Inst &inst = program.fetch(pc);
        bool is_last = pc == bb.lastInstPc();
        if (isa::isControl(inst.op) &&
            !(is_last && inst.op == isa::Opcode::JMP)) {
            return false;
        }
    }
    join_out = bb.succs[0];
    return true;
}

} // namespace

HammockInfo
classifyHammock(const Cfg &cfg, const isa::Program &program,
                BlockId branch_block)
{
    HammockInfo info;
    const BasicBlock &bb = cfg.block(branch_block);
    if (!bb.endsInCondBranch || bb.succs.size() != 2)
        return info;

    BlockId a = bb.succs[0];
    BlockId b = bb.succs[1];

    // Case 1: bare if. One successor is the join itself.
    BlockId join = kNoBlock;
    if (isSideBlock(cfg, program, a, branch_block, join) && join == b) {
        info.isSimpleHammock = true;
        info.hasElse = false;
        info.joinAddr = cfg.block(b).start;
        return info;
    }
    if (isSideBlock(cfg, program, b, branch_block, join) && join == a) {
        info.isSimpleHammock = true;
        info.hasElse = false;
        info.joinAddr = cfg.block(a).start;
        return info;
    }

    // Case 2: if-else. Both successors are side blocks with a common join.
    BlockId join_a = kNoBlock, join_b = kNoBlock;
    if (isSideBlock(cfg, program, a, branch_block, join_a) &&
        isSideBlock(cfg, program, b, branch_block, join_b) &&
        join_a == join_b && join_a != kNoBlock) {
        info.isSimpleHammock = true;
        info.hasElse = true;
        info.joinAddr = cfg.block(join_a).start;
    }
    return info;
}

std::map<Addr, Addr>
markSimpleHammocks(const Cfg &cfg, isa::Program &program)
{
    std::map<Addr, Addr> joins;
    for (BlockId b = 0; b < BlockId(cfg.size()); ++b) {
        const BasicBlock &bb = cfg.block(b);
        if (!bb.endsInCondBranch)
            continue;
        HammockInfo h = classifyHammock(cfg, program, b);
        if (h.isSimpleHammock)
            joins[bb.lastInstPc()] = h.joinAddr;
    }
    for (const auto &[pc, join] : joins) {
        isa::DivergeMark mark;
        mark.isSimpleHammock = true;
        mark.cfmPoints.push_back(join);
        program.setMark(pc, mark);
    }
    return joins;
}

} // namespace dmp::cfg
