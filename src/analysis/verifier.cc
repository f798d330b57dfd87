#include "analysis/verifier.hh"

#include <bitset>
#include <deque>
#include <set>
#include <utility>

#include "analysis/absint.hh"
#include "analysis/flowgraph.hh"
#include "common/trace.hh"
#include "isa/isa.hh"

namespace dmp::analysis
{

using isa::Inst;
using isa::kInstBytes;
using isa::Opcode;

namespace
{

std::int32_t
blockOf(const cfg::Cfg &graph, Addr pc)
{
    return graph.blockContaining(pc);
}

using trace::hex;

/** Direct control transfers: targets present, in bounds, aligned. */
void
checkTargets(const isa::Program &prog, const cfg::Cfg &graph,
             Report &report)
{
    for (std::size_t i = 0; i < prog.size(); ++i) {
        const Inst &inst = prog.instAt(i);
        if (!isa::isCondBranch(inst.op) && !isa::isDirectJump(inst.op))
            continue;
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        if (inst.target == kNoAddr) {
            report.add(Severity::Error, "missing-target", pc,
                       blockOf(graph, pc),
                       std::string(isa::opcodeName(inst.op)) +
                           " has no target (unresolved label?)");
            continue;
        }
        if (prog.contains(inst.target))
            continue;
        const bool misaligned = (inst.target & (kInstBytes - 1)) != 0;
        const bool in_range = inst.target >= prog.baseAddr() &&
                              inst.target < prog.endAddr();
        if (misaligned && in_range) {
            report.add(Severity::Error, "branch-target-misaligned", pc,
                       blockOf(graph, pc),
                       std::string(isa::opcodeName(inst.op)) +
                           " target " + hex(inst.target) +
                           " is not on an instruction boundary");
        } else {
            report.add(Severity::Error, "branch-target-oob", pc,
                       blockOf(graph, pc),
                       std::string(isa::opcodeName(inst.op)) +
                           " target " + hex(inst.target) +
                           " is outside the program image [" +
                           hex(prog.baseAddr()) + ", " +
                           hex(prog.endAddr()) + ")");
        }
    }
}

/** The last instruction must not fall through off the image. */
void
checkFallthroughEnd(const isa::Program &prog, const cfg::Cfg &graph,
                    Report &report)
{
    if (prog.size() == 0)
        return;
    const Inst &last = prog.instAt(prog.size() - 1);
    // HALT stops, JMP/JR/RET redirect unconditionally; everything else
    // (including a conditional branch and CALL, whose callee returns to
    // the fall-through) can execute past the end of the image.
    switch (last.op) {
      case Opcode::HALT:
      case Opcode::JMP:
      case Opcode::JR:
      case Opcode::RET:
        return;
      default:
        break;
    }
    const Addr pc = prog.endAddr() - kInstBytes;
    report.add(Severity::Error, "fallthrough-end", pc, blockOf(graph, pc),
               std::string(isa::opcodeName(last.op)) +
                   " can fall through past the end of the program image");
}

/** RET must read the link register; anything else is an encoding bug. */
void
checkReturnEncoding(const isa::Program &prog, const cfg::Cfg &graph,
                    Report &report)
{
    for (std::size_t i = 0; i < prog.size(); ++i) {
        const Inst &inst = prog.instAt(i);
        if (inst.op != Opcode::RET || inst.rs1 == isa::kLinkReg)
            continue;
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        report.add(Severity::Error, "ret-linkreg", pc, blockOf(graph, pc),
                   "RET encoded against r" +
                       std::to_string(unsigned(inst.rs1)) +
                       " instead of the link register r" +
                       std::to_string(unsigned(isa::kLinkReg)));
    }
}

/** Unreachable instructions + a reachable HALT. */
void
checkReachability(const isa::Program &prog, const cfg::Cfg &graph,
                  const FlowGraph &flow, Report &report)
{
    if (prog.size() == 0)
        return;
    FlowGraph::Reach r = flow.reach(0);

    bool has_jr = false;
    for (std::size_t i = 0; i < prog.size(); ++i)
        has_jr |= prog.instAt(i).op == Opcode::JR;
    // With an indirect jump in the program, "unreached" may simply mean
    // "only reachable through a target we cannot resolve statically".
    const Severity sev = has_jr ? Severity::Info : Severity::Warn;

    bool halt_reached = false;
    for (std::size_t i = 0; i < prog.size(); ++i)
        if (r.reached(i) && prog.instAt(i).op == Opcode::HALT)
            halt_reached = true;

    // Group unreached indices into maximal ranges: one finding per
    // dead region, not per instruction.
    std::size_t i = 0;
    while (i < prog.size()) {
        if (r.reached(i)) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j + 1 < prog.size() && !r.reached(j + 1))
            ++j;
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        const Addr end = prog.baseAddr() + (j + 1) * kInstBytes;
        report.add(sev, "unreachable-code", pc, blockOf(graph, pc),
                   std::to_string(j - i + 1) +
                       " instruction(s) unreachable from the entry point"
                       " [" + hex(pc) + ", " + hex(end) + ")");
        i = j + 1;
    }

    if (!halt_reached && !r.hitIndirect) {
        report.add(Severity::Warn, "no-reachable-halt", prog.baseAddr(),
                   blockOf(graph, prog.baseAddr()),
                   "no HALT instruction is reachable from the entry "
                   "point: the program cannot terminate");
    }
}

/**
 * Call/return stack discipline: a RET reachable with a provably empty
 * call stack jumps through whatever r63 happens to hold.
 *
 * Minimum-call-depth dataflow over the instruction graph: the CALL
 * summary edge (fall-through at unchanged depth) models the matched
 * call/return pair, the callee edge enters at depth + 1.
 */
void
checkCallDiscipline(const isa::Program &prog, const cfg::Cfg &graph,
                    Report &report)
{
    const std::size_t n = prog.size();
    if (n == 0)
        return;
    constexpr std::uint32_t kDepthCap = 1u << 20;
    std::vector<std::uint32_t> min_depth(n, kUnreached);

    std::deque<std::uint32_t> queue;
    min_depth[0] = 0;
    queue.push_back(0);
    auto relax = [&](std::size_t idx, std::uint32_t d) {
        if (idx < n && d < min_depth[idx]) {
            min_depth[idx] = d;
            queue.push_back(std::uint32_t(idx));
        }
    };
    while (!queue.empty()) {
        const std::uint32_t cur = queue.front();
        queue.pop_front();
        const Inst &inst = prog.instAt(cur);
        const std::uint32_t d = min_depth[cur];
        switch (inst.op) {
          case Opcode::HALT:
          case Opcode::JR:
          case Opcode::RET:
            break;
          case Opcode::JMP:
            if (inst.target != kNoAddr && prog.contains(inst.target))
                relax(prog.indexOf(inst.target), d);
            break;
          case Opcode::CALL:
            if (inst.target != kNoAddr && prog.contains(inst.target))
                relax(prog.indexOf(inst.target),
                      d < kDepthCap ? d + 1 : d);
            relax(cur + 1, d); // summary: the callee returns here
            break;
          default:
            if (isa::isCondBranch(inst.op)) {
                relax(cur + 1, d);
                if (inst.target != kNoAddr && prog.contains(inst.target))
                    relax(prog.indexOf(inst.target), d);
            } else {
                relax(cur + 1, d);
            }
        }
    }

    for (std::size_t i = 0; i < n; ++i) {
        if (prog.instAt(i).op != Opcode::RET || min_depth[i] != 0)
            continue;
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        report.add(Severity::Warn, "ret-without-call", pc,
                   blockOf(graph, pc),
                   "RET is reachable without a matching CALL (empty "
                   "call stack: jumps through the initial r63 value)");
    }
}

/**
 * Instruction-granular register-initialization dataflow over the
 * FlowGraph.
 *
 * Two forward analyses run together: *must*-initialized (intersection
 * over predecessors; a miss means some path reaches the read without a
 * write) and *may*-initialized (union; a miss means no path writes the
 * register at all). A read of a never-written register is a definite
 * `read-before-write`; a read whose register is written on only some
 * incoming paths is `read-before-write-maybe`. Both stay informational:
 * the ISA zero-initializes the register file.
 *
 * Because the lattice is per-instruction, a write followed by a read
 * inside the same basic block is clean — the old block-level analysis
 * flagged those. Callee bodies inherit caller state through the CALL
 * edge; the summary fall-through edge havocs the may-set (the callee
 * may write anything) and guarantees only the link register, so no
 * *definite* finding ever fires downstream of a call.
 */
void
checkRegisterInit(const isa::Program &prog, const cfg::Cfg &graph,
                  const FlowGraph &flow, Report &report)
{
    using RegSet = std::bitset<isa::kNumArchRegs>;
    const std::size_t n = prog.size();
    if (n == 0)
        return;

    auto writeOf = [&](const Inst &inst) -> int {
        if (!isa::writesDest(inst))
            return -1;
        return inst.op == Opcode::CALL ? int(isa::kLinkReg)
                                       : int(inst.rd);
    };

    std::vector<RegSet> must(n), may(n);
    std::vector<char> seen(n, 0), queued(n, 0);
    RegSet entry;
    entry.set(isa::kZeroReg);
    must[0] = entry;
    may[0] = entry;
    seen[0] = 1;

    std::deque<std::uint32_t> queue{0};
    queued[0] = 1;
    while (!queue.empty()) {
        const std::uint32_t i = queue.front();
        queue.pop_front();
        queued[i] = 0;
        const Inst &inst = prog.instAt(i);
        RegSet outMust = must[i], outMay = may[i];
        if (const int w = writeOf(inst); w >= 0) {
            outMust.set(std::size_t(w));
            outMay.set(std::size_t(w));
        }
        for (const std::uint32_t s : flow.succs(i)) {
            RegSet sMust = outMust, sMay = outMay;
            if (inst.op == Opcode::CALL && s == i + 1) {
                // Summary edge across the callee: it may write any
                // register but guarantees only the link.
                sMay.set();
                sMust = must[i];
                sMust.set(isa::kLinkReg);
            }
            bool changed = false;
            if (!seen[s]) {
                seen[s] = 1;
                must[s] = sMust;
                may[s] = sMay;
                changed = true;
            } else {
                const RegSet nm = must[s] & sMust;
                const RegSet ny = may[s] | sMay;
                if (nm != must[s] || ny != may[s]) {
                    must[s] = nm;
                    may[s] = ny;
                    changed = true;
                }
            }
            if (changed && !queued[s]) {
                queued[s] = 1;
                queue.push_back(s);
            }
        }
    }

    // Report pass: one finding per (block, register) to keep a loop
    // that re-reads the same uninitialized register from flooding.
    std::set<std::pair<std::int32_t, ArchReg>> reported;
    for (std::size_t i = 0; i < n; ++i) {
        if (!seen[i])
            continue;
        const Inst &inst = prog.instAt(i);
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        const std::int32_t block = blockOf(graph, pc);
        auto checkRead = [&](ArchReg r) {
            if (must[i].test(r))
                return;
            if (!reported.insert({block, r}).second)
                return;
            std::string msg = "r";
            msg += std::to_string(unsigned(r));
            if (!may[i].test(r)) {
                msg += " is read but no path writes it first (reads "
                       "the architectural zero-initial value)";
                report.add(Severity::Info, "read-before-write", pc,
                           block, std::move(msg));
            } else {
                msg += " is written on only some paths to this read "
                       "(other paths read the architectural "
                       "zero-initial value)";
                report.add(Severity::Info, "read-before-write-maybe",
                           pc, block, std::move(msg));
            }
        };
        if (isa::readsSrc1(inst))
            checkRead(inst.rs1);
        if (isa::readsSrc2(inst))
            checkRead(inst.rs2);
    }
}

/**
 * Load/store alignment + segment sanity where statically provable.
 *
 * An r0 base makes the effective address exactly the immediate. With an
 * absint result, computed addresses are checked against their abstract
 * value: a known-one low bit proves misalignment and an unsigned lower
 * bound past the data space proves out-of-bounds — both promoted to the
 * same Error codes as the exact r0 case. A proved-clean address
 * suppresses the odd-offset Info.
 */
void
checkMemOps(const isa::Program &prog, const cfg::Cfg &graph,
            const VerifyOptions &opts, const AbsintResult *absint,
            Report &report)
{
    constexpr Word kAlignMask = sizeof(Word) - 1;
    for (std::size_t i = 0; i < prog.size(); ++i) {
        const Inst &inst = prog.instAt(i);
        if (inst.op != Opcode::LD && inst.op != Opcode::ST)
            continue;
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        if (inst.rs1 == isa::kZeroReg) {
            // The effective address is exactly the immediate.
            const Word addr = static_cast<Word>(inst.imm);
            if (addr % sizeof(Word) != 0) {
                report.add(Severity::Error, "mem-unaligned", pc,
                           blockOf(graph, pc),
                           std::string(isa::opcodeName(inst.op)) +
                               " with r0 base accesses unaligned "
                               "address " + hex(addr));
            } else if (opts.memoryBytes && addr >= opts.memoryBytes) {
                report.add(Severity::Error, "mem-oob", pc,
                           blockOf(graph, pc),
                           std::string(isa::opcodeName(inst.op)) +
                               " with r0 base accesses " + hex(addr) +
                               " beyond the " +
                               std::to_string(opts.memoryBytes) +
                               "-byte data space");
            }
            continue;
        }
        if (absint && absint->ran) {
            const AbsVal addr = absintAdd(
                absint->regBefore(i, inst.rs1),
                AbsVal::constant(static_cast<Word>(inst.imm)));
            if (addr.isEmpty())
                continue; // instruction unreachable: nothing to prove
            if ((addr.ones & kAlignMask) != 0) {
                report.add(Severity::Error, "mem-unaligned", pc,
                           blockOf(graph, pc),
                           std::string(isa::opcodeName(inst.op)) +
                               " address is provably unaligned (low "
                               "bits " +
                               std::to_string(addr.ones & kAlignMask) +
                               " are always set)");
                continue;
            }
            if (opts.memoryBytes && addr.umin >= opts.memoryBytes) {
                report.add(Severity::Error, "mem-oob", pc,
                           blockOf(graph, pc),
                           std::string(isa::opcodeName(inst.op)) +
                               " address is provably >= " +
                               hex(addr.umin) + ", beyond the " +
                               std::to_string(opts.memoryBytes) +
                               "-byte data space");
                continue;
            }
            const bool provedAligned =
                (addr.zeros & kAlignMask) == kAlignMask;
            if (provedAligned)
                continue; // proved clean: no odd-offset noise
        }
        if (inst.imm % std::int64_t(sizeof(Word)) != 0) {
            // Base unknown: an odd offset only works when the base
            // compensates, which no workload generator does.
            report.add(Severity::Info, "mem-odd-offset", pc,
                       blockOf(graph, pc),
                       std::string(isa::opcodeName(inst.op)) +
                           " offset " + std::to_string(inst.imm) +
                           " is not word-aligned (base register must "
                           "compensate)");
        }
    }
}

/**
 * Findings only the value analysis can make: branch arms proved
 * infeasible, and code reachable in the structural graph but proved
 * unreachable semantically (e.g. guarded by a constant condition).
 */
void
checkAbsintDeadCode(const isa::Program &prog, const cfg::Cfg &graph,
                    const FlowGraph &flow, const AbsintResult &absint,
                    Report &report)
{
    const std::size_t n = prog.size();

    for (std::size_t i = 0; i < n; ++i) {
        const Inst &inst = prog.instAt(i);
        if (!isa::isCondBranch(inst.op))
            continue;
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        const BranchProof proof = absint.proofAt(pc);
        if (proof.status == BranchProof::Status::None)
            continue;
        const bool taken = proof.status == BranchProof::Status::Taken;
        report.add(Severity::Warn, "dead-branch-arm", pc,
                   blockOf(graph, pc),
                   std::string(isa::opcodeName(inst.op)) + " is proved " +
                       (taken ? "always" : "never") + " taken: the " +
                       (taken ? "fall-through" : "taken") +
                       " arm is unreachable");
    }

    // Semantic unreachability beyond the structural sweep, grouped
    // into maximal address ranges like checkReachability's findings.
    const FlowGraph::Reach r = flow.reach(0);
    std::size_t i = 0;
    while (i < n) {
        const bool dead =
            i < absint.in.size() && !absint.in[i].reachable && r.reached(i);
        if (!dead) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j + 1 < n && j + 1 < absint.in.size() &&
               !absint.in[j + 1].reachable && r.reached(j + 1))
            ++j;
        const Addr pc = prog.baseAddr() + i * kInstBytes;
        const Addr end = prog.baseAddr() + (j + 1) * kInstBytes;
        report.add(Severity::Info, "unreachable-code-absint", pc,
                   blockOf(graph, pc),
                   std::to_string(j - i + 1) +
                       " instruction(s) proved unreachable by value "
                       "analysis [" + hex(pc) + ", " + hex(end) + ")");
        i = j + 1;
    }
}

/** JR/RET proved to jump outside the image: the next fetch faults. */
void
checkIndirectTargets(const isa::Program &prog, const cfg::Cfg &graph,
                     const AbsintResult &absint, Report &report)
{
    for (const auto &[idx, targets] : absint.resolvedIndirects) {
        const Inst &inst = prog.instAt(idx);
        const AbsVal v = absint.regBefore(idx, inst.rs1);
        if (!targets.empty() || v.isEmpty())
            continue;
        const Addr pc = prog.baseAddr() + idx * kInstBytes;
        const std::string to =
            v.isConstant() ? hex(v.umin) : hex(v.umin) + ".." + hex(v.umax);
        report.add(Severity::Error, "indirect-target-oob", pc,
                   blockOf(graph, pc),
                   std::string(isa::opcodeName(inst.op)) + " target " + to +
                       " is proved outside the program image");
    }
}

} // namespace

void
verifyProgram(const isa::Program &program, const cfg::Cfg &graph,
              const FlowGraph &flow, const VerifyOptions &opts,
              Report &report, const AbsintResult *absint)
{
    checkTargets(program, graph, report);
    checkFallthroughEnd(program, graph, report);
    checkReturnEncoding(program, graph, report);
    checkReachability(program, graph, flow, report);
    checkCallDiscipline(program, graph, report);
    checkRegisterInit(program, graph, flow, report);
    checkMemOps(program, graph, opts, absint, report);
    if (absint && absint->ran) {
        checkAbsintDeadCode(program, graph, flow, *absint, report);
        checkIndirectTargets(program, graph, *absint, report);
    }
}

} // namespace dmp::analysis
