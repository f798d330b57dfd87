#include "analysis/lint.hh"

#include <algorithm>
#include <unordered_set>

#include "analysis/flowgraph.hh"
#include "cfg/hammock.hh"
#include "common/trace.hh"

namespace dmp::analysis
{

using isa::DivergeMark;
using isa::Inst;
using isa::kInstBytes;

namespace
{

using trace::hex;

/** Everything the region/nesting passes need about one diverge mark. */
struct MarkCtx
{
    Addr pc = kNoAddr;
    std::size_t idx = 0;
    const DivergeMark *mark = nullptr;
    /** Union of both sides' reachable sets, bounded by the CFM set. */
    std::vector<char> region;
    /** CFM instruction indices (in-bounds ones only). */
    std::vector<std::size_t> cfmIdx;
    bool regionValid = false;
};

/**
 * Structural validity of one mark: placement, CFM bounds, counts,
 * loop-branch shape. Returns false when follow-on (reachability /
 * nesting) checks would only cascade.
 */
bool
lintMarkStructure(const isa::Program &prog, const cfg::Cfg &graph,
                  Addr pc, const DivergeMark &mark,
                  const LintOptions &opts, Report &report)
{
    // Defensive: Program::setMark asserts this today, but a program
    // whose markings arrive any other way (deserialization, tests
    // poking internals) must not reach the core unchecked.
    if (!prog.contains(pc) || !isa::isCondBranch(prog.fetch(pc).op)) {
        report.add(Severity::Error, "mark-not-branch", pc, -1,
                   "marking attached to an address that is not a "
                   "conditional branch of the program");
        return false;
    }
    const std::int32_t blk = graph.blockContaining(pc);
    const Inst &inst = prog.fetch(pc);

    if (mark.isDiverge && mark.cfmPoints.empty()) {
        report.add(Severity::Error, "diverge-no-cfm", pc, blk,
                   "diverge mark carries no CFM point: the core could "
                   "never merge an episode started here");
        return false;
    }
    if (mark.isSimpleHammock && mark.cfmPoints.empty()) {
        report.add(Severity::Error, "hammock-no-join", pc, blk,
                   "simple-hammock mark carries no join address");
        return false;
    }

    bool ok = true;
    std::unordered_set<Addr> seen;
    for (Addr cfm : mark.cfmPoints) {
        if (!prog.contains(cfm)) {
            report.add(Severity::Error, "cfm-oob", pc, blk,
                       "CFM point " + hex(cfm) +
                           " is outside the program image or not on "
                           "an instruction boundary");
            ok = false;
        } else if (cfm == pc) {
            report.add(Severity::Error, "cfm-self", pc, blk,
                       "the diverge branch lists itself as its own "
                       "CFM point");
            ok = false;
        }
        if (!seen.insert(cfm).second) {
            report.add(Severity::Warn, "cfm-duplicate", pc, blk,
                       "CFM point " + hex(cfm) +
                           " listed more than once");
        }
    }

    if (mark.cfmPoints.size() > opts.marker.maxCfmPoints) {
        report.add(Severity::Warn, "cfm-count", pc, blk,
                   std::to_string(mark.cfmPoints.size()) +
                       " CFM points exceed the marker bound of " +
                       std::to_string(opts.marker.maxCfmPoints));
    }

    if (mark.isLoopBranch) {
        if (inst.target == kNoAddr || inst.target > pc) {
            report.add(Severity::Error, "loop-not-backward", pc, blk,
                       "loop-diverge mark on a branch whose target " +
                           (inst.target == kNoAddr
                                ? std::string("is missing")
                                : hex(inst.target) +
                                      " is not a back edge"));
            ok = false;
        }
        if (!mark.cfmPoints.empty() &&
            mark.cfmPoints.front() != pc + kInstBytes) {
            report.add(Severity::Warn, "loop-cfm", pc, blk,
                       "loop-diverge CFM " + hex(mark.cfmPoints.front()) +
                           " is not the fall-through loop exit " +
                           hex(pc + kInstBytes));
        }
    }
    return ok;
}

/** CFM reachability on both outcomes + the static distance bound. */
void
lintReachability(const isa::Program &prog, const cfg::Cfg &graph,
                 const FlowGraph &flow, MarkCtx &ctx,
                 const LintOptions &opts, Report &report)
{
    const Addr pc = ctx.pc;
    const std::int32_t blk = graph.blockContaining(pc);
    const Inst &inst = prog.fetch(pc);
    const DivergeMark &mark = *ctx.mark;

    // No side to sweep: the verifier, which every run passes before
    // marking, reports the bad target or the fall-through off the end.
    if (!prog.contains(inst.target) || pc + kInstBytes >= prog.endAddr())
        return;

    const std::size_t taken_idx = prog.indexOf(inst.target);
    const std::size_t fall_idx = ctx.idx + 1;
    for (Addr cfm : mark.cfmPoints)
        if (prog.contains(cfm))
            ctx.cfmIdx.push_back(prog.indexOf(cfm));

    // Unbounded sweeps for reachability and the distance lower bound
    // (the merge point may legitimately be reached through paths that
    // pass other CFM points first, so these sweeps do not stop).
    FlowGraph::Reach taken = flow.reach(taken_idx);
    FlowGraph::Reach fall = flow.reach(fall_idx);

    std::uint32_t best = kUnreached;
    for (std::size_t k = 0; k < ctx.cfmIdx.size(); ++k) {
        const std::size_t ci = ctx.cfmIdx[k];
        const Addr cfm = prog.baseAddr() + ci * kInstBytes;
        struct Side
        {
            const char *name;
            const FlowGraph::Reach *r;
        } sides[2] = {{"taken", &taken}, {"not-taken", &fall}};
        bool both = true;
        for (const Side &s : sides) {
            if (s.r->reached(ci))
                continue;
            both = false;
            if (s.r->hitIndirect) {
                report.add(Severity::Info, "cfm-unverifiable", pc, blk,
                           "CFM point " + hex(cfm) + " not proven "
                           "reachable on the " + s.name + " side "
                           "(indirect control flow in the region)");
            } else {
                report.add(Severity::Error, "cfm-unreachable", pc, blk,
                           "CFM point " + hex(cfm) +
                               " is unreachable on the " + s.name +
                               " side of the diverge branch: an "
                               "episode taking that side can never "
                               "merge");
            }
        }
        if (both) {
            // Distance in dynamic instructions: the side's first
            // instruction is 1 away from the branch.
            const std::uint32_t d =
                1 + std::min(taken.dist[ci], fall.dist[ci]);
            best = std::min(best, d);
        }
    }

    if (best != kUnreached && best > opts.marker.maxCfmDistance) {
        report.add(Severity::Error, "cfm-distance", pc, blk,
                   "nearest CFM point is at least " +
                       std::to_string(best) +
                       " instructions away on every path, beyond the "
                       "maxCfmDistance bound of " +
                       std::to_string(opts.marker.maxCfmDistance));
    }

    // Region for the nesting pass: both sides, bounded by the CFM set.
    if (!ctx.cfmIdx.empty()) {
        FlowGraph::Reach rt = flow.reach(taken_idx, ctx.cfmIdx);
        FlowGraph::Reach rf = flow.reach(fall_idx, ctx.cfmIdx);
        ctx.region.assign(prog.size(), 0);
        for (std::size_t i = 0; i < prog.size(); ++i)
            ctx.region[i] = rt.reached(i) || rf.reached(i);
        // The merge points bound the region; they are not inside it.
        for (std::size_t ci : ctx.cfmIdx)
            ctx.region[ci] = 0;
        ctx.regionValid = true;
    }
}

/** Exact-hammock marks must agree with CFG + post-dominator truth. */
void
lintHammock(const isa::Program &prog, const cfg::Cfg &graph,
            const cfg::PostDomTree &pdom, Addr pc,
            const DivergeMark &mark, Report &report)
{
    const cfg::BlockId blk = graph.blockContaining(pc);
    const Addr join = mark.cfmPoints.front();

    cfg::HammockInfo h = cfg::classifyHammock(graph, prog, blk);
    if (!h.isSimpleHammock) {
        report.add(Severity::Error, "hammock-shape", pc, blk,
                   "simple-hammock mark on a branch whose local CFG "
                   "shape is not a simple hammock");
    } else if (h.joinAddr != join) {
        report.add(Severity::Error, "hammock-join-mismatch", pc, blk,
                   "simple-hammock join " + hex(join) +
                       " disagrees with the CFG hammock join " +
                       hex(h.joinAddr));
    }

    // Dominator-tree ground truth: an exact hammock's join is the
    // branch block's immediate post-dominator.
    const Addr ipdom = pdom.ipdomAddr(pc);
    if (ipdom != kNoAddr && ipdom != join) {
        report.add(Severity::Error, "hammock-ipdom-mismatch", pc, blk,
                   "simple-hammock join " + hex(join) +
                       " is not the branch's immediate post-dominator " +
                       hex(ipdom));
    }
}

/** Nesting depth + overlap across all diverge regions. */
void
lintNesting(const isa::Program &prog, const cfg::Cfg &graph,
            std::vector<MarkCtx> &marks, const LintOptions &opts,
            Report &report)
{
    const std::size_t n = marks.size();
    // encl[e] = indices of marks whose region contains branch e.
    std::vector<std::vector<std::size_t>> encl(n);
    for (std::size_t d = 0; d < n; ++d) {
        if (!marks[d].regionValid)
            continue;
        for (std::size_t e = 0; e < n; ++e) {
            if (e == d || !marks[d].region[marks[e].idx])
                continue;
            encl[e].push_back(d);

            // Overlap: e sits inside d's region but merges entirely
            // outside of it (and not at d's own merge set) — the two
            // episodes interleave instead of nesting.
            if (!marks[e].cfmIdx.empty()) {
                bool merges_inside = false;
                for (std::size_t ci : marks[e].cfmIdx) {
                    if (marks[d].region[ci] ||
                        std::find(marks[d].cfmIdx.begin(),
                                  marks[d].cfmIdx.end(),
                                  ci) != marks[d].cfmIdx.end()) {
                        merges_inside = true;
                        break;
                    }
                }
                if (!merges_inside) {
                    report.add(
                        Severity::Warn, "diverge-overlap", marks[e].pc,
                        graph.blockContaining(marks[e].pc),
                        "diverge branch lies inside the region of the "
                        "diverge branch at " + hex(marks[d].pc) +
                            " but all its CFM points fall outside that "
                            "region: the markings overlap instead of "
                            "nesting");
                }
            }
        }
    }

    // Longest containment chain per mark (cycle-guarded DFS: mutually
    // containing regions — e.g. two branches sharing a loop — do not
    // contribute to depth).
    std::vector<unsigned> depth(n, 0);
    std::vector<char> state(n, 0); // 0 new, 1 on stack, 2 done
    auto dfs = [&](auto &&self, std::size_t e) -> unsigned {
        if (state[e] == 2)
            return depth[e];
        if (state[e] == 1)
            return 0; // cycle: break the chain
        state[e] = 1;
        unsigned best = 0;
        for (std::size_t d : encl[e])
            best = std::max(best, self(self, d));
        state[e] = 2;
        depth[e] = best + 1;
        return depth[e];
    };
    for (std::size_t e = 0; e < n; ++e) {
        if (dfs(dfs, e) > opts.maxPredicateDepth) {
            report.add(
                Severity::Warn, "nesting-depth", marks[e].pc,
                graph.blockContaining(marks[e].pc),
                "diverge branch is nested " + std::to_string(depth[e]) +
                    " regions deep, beyond the predicate-depth bound "
                    "of " + std::to_string(opts.maxPredicateDepth));
        }
    }
    (void)prog;
}

} // namespace

void
lintMarkings(const isa::Program &program, const cfg::Cfg &graph,
             const cfg::PostDomTree &pdom, const FlowGraph &flow,
             const LintOptions &opts, Report &report)
{
    std::vector<MarkCtx> diverge_marks;
    for (const auto &[pc, mark] : program.allMarks()) {
        if (!lintMarkStructure(program, graph, pc, mark, opts, report))
            continue;

        if (mark.isSimpleHammock)
            lintHammock(program, graph, pdom, pc, mark, report);

        if (mark.isDiverge) {
            MarkCtx ctx;
            ctx.pc = pc;
            ctx.idx = program.indexOf(pc);
            ctx.mark = &mark;
            lintReachability(program, graph, flow, ctx, opts, report);
            diverge_marks.push_back(std::move(ctx));
        }
    }
    lintNesting(program, graph, diverge_marks, opts, report);
}

} // namespace dmp::analysis
