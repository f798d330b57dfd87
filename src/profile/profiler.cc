#include "profile/profiler.hh"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "bpred/perceptron.hh"
#include "cfg/cfg.hh"
#include "cfg/dominators.hh"
#include "cfg/hammock.hh"
#include "common/logging.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"

namespace dmp::profile
{

using isa::kInstBytes;

BranchProfile
profileBranches(const isa::Program &program, std::size_t mem_bytes,
                std::uint64_t max_insts)
{
    BranchProfile out;
    isa::MemoryImage mem(mem_bytes);
    isa::FuncSim sim(program, mem);
    bpred::PerceptronPredictor predictor;
    std::uint64_t ghr = 0;

    // One threaded-dispatch pass over the whole train input; the
    // visitor only does real work on conditional branches.
    sim.visitRun(max_insts, [&](Addr pc, const isa::Inst &inst,
                                bool is_cond_branch, bool taken, Addr,
                                Addr) {
        ++out.totalInsts;
        if (!is_cond_branch)
            return;
        ++out.totalCondBranches;

        bpred::PredictionInfo pi;
        bool pred = predictor.predict(pc, ghr, pi);
        bool mispred = pred != taken;
        predictor.train(pc, taken, pi);
        ghr = (ghr << 1) | (taken ? 1 : 0);

        BranchStats &bs = out.branches[pc];
        ++bs.execs;
        bs.taken += taken;
        bs.mispredicts += mispred;
        bs.isBackward = inst.target != kNoAddr && inst.target <= pc;
        out.totalMispredicts += mispred;
    });
    return out;
}

namespace
{

/** One open reconvergence-tracking window. */
struct Window
{
    Addr branchPc;
    bool taken;
    unsigned remaining;
    std::vector<std::pair<Addr, unsigned>> trace; ///< (pc, distance)
};

/** Accumulators per (branch, side, address). */
struct SideAccum
{
    std::uint64_t instances = 0;
    /** addr -> (hit instances, total distance at first hit) */
    std::unordered_map<Addr, std::pair<std::uint64_t, std::uint64_t>>
        reach;
};

struct BranchAccum
{
    SideAccum side[2]; ///< [0] = not taken, [1] = taken
};

} // namespace

namespace
{

/**
 * One pass over the program feeding reconvergence windows.
 * @param credit_first_of when non-null, credit per window only the
 *        first trace address contained in the branch's qualifying set;
 *        otherwise credit every distinct address (qualification pass).
 */
void
runWindowPass(const isa::Program &program, std::size_t mem_bytes,
              std::uint64_t max_insts,
              const std::unordered_set<Addr> &candidate_set,
              const MarkerConfig &cfg,
              const std::map<Addr, std::unordered_set<Addr>>
                  *credit_first_of,
              std::unordered_map<Addr, BranchAccum> &accum)
{
    isa::MemoryImage mem(mem_bytes);
    isa::FuncSim sim(program, mem);
    std::unordered_map<Addr, unsigned> sample_counter;
    std::vector<Window> windows;

    auto close_window = [&](Window &w) {
        SideAccum &sa = accum[w.branchPc].side[w.taken ? 1 : 0];
        ++sa.instances;
        if (credit_first_of) {
            auto it = credit_first_of->find(w.branchPc);
            if (it == credit_first_of->end())
                return;
            for (const auto &[pc, dist] : w.trace) {
                if (it->second.count(pc)) {
                    auto &cell = sa.reach[pc];
                    ++cell.first;
                    cell.second += dist;
                    return; // first qualifying address only
                }
            }
            return;
        }
        // Qualification pass: first occurrence of each distinct address.
        std::unordered_set<Addr> seen;
        for (const auto &[pc, dist] : w.trace) {
            if (seen.insert(pc).second) {
                auto &cell = sa.reach[pc];
                ++cell.first;
                cell.second += dist;
            }
        }
    };

    sim.visitRun(max_insts, [&](Addr pc, const isa::Inst &,
                                bool is_cond_branch, bool taken,
                                Addr next_pc, Addr) {
        // Feed open windows with the address of the *next* instruction
        // (reconvergence is about reaching a control-independent point
        // after the branch). A window ends when its own branch executes
        // again: reconvergence is a property of the current dynamic
        // instance, and letting the window wrap into the next loop
        // iteration would make every loop-body address look like a
        // merge point for both sides.
        for (std::size_t i = 0; i < windows.size();) {
            Window &w = windows[i];
            if (pc == w.branchPc) {
                close_window(w);
                windows[i] = std::move(windows.back());
                windows.pop_back();
                continue;
            }
            w.trace.emplace_back(next_pc,
                                 unsigned(w.trace.size() + 1));
            if (--w.remaining == 0) {
                close_window(w);
                windows[i] = std::move(windows.back());
                windows.pop_back();
            } else {
                ++i;
            }
        }

        if (is_cond_branch && candidate_set.count(pc)) {
            unsigned &ctr = sample_counter[pc];
            if (ctr++ % cfg.cfmSampleRate == 0) {
                Window w;
                w.branchPc = pc;
                w.taken = taken;
                w.remaining = cfg.maxCfmDistance;
                w.trace.reserve(cfg.maxCfmDistance);
                // The first post-branch address (the branch's own
                // successor) is part of the searched region.
                w.trace.emplace_back(next_pc, 1u);
                windows.push_back(std::move(w));
            }
        }
    });
    for (Window &w : windows)
        close_window(w);
}

/** Extract threshold-qualified candidates from an accumulation. */
std::map<Addr, CfmProfile>
extractCandidates(const std::vector<Addr> &candidates,
                  const std::unordered_map<Addr, BranchAccum> &accum,
                  const MarkerConfig &cfg)
{
    std::map<Addr, CfmProfile> out;
    for (Addr pc : candidates) {
        auto it = accum.find(pc);
        if (it == accum.end())
            continue;
        const BranchAccum &ba = it->second;
        if (ba.side[0].instances == 0 || ba.side[1].instances == 0)
            continue; // one-sided branches cannot diverge-merge

        CfmProfile prof;
        for (const auto &[addr, nt_cell] : ba.side[0].reach) {
            auto t_it = ba.side[1].reach.find(addr);
            if (t_it == ba.side[1].reach.end())
                continue;
            if (addr == pc)
                continue; // the branch itself is never its own CFM
            CfmCandidate c;
            c.addr = addr;
            c.notTakenFraction =
                double(nt_cell.first) / double(ba.side[0].instances);
            c.takenFraction = double(t_it->second.first) /
                              double(ba.side[1].instances);
            c.meanDistance =
                (double(nt_cell.second) / double(nt_cell.first) +
                 double(t_it->second.second) /
                     double(t_it->second.first)) /
                2.0;
            if (c.takenFraction >= cfg.reconvergeFraction &&
                c.notTakenFraction >= cfg.reconvergeFraction) {
                prof.candidates.push_back(c);
            }
        }
        std::sort(prof.candidates.begin(), prof.candidates.end(),
                  [](const CfmCandidate &a, const CfmCandidate &b) {
                      if (a.score() != b.score())
                          return a.score() > b.score();
                      return a.meanDistance < b.meanDistance;
                  });
        if (!prof.candidates.empty())
            out.emplace(pc, std::move(prof));
    }
    return out;
}

} // namespace

std::map<Addr, CfmProfile>
profileCfmPoints(const isa::Program &program, std::size_t mem_bytes,
                 std::uint64_t max_insts,
                 const std::vector<Addr> &candidates,
                 const MarkerConfig &cfg)
{
    std::unordered_set<Addr> candidate_set(candidates.begin(),
                                           candidates.end());

    // Phase A: qualify reconvergence addresses (reached by >= 20% of
    // dynamic instances on both sides within the distance bound).
    std::unordered_map<Addr, BranchAccum> accum_a;
    runWindowPass(program, mem_bytes, max_insts, candidate_set, cfg,
                  nullptr, accum_a);
    std::map<Addr, CfmProfile> qualified =
        extractCandidates(candidates, accum_a, cfg);

    // Phase B: re-profile crediting only the *first* qualifying address
    // each dynamic instance reaches. This collapses runs of addresses
    // behind one merge point into the merge point itself, so the
    // resulting list holds genuinely distinct CFM points (the multiple-
    // CFM-point CAM of section 2.7.1 wants alternatives, not a prefix
    // of one merge body).
    std::map<Addr, std::unordered_set<Addr>> qualifying_sets;
    for (const auto &[pc, prof] : qualified) {
        auto &set = qualifying_sets[pc];
        for (const CfmCandidate &c : prof.candidates)
            set.insert(c.addr);
    }
    std::unordered_map<Addr, BranchAccum> accum_b;
    runWindowPass(program, mem_bytes, max_insts, candidate_set, cfg,
                  &qualifying_sets, accum_b);
    return extractCandidates(candidates, accum_b, cfg);
}

MarkingReport
profileAndMark(isa::Program &program, std::size_t mem_bytes,
               const MarkerConfig &cfg)
{
    MarkingReport report;
    report.profile = profileBranches(program, mem_bytes,
                                     cfg.profileInsts);
    const BranchProfile &bp = report.profile;

    // Static structure for hammock marking and Figure 6 classification.
    cfg::Cfg graph = cfg::Cfg::build(program);

    // Candidate selection: >= 0.1% of all mispredictions.
    std::vector<Addr> candidates;
    double threshold =
        cfg.mispredShare * double(bp.totalMispredicts);
    for (const auto &[pc, bs] : bp.branches) {
        if (double(bs.mispredicts) < std::max(1.0, threshold))
            continue;
        if (bs.execs == 0 ||
            double(bs.mispredicts) / double(bs.execs) <
                cfg.minMispredictRate) {
            continue;
        }
        candidates.push_back(pc);
    }
    report.candidateBranches = candidates.size();

    std::vector<Addr> forward_candidates;
    std::vector<Addr> backward_candidates;
    for (Addr pc : candidates) {
        if (bp.branches.at(pc).isBackward)
            backward_candidates.push_back(pc);
        else
            forward_candidates.push_back(pc);
    }

    auto cfm_profiles = profileCfmPoints(program, mem_bytes,
                                         cfg.profileInsts,
                                         forward_candidates, cfg);

    program.clearMarks();

    // Static simple-hammock marks (for the DHP baseline) on every
    // conditional branch with the right local shape.
    std::unordered_map<Addr, Addr> hammock_joins;
    for (cfg::BlockId b = 0; b < cfg::BlockId(graph.size()); ++b) {
        const cfg::BasicBlock &bb = graph.block(b);
        if (!bb.endsInCondBranch)
            continue;
        cfg::HammockInfo h = cfg::classifyHammock(graph, program, b);
        if (h.isSimpleHammock)
            hammock_joins[bb.lastInstPc()] = h.joinAddr;
    }

    for (const auto &[pc, join] : hammock_joins) {
        isa::DivergeMark mark;
        mark.isSimpleHammock = true;
        mark.cfmPoints.push_back(join);
        program.setMark(pc, mark);
        ++report.markedSimpleHammock;
    }

    // Diverge marks from the CFM profile.
    for (const auto &[pc, prof] : cfm_profiles) {
        isa::DivergeMark mark;
        if (const isa::DivergeMark *existing = program.mark(pc))
            mark = *existing;
        mark.isDiverge = true;
        double mean_dist = 0;
        for (const CfmCandidate &c : prof.candidates) {
            if (mark.cfmPoints.size() >= cfg.maxCfmPoints)
                break;
            if (std::find(mark.cfmPoints.begin(), mark.cfmPoints.end(),
                          c.addr) == mark.cfmPoints.end()) {
                mark.cfmPoints.push_back(c.addr);
            }
            if (mean_dist == 0)
                mean_dist = c.meanDistance;
        }
        // A hammock join discovered statically keeps priority order; the
        // profile-driven list already contains it in practice.
        unsigned n = unsigned(cfg.earlyExitScale * mean_dist);
        mark.earlyExitThreshold =
            std::clamp(n, cfg.earlyExitMin, cfg.earlyExitMax);
        program.setMark(pc, mark);
        ++report.markedDiverge;
    }

    // Static fallback: candidates without a profiled CFM can use their
    // immediate post-dominator when it lies within the distance bound
    // (measured statically as an instruction-count lower bound).
    if (cfg.usePostDomFallback) {
        cfg::PostDomTree pdom(graph);
        for (Addr pc : forward_candidates) {
            if (program.mark(pc) && program.mark(pc)->isDiverge)
                continue;
            Addr ipdom = pdom.ipdomAddr(pc);
            if (ipdom == kNoAddr || ipdom == pc)
                continue;
            // Static distance sanity: a post-dominator *behind* the
            // branch (loop header) is not a forward merge point.
            if (ipdom <= pc)
                continue;
            if ((ipdom - pc) / kInstBytes > cfg.maxCfmDistance)
                continue;
            isa::DivergeMark mark;
            if (const isa::DivergeMark *existing = program.mark(pc))
                mark = *existing;
            mark.isDiverge = true;
            mark.cfmPoints.push_back(ipdom);
            mark.earlyExitThreshold = cfg.earlyExitMin;
            program.setMark(pc, mark);
            ++report.markedDiverge;
        }
    }

    // Optional extension: backward (loop) diverge branches, CFM = the
    // loop exit (fall-through of the backward branch).
    if (cfg.markLoopBranches) {
        for (Addr pc : backward_candidates) {
            if (program.mark(pc))
                continue;
            // A backward branch that is the last instruction has no
            // loop exit to merge at; marking it would produce a CFM
            // one past the image.
            if (!program.contains(pc + kInstBytes))
                continue;
            isa::DivergeMark mark;
            mark.isDiverge = true;
            mark.isLoopBranch = true;
            mark.cfmPoints.push_back(pc + kInstBytes);
            mark.earlyExitThreshold = cfg.earlyExitMin;
            program.setMark(pc, mark);
            ++report.markedLoop;
        }
    }

    // Figure 6 classification of all profiled mispredictions.
    report.classification.totalInsts = bp.totalInsts;
    for (const auto &[pc, bs] : bp.branches) {
        const isa::DivergeMark *m = program.mark(pc);
        if (m && m->isDiverge && m->isSimpleHammock) {
            report.classification.simpleHammockDiverge += bs.mispredicts;
        } else if (m && m->isDiverge) {
            report.classification.complexDiverge += bs.mispredicts;
        } else {
            report.classification.otherComplex += bs.mispredicts;
        }
    }

    return report;
}

void
transferMarks(const isa::Program &from, isa::Program &to)
{
    to.clearMarks();
    for (const auto &[pc, mark] : from.allMarks())
        to.setMark(pc, mark);
}

} // namespace dmp::profile
