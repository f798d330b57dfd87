#include "profile/profiler.hh"

#include <algorithm>

#include "bpred/perceptron.hh"
#include "cfg/cfg.hh"
#include "cfg/hammock.hh"
#include "common/logging.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"

namespace dmp::profile
{

using isa::kInstBytes;

namespace
{

/**
 * A retired instruction whose successor is not the next static
 * instruction: a taken branch, a jump, a call or a return.
 */
struct Jump
{
    std::size_t at;       ///< retirement index
    std::uint32_t target; ///< successor's static index
};

/** One conditional branch retired by the train run. */
struct BranchEvent
{
    std::size_t at;    ///< retirement index
    std::size_t jump;  ///< index of the first jump retired at or after it
    std::uint32_t idx; ///< static instruction index
    bool taken;
};

/**
 * The train run, recorded once: the branch profile, every retired
 * jump and every conditional branch. The instruction retired at i + 1
 * is the successor of the one retired at i: the jump's target when a
 * jump sits at i, else the next static instruction. Only the last
 * retired instruction can leave the image (a HALT that ends it, or a
 * jump out on the last budgeted instruction); that successor is
 * program.size(). `jumps` ends with a sentinel at `profile.totalInsts`,
 * so a walk needs no bounds check.
 */
struct TrainRecord
{
    BranchProfile profile;
    std::vector<Jump> jumps;
    std::vector<BranchEvent> branches;
};

/**
 * Replay the train run's conditional branches, in retirement order,
 * through the simulated predictor to fill rec.profile.
 */
void
replayPredictor(const isa::Program &program, TrainRecord &rec)
{
    BranchProfile &out = rec.profile;
    std::vector<BranchStats> stats(program.size());
    bpred::PerceptronPredictor predictor;
    std::uint64_t ghr = 0;
    for (const BranchEvent &ev : rec.branches) {
        const Addr pc = program.baseAddr() + Addr(ev.idx) * kInstBytes;
        bpred::PredictionInfo pi;
        const bool mispred = predictor.predict(pc, ghr, pi) != ev.taken;
        predictor.train(pc, ev.taken, pi);
        ghr = (ghr << 1) | (ev.taken ? 1 : 0);

        BranchStats &bs = stats[ev.idx];
        ++bs.execs;
        bs.taken += ev.taken;
        bs.mispredicts += mispred;
        out.totalMispredicts += mispred;
    }
    out.totalCondBranches = rec.branches.size();

    for (std::size_t i = 0; i < stats.size(); ++i) {
        if (stats[i].execs == 0)
            continue;
        const Addr pc = program.baseAddr() + Addr(i) * kInstBytes;
        const Addr target = program.instAt(i).target;
        stats[i].isBackward = target != kNoAddr && target <= pc;
        out.branches.emplace_hint(out.branches.end(), pc, stats[i]);
    }
}

TrainRecord
recordTrainRun(const isa::Program &program, std::size_t mem_bytes,
               std::uint64_t max_insts)
{
    TrainRecord rec;
    isa::MemoryImage mem(mem_bytes);
    isa::FuncSim sim(program, mem);

    // One threaded-dispatch pass over the whole train input; the
    // visitor records only jumps and conditional branches.
    std::size_t at = 0;
    sim.visitRun(max_insts, [&](Addr pc, const isa::Inst &,
                                bool is_cond_branch, bool taken,
                                Addr next_pc, Addr) {
        if (is_cond_branch) {
            rec.branches.push_back({at, rec.jumps.size(),
                                    std::uint32_t(program.indexOf(pc)),
                                    taken});
        }
        if (next_pc != pc + kInstBytes) {
            rec.jumps.push_back(
                {at, program.contains(next_pc)
                         ? std::uint32_t(program.indexOf(next_pc))
                         : std::uint32_t(program.size())});
        }
        ++at;
    });
    rec.profile.totalInsts = at;
    rec.jumps.push_back({at, std::uint32_t(program.size())});

    replayPredictor(program, rec);
    return rec;
}

/**
 * A sampled instance: it credits the successor of each instruction
 * retired at f in [begin, end), at distance f - begin + 1. `jump`
 * indexes the first jump retired at or after `begin`.
 */
struct Window
{
    std::size_t begin;
    std::size_t end;
    std::size_t jump;
    bool taken;
};

/**
 * Walk window `w` of the branch at static index `idx`: call fn(a, d)
 * with each successor a and its distance d, in order, until fn
 * returns true.
 */
template <class Fn>
void
walkWindow(const TrainRecord &rec, std::uint32_t idx, const Window &w,
           Fn &&fn)
{
    const Jump *j = &rec.jumps[w.jump];
    std::uint32_t cur = idx;
    for (std::size_t f = w.begin; f < w.end; ++f) {
        cur = j->at == f ? (j++)->target : cur + 1;
        if (fn(cur, f - w.begin + 1))
            return;
    }
}

/** Instances of one side that reach one address, and their distance. */
struct Reach
{
    std::uint64_t hits = 0;
    std::uint64_t distSum = 0;
};

/** Threshold-qualified CFM candidates of branch `pc`, best first. */
std::vector<CfmCandidate>
extractCandidates(const isa::Program &program, Addr pc,
                  const std::vector<Reach> (&reach)[2],
                  const std::uint64_t (&instances)[2],
                  const MarkerConfig &cfg)
{
    std::vector<CfmCandidate> out;
    // The outside-successor slot at program.size() is left out: only
    // a branch's final window can reach it, so it never has hits on
    // both sides.
    for (std::size_t a = 0; a < program.size(); ++a) {
        const Reach &nt = reach[0][a];
        const Reach &t = reach[1][a];
        if (nt.hits == 0 || t.hits == 0)
            continue;
        CfmCandidate c;
        c.addr = program.baseAddr() + Addr(a) * kInstBytes;
        if (c.addr == pc)
            continue; // the branch itself is never its own CFM
        c.notTakenFraction = double(nt.hits) / double(instances[0]);
        c.takenFraction = double(t.hits) / double(instances[1]);
        c.meanDistance = (double(nt.distSum) / double(nt.hits) +
                          double(t.distSum) / double(t.hits)) /
                         2.0;
        if (c.takenFraction >= cfg.reconvergeFraction &&
            c.notTakenFraction >= cfg.reconvergeFraction) {
            out.push_back(c);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const CfmCandidate &a, const CfmCandidate &b) {
                  if (a.score() != b.score())
                      return a.score() > b.score();
                  if (a.meanDistance != b.meanDistance)
                      return a.meanDistance < b.meanDistance;
                  return a.addr < b.addr;
              });
    return out;
}

/** CFM discovery for `candidates`, replayed from the train record. */
std::map<Addr, CfmProfile>
discoverCfms(const isa::Program &program, const TrainRecord &rec,
             const std::vector<Addr> &candidates, const MarkerConfig &cfg)
{
    if (cfg.cfmSampleRate == 0 || cfg.maxCfmDistance == 0) {
        dmp_fatal("MarkerConfig.cfmSampleRate and maxCfmDistance must be "
                  "at least 1, got ", cfg.cfmSampleRate, " and ",
                  cfg.maxCfmDistance);
    }
    std::vector<bool> wanted(program.size(), false);
    for (Addr pc : candidates) {
        if (program.contains(pc))
            wanted[program.indexOf(pc)] = true;
    }

    // Sample one in cfmSampleRate instances of each candidate. A window
    // closes when its own branch executes again (reconvergence is a
    // property of the current dynamic instance; wrapping into the next
    // loop iteration would make every loop-body address look like a
    // merge point for both sides), after maxCfmDistance further
    // instructions, or at the end of the budget.
    const std::size_t n = rec.profile.totalInsts;
    const std::size_t span = std::size_t(cfg.maxCfmDistance) + 1;
    std::vector<std::vector<Window>> windows(program.size());
    std::vector<unsigned> sample_counter(program.size(), 0);
    for (const BranchEvent &ev : rec.branches) {
        if (!wanted[ev.idx])
            continue;
        std::vector<Window> &ws = windows[ev.idx];
        if (!ws.empty())
            ws.back().end = std::min(ws.back().end, ev.at);
        if (sample_counter[ev.idx]++ % cfg.cfmSampleRate == 0)
            ws.push_back(
                {ev.at, std::min(n, ev.at + span), ev.jump, ev.taken});
    }

    // Indexed by static instruction plus the outside-successor slot.
    const std::size_t slots = program.size() + 1;
    std::vector<Reach> reach[2];
    std::vector<std::uint32_t> stamp(slots, 0);
    std::uint32_t epoch = 0;

    std::map<Addr, CfmProfile> out;
    for (std::size_t idx = 0; idx < program.size(); ++idx) {
        const Addr pc = program.baseAddr() + Addr(idx) * kInstBytes;
        std::uint64_t instances[2] = {0, 0};
        for (const Window &w : windows[idx])
            ++instances[w.taken];
        if (instances[0] == 0 || instances[1] == 0)
            continue; // one-sided branches cannot diverge-merge

        // Phase A: qualify reconvergence addresses (reached by >= 20%
        // of dynamic instances on both sides within the distance
        // bound), crediting each distinct address at its first
        // occurrence in a window.
        for (auto &side : reach)
            side.assign(slots, Reach{});
        for (const Window &w : windows[idx]) {
            ++epoch; // stamps the addresses this window has credited
            walkWindow(rec, std::uint32_t(idx), w,
                       [&](std::uint32_t a, std::size_t dist) {
                           if (stamp[a] != epoch) {
                               stamp[a] = epoch;
                               Reach &r = reach[w.taken][a];
                               ++r.hits;
                               r.distSum += dist;
                           }
                           return false;
                       });
        }
        const std::vector<CfmCandidate> qualified =
            extractCandidates(program, pc, reach, instances, cfg);
        if (qualified.empty())
            continue;

        // Phase B: credit only the *first* qualifying address each
        // dynamic instance reaches. This collapses runs of addresses
        // behind one merge point into the merge point itself, so the
        // resulting list holds genuinely distinct CFM points (the
        // multiple-CFM-point CAM of section 2.7.1 wants alternatives,
        // not a prefix of one merge body).
        ++epoch; // stamps this branch's qualifying addresses
        for (const CfmCandidate &c : qualified)
            stamp[program.indexOf(c.addr)] = epoch;
        for (auto &side : reach)
            side.assign(slots, Reach{});
        for (const Window &w : windows[idx]) {
            walkWindow(rec, std::uint32_t(idx), w,
                       [&](std::uint32_t a, std::size_t dist) {
                           if (stamp[a] != epoch)
                               return false;
                           Reach &r = reach[w.taken][a];
                           ++r.hits;
                           r.distSum += dist;
                           return true;
                       });
        }

        CfmProfile prof;
        prof.candidates =
            extractCandidates(program, pc, reach, instances, cfg);
        if (!prof.candidates.empty())
            out.emplace(pc, std::move(prof));
    }
    return out;
}

} // namespace

BranchProfile
profileBranches(const isa::Program &program, std::size_t mem_bytes,
                std::uint64_t max_insts)
{
    return recordTrainRun(program, mem_bytes, max_insts).profile;
}

std::map<Addr, CfmProfile>
profileCfmPoints(const isa::Program &program, std::size_t mem_bytes,
                 std::uint64_t max_insts,
                 const std::vector<Addr> &candidates,
                 const MarkerConfig &cfg)
{
    return discoverCfms(program,
                        recordTrainRun(program, mem_bytes, max_insts),
                        candidates, cfg);
}

unsigned
earlyExitThreshold(double meanDistance)
{
    const unsigned n = unsigned(kEarlyExitScale * meanDistance);
    return std::clamp(n, kEarlyExitMin, kEarlyExitMax);
}

MarkingReport
profileAndMark(isa::Program &program, std::size_t mem_bytes,
               const MarkerConfig &cfg)
{
    MarkingReport report;
    TrainRecord rec = recordTrainRun(program, mem_bytes, cfg.profileInsts);
    const BranchProfile &bp = rec.profile;

    // Static structure for hammock marking and Figure 6 classification.
    cfg::Cfg graph = cfg::Cfg::build(program);

    // Candidate selection: >= 0.1% of all mispredictions.
    std::vector<Addr> candidates;
    double threshold = kMispredShare * double(bp.totalMispredicts);
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

    auto cfm_profiles =
        discoverCfms(program, rec, forward_candidates, cfg);

    program.clearMarks();

    // Static simple-hammock marks (for the DHP baseline) on every
    // conditional branch with the right local shape.
    report.markedSimpleHammock =
        cfg::markSimpleHammocks(graph, program).size();

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
        mark.earlyExitThreshold = earlyExitThreshold(mean_dist);
        program.setMark(pc, mark);
        ++report.markedDiverge;
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
            mark.earlyExitThreshold = kEarlyExitMin;
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

    report.profile = std::move(rec.profile);
    return report;
}

void
transferMarks(const isa::Program &from, isa::Program &to)
{
    to.setMarks(from.allMarks());
}

} // namespace dmp::profile
