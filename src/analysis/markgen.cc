#include "analysis/markgen.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "analysis/flowgraph.hh"
#include "analysis/lint.hh"
#include "analysis/report.hh"
#include "cfg/cfg.hh"
#include "cfg/dominators.hh"
#include "cfg/hammock.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/trace.hh"

namespace dmp::analysis
{

namespace
{

using cfg::BasicBlock;
using cfg::BlockId;
using cfg::Cfg;
using cfg::kNoBlock;
using isa::kInstBytes;

using trace::hex;

// Cost model. These are architectural constants of the Table 2 machine
// (CoreParams defaults), not per-run knobs: the synthesized marking
// must be invariant across core sweeps so the batch profile cache can
// share it the way it shares profiled markings.
/** Cycles refilling the pipeline after a flush (frontendDepth). */
constexpr double kFlushPenalty = 30.0;
/** Instructions retired per cycle at best (retireWidth). */
constexpr double kRetireWidth = 8.0;
/**
 * Fraction of mispredictions the confidence estimator flags as
 * low-confidence (i.e. fraction of flushes predication can avoid).
 */
constexpr double kConfidenceCoverage = 0.5;
/** Predication episodes entered per misprediction (overtrigger). */
constexpr double kEpisodesPerMispredict = 2.0;
/** Select a branch when freq-weighted net cycles exceed this. */
constexpr double kMinNetBenefit = 0.0;

/**
 * Successor relation of the frequent-path CFG: per-block successors
 * with edges of probability below `prune` removed. A block never loses
 * its last successor (a node with no out-edges would read as an exit
 * to the post-dominator pass).
 */
std::vector<std::vector<BlockId>>
prunedSuccs(const isa::Program &program, const Cfg &graph,
            const FreqEstimate &freq, double prune)
{
    std::vector<std::vector<BlockId>> succs(graph.size());
    for (BlockId b = 0; b < BlockId(graph.size()); ++b) {
        const BasicBlock &bb = graph.block(b);
        if (!bb.endsInCondBranch || bb.succs.size() < 2) {
            succs[b] = bb.succs;
            continue;
        }
        const isa::Inst &inst = program.fetch(bb.lastInstPc());
        const BlockId taken = program.contains(inst.target)
                                  ? graph.blockStartingAt(inst.target)
                                  : kNoBlock;
        // Heuristic probability, not the proof-refined one: a proved
        // 0/1 would prune the dead edge and move the frequent-path
        // post-dominators, relocating CFM points and early-exit
        // thresholds of *other* branches. CFM placement stays a pure
        // function of the heuristics so proofs cannot perturb it.
        const double p = freq.heurTakenProb[b];
        for (BlockId s : bb.succs) {
            const double ep = (s == taken) ? p : 1.0 - p;
            if (ep >= prune)
                succs[b].push_back(s);
        }
        if (succs[b].empty())
            succs[b] = bb.succs;
    }
    return succs;
}

} // namespace

MarkGenReport
synthesizeMarks(isa::Program &program, const MarkGenConfig &cfg)
{
    MarkGenReport report;
    const Cfg graph = Cfg::build(program);
    if (graph.size() == 0)
        return report;
    AbsintResult absint;
    if (cfg.useAbsint) {
        // Proofs are exact for *this* image (seeded immediates and
        // initial data included), so the caller must analyze the image
        // it will actually run — prepareMarkedProgram/BatchRunner
        // synthesize static marks on the ref build, never transferring
        // them from the differently-seeded train build.
        absint = runAbsint(program);
        report.absintRan = absint.ran;
        report.absintStats = absint.stats;
    }
    const FreqEstimate freq = estimateFrequencies(
        program, graph, cfg.useAbsint ? &absint : nullptr);
    const cfg::PostDomTree pdom(graph);
    const FlowGraph flow(program);
    const std::vector<BlockId> fpIpdom = cfg::computeIpdoms(
        prunedSuccs(program, graph, freq, cfg.pruneProbability));

    program.clearMarks();

    // Simple-hammock marks (the DHP baseline), the same set the
    // profiled marker writes.
    std::map<Addr, Addr> hammockJoins;
    if (cfg.markHammocks) {
        hammockJoins = cfg::markSimpleHammocks(graph, program);
        report.markedSimpleHammock = hammockJoins.size();
    }

    // Examine every conditional branch in address order.
    for (BlockId b = 0; b < BlockId(graph.size()); ++b) {
        const BasicBlock &bb = graph.block(b);
        if (!bb.endsInCondBranch)
            continue;
        const Addr pc = bb.lastInstPc();
        const isa::Inst &inst = program.fetch(pc);

        MarkCandidate cand;
        cand.pc = pc;
        cand.takenProb = freq.takenProb[b];
        cand.heuristic = freq.heuristic[b];
        cand.blockFreq = freq.blockFreq[b];
        // Mispredict estimate from the *heuristic* probability, even
        // when a proof pinned takenProb to 0/1: a proved static bias
        // sharpens frequencies and trip bounds but says nothing about
        // the dynamic predictor or the machine-level effects of the
        // mark itself, so it must not flip a branch the heuristics
        // would select to "predictable" (measured: unmarking mcf's
        // proved one-sided branches costs it a third of its static
        // flush reduction).
        cand.mispredictEstimate = std::min(freq.heurTakenProb[b],
                                           1.0 - freq.heurTakenProb[b]);
        cand.isLoop = inst.target != kNoAddr && inst.target <= pc;
        if (absint.ran) {
            const BranchProof proof = absint.proofAt(pc);
            if (proof.status == BranchProof::Status::Taken)
                cand.proof = "taken";
            else if (proof.status == BranchProof::Status::NotTaken)
                cand.proof = "not-taken";
            cand.tripBound = proof.tripMax;
        }

        const auto finish = [&](std::string reason) {
            cand.reason = std::move(reason);
            report.candidates.push_back(cand);
        };

        if (cand.isLoop && !cfg.marker.markLoopBranches) {
            finish("backward");
            continue;
        }
        if (cand.mispredictEstimate < cfg.marker.minMispredictRate) {
            finish("predictable");
            continue;
        }
        if (!program.contains(pc + kInstBytes)) {
            // A branch ending the image has no fall-through side (and a
            // loop branch there has no exit to merge at).
            finish("at-image-end");
            continue;
        }

        // Candidate CFM points: the frequent-path ipdom chain first
        // (the static analogue of "merge point of the frequently
        // executed paths"), then the full-CFG ipdom chain as backstop.
        // Every entry must be a forward merge reachable from BOTH
        // branch outcomes within the distance bound — the exact
        // invariants the legality linter enforces.
        const FlowGraph::Reach takenReach =
            program.contains(inst.target)
                ? flow.reach(program.indexOf(inst.target))
                : FlowGraph::Reach{};
        const FlowGraph::Reach fallReach =
            flow.reach(program.indexOf(pc + kInstBytes));
        const bool takenValid = !takenReach.dist.empty();

        auto tryCfm = [&](Addr addr) {
            if (cand.cfmPoints.size() >= cfg.marker.maxCfmPoints)
                return;
            if (addr == kNoAddr || addr <= pc || !takenValid ||
                !program.contains(addr))
                return;
            if (std::find(cand.cfmPoints.begin(), cand.cfmPoints.end(),
                          addr) != cand.cfmPoints.end())
                return;
            const std::size_t ci = program.indexOf(addr);
            if (!takenReach.reached(ci) || !fallReach.reached(ci))
                return;
            const double dTaken = 1.0 + takenReach.dist[ci];
            const double dFall = 1.0 + fallReach.dist[ci];
            if (std::min(dTaken, dFall) > cfg.marker.maxCfmDistance)
                return;
            if (cand.cfmPoints.empty()) {
                cand.meanDistance = (dTaken + dFall) / 2.0;
                // False path: the side the branch does NOT go. Taken
                // with probability p leaves the fall side predicated.
                // Heuristic p, like the mispredict estimate above:
                // the cost model is a predictor/episode model, which
                // proofs are not part of.
                const double hp = freq.heurTakenProb[b];
                cand.predicatedWork =
                    hp * dFall + (1.0 - hp) * dTaken;
            }
            cand.cfmPoints.push_back(addr);
        };

        if (cand.isLoop) {
            // Loop diverge branch: merge at the fall-through loop exit
            // (section 2.7.4), as the profiled marker does.
            tryCfm(pc + kInstBytes);
        } else {
            if (auto it = hammockJoins.find(pc); it != hammockJoins.end())
                tryCfm(it->second);
            for (BlockId c = fpIpdom[b], hops = 0;
                 c != kNoBlock && hops < 8; c = fpIpdom[c], ++hops)
                tryCfm(graph.block(c).start);
            for (BlockId c = pdom.ipdom(b), hops = 0;
                 c != kNoBlock && hops < 8; c = pdom.ipdom(c), ++hops)
                tryCfm(graph.block(c).start);
        }

        if (cand.cfmPoints.empty()) {
            finish("no-cfm");
            continue;
        }

        // Cost model: expected flush cycles saved per execution against
        // predicated-work overhead per execution, weighted by the
        // estimated execution frequency. This is the static mirror of
        // the dynamic per-branch net-cycle estimate
        // (flushes-avoided x frontendDepth - false-path insts / retire
        // width) the accounting sink reports.
        const double episodes =
            std::min(1.0, kEpisodesPerMispredict * cand.mispredictEstimate);
        cand.flushSavings = cand.mispredictEstimate *
                            kConfidenceCoverage * kFlushPenalty;
        const double overhead =
            episodes * cand.predicatedWork / kRetireWidth;
        cand.netBenefit =
            cand.blockFreq * (cand.flushSavings - overhead);
        if (cand.netBenefit <= kMinNetBenefit) {
            finish("cost");
            continue;
        }

        isa::DivergeMark mark;
        if (const isa::DivergeMark *existing = program.mark(pc))
            mark = *existing;
        mark.isDiverge = true;
        mark.isLoopBranch = cand.isLoop;
        mark.cfmPoints = cand.cfmPoints;
        mark.earlyExitThreshold =
            profile::earlyExitThreshold(cand.meanDistance);
        program.setMark(pc, mark);
        if (cand.isLoop)
            ++report.markedLoop;
        else
            ++report.markedDiverge;
        cand.selected = true;
        finish("selected");
    }

    // Legalize: the candidates above were validated against the same
    // flow-graph ground truth the linter uses, so this pass should find
    // nothing — but the linter is the oracle, so give it the last word
    // and drop any diverge mark it rejects.
    LintOptions lo;
    lo.marker = cfg.marker;
    lo.maxPredicateDepth = cfg.maxPredicateDepth;
    for (int pass = 0; pass < 4; ++pass) {
        Report lint;
        lintMarkings(program, graph, pdom, flow, lo, lint);
        report.lintErrors = lint.errors();
        report.lintWarnings = lint.warnings();
        report.lintInfos = lint.infos();
        std::set<Addr> drop;
        for (const Finding &f : lint.findings()) {
            if (f.severity == Severity::Error && f.pc != kNoAddr)
                drop.insert(f.pc);
        }
        if (drop.empty())
            break;
        std::map<Addr, isa::DivergeMark> keep = program.allMarks();
        for (Addr pc : drop) {
            keep.erase(pc);
            ++report.droppedIllegal;
            for (MarkCandidate &c : report.candidates) {
                if (c.pc == pc && c.selected) {
                    c.selected = false;
                    c.reason = "lint-rejected";
                    if (c.isLoop)
                        --report.markedLoop;
                    else
                        --report.markedDiverge;
                }
            }
        }
        program.clearMarks();
        for (const auto &[pc, mark] : keep)
            program.setMark(pc, mark);
    }

    return report;
}

MarkAgreement
compareMarkings(const isa::Program &statically_marked,
                const isa::Program &profiled)
{
    MarkAgreement a;
    std::map<Addr, const isa::DivergeMark *> sdiv, pdiv;
    for (const auto &[pc, m] : statically_marked.allMarks())
        if (m.isDiverge)
            sdiv[pc] = &m;
    for (const auto &[pc, m] : profiled.allMarks())
        if (m.isDiverge)
            pdiv[pc] = &m;
    a.staticDiverge = sdiv.size();
    a.profileDiverge = pdiv.size();

    for (const auto &[pc, sm] : sdiv) {
        auto it = pdiv.find(pc);
        if (it == pdiv.end())
            continue;
        ++a.commonDiverge;
        const isa::DivergeMark *pm = it->second;
        if (sm->cfmPoints.empty() || pm->cfmPoints.empty())
            continue;
        ++a.cfmComparable;
        if (sm->cfmPoints.front() == pm->cfmPoints.front())
            ++a.cfmPrimaryMatch;
        for (Addr c : sm->cfmPoints) {
            if (std::find(pm->cfmPoints.begin(), pm->cfmPoints.end(),
                          c) != pm->cfmPoints.end()) {
                ++a.cfmAnyMatch;
                break;
            }
        }
    }
    if (a.staticDiverge)
        a.divergePrecision = double(a.commonDiverge) / a.staticDiverge;
    if (a.profileDiverge)
        a.divergeRecall = double(a.commonDiverge) / a.profileDiverge;
    if (a.cfmComparable)
        a.cfmMatchRate = double(a.cfmAnyMatch) / a.cfmComparable;
    return a;
}

void
markGenTargetJson(json::Writer &w, const std::string &target,
                  const MarkGenReport &report,
                  const MarkAgreement *agreement)
{
    w.beginObject().field("target", target).key("marks").beginObject();
    w.field("diverge", report.markedDiverge);
    w.field("hammock", report.markedSimpleHammock);
    w.field("loop", report.markedLoop).field("dropped", report.droppedIllegal);
    w.endObject().key("lint").beginObject();
    w.field("errors", report.lintErrors);
    w.field("warnings", report.lintWarnings);
    w.field("infos", report.lintInfos).endObject();
    if (report.absintRan) {
        const AbsintStats &s = report.absintStats;
        w.key("absint").beginObject().field("insts", s.insts);
        w.field("unreachable", s.unreachable).field("branches", s.branches);
        w.field("proved_taken", s.provedTaken);
        w.field("proved_not_taken", s.provedNotTaken);
        w.field("trip_bounded", s.tripBounded);
        w.field("indirect_resolved", s.indirectResolved);
        w.field("indirect_unresolved", s.indirectUnresolved).endObject();
    }
    if (agreement) {
        const MarkAgreement &a = *agreement;
        w.key("agreement").beginObject();
        w.field("static_diverge", a.staticDiverge);
        w.field("profile_diverge", a.profileDiverge);
        w.field("common_diverge", a.commonDiverge);
        w.field("precision", a.divergePrecision);
        w.field("recall", a.divergeRecall);
        w.field("cfm_comparable", a.cfmComparable);
        w.field("cfm_any_match", a.cfmAnyMatch);
        w.field("cfm_primary_match", a.cfmPrimaryMatch);
        w.field("cfm_match_rate", a.cfmMatchRate).endObject();
    }
    w.key("candidates").beginArray();
    for (const MarkCandidate &c : report.candidates) {
        w.beginObject().field("pc", hex(c.pc));
        w.field("taken_prob", c.takenProb);
        w.field("heuristic", probHeuristicName(c.heuristic));
        w.field("freq", c.blockFreq);
        w.field("mispred_est", c.mispredictEstimate).key("cfm").beginArray();
        for (Addr cfm : c.cfmPoints)
            w.value(hex(cfm));
        w.endArray().field("mean_dist", c.meanDistance);
        w.field("work", c.predicatedWork).field("savings", c.flushSavings);
        w.field("net", c.netBenefit).field("loop", c.isLoop);
        w.field("selected", c.selected).field("reason", c.reason);
        w.field("proof", c.proof).field("trip_max", c.tripBound).endObject();
    }
    w.endArray().endObject();
}

std::string
markGenText(const std::string &target, const MarkGenReport &report,
            const MarkAgreement *agreement, bool show_candidates)
{
    std::ostringstream os;
    os << "== " << target << " ==\n";
    os << "  marks: diverge=" << report.markedDiverge
       << " hammock=" << report.markedSimpleHammock
       << " loop=" << report.markedLoop
       << " dropped=" << report.droppedIllegal << "\n";
    os << "  lint:  errors=" << report.lintErrors
       << " warnings=" << report.lintWarnings
       << " infos=" << report.lintInfos << "\n";
    if (report.absintRan) {
        const AbsintStats &s = report.absintStats;
        os << "  absint: " << (s.provedTaken + s.provedNotTaken) << "/"
           << s.branches << " branches proved one-sided, "
           << s.tripBounded << " trip-bounded, " << s.indirectResolved
           << "/" << (s.indirectResolved + s.indirectUnresolved)
           << " indirects resolved, " << s.unreachable << "/" << s.insts
           << " insts unreachable\n";
    }
    if (agreement) {
        os << "  vs profile: static=" << agreement->staticDiverge
           << " profiled=" << agreement->profileDiverge
           << " common=" << agreement->commonDiverge
           << " precision=" << agreement->divergePrecision
           << " recall=" << agreement->divergeRecall
           << " cfm_match=" << agreement->cfmMatchRate << " ("
           << agreement->cfmAnyMatch << "/" << agreement->cfmComparable
           << ", primary " << agreement->cfmPrimaryMatch << ")\n";
    }
    if (show_candidates) {
        os << "  pc          p(tk)  heuristic  freq        mispred "
              "dist   work   save   net         verdict\n";
        for (const MarkCandidate &c : report.candidates) {
            char line[160];
            std::snprintf(
                line, sizeof(line),
                "  %-11s %-6.3f %-10s %-11.5g %-7.3f %-6.3g %-6.3g "
                "%-6.3g %-11.5g %s%s",
                hex(c.pc).c_str(), c.takenProb,
                probHeuristicName(c.heuristic), c.blockFreq,
                c.mispredictEstimate, c.meanDistance, c.predicatedWork,
                c.flushSavings, c.netBenefit,
                c.selected ? "MARK" : c.reason.c_str(),
                c.isLoop && c.selected ? " (loop)" : "");
            os << line;
            if (c.proof != "none")
                os << " [proved " << c.proof << "]";
            if (c.tripBound)
                os << " [trip<=" << c.tripBound << "]";
            os << "\n";
        }
    }
    return os.str();
}

} // namespace dmp::analysis
