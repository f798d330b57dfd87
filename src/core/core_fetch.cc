/**
 * @file
 * Fetch stage of the diverge-merge core: Table 2 fetch rules (8-wide, up
 * to 3 conditional branches, ends at the first taken branch, one I-cache
 * line per cycle), dynamic-predication mode transitions (section 2.3),
 * the enhancements of section 2.7, and dual-path stream interleaving.
 */

#include <algorithm>

#include "common/logging.hh"
#include "core/core.hh"

namespace dmp::core
{

using isa::Inst;
using isa::kInstBytes;
using isa::Opcode;

bool
Core::fetchStage()
{
    if (now < fetchStallUntil)
        return false;
    if (fetchQueue.size() + p.fetchWidth >
        p.effectiveFetchQueueCapacity()) {
        return false;
    }
    if (fdual.active)
        return fetchDualCycle();
    return fetchNormalCycle();
}

bool
Core::fetchNormalCycle()
{
    if (fetchPc == kNoAddr)
        return false;

    // One I-cache access per cycle; a miss stalls the front end.
    // Reaching the cache always counts as work: the access updates LRU
    // state even on a hit.
    Cycle done = caches.fetchAccess(fetchPc, now);
    Cycle hit_done = now + caches.l1i().params().hitLatency;
    if (done > hit_done) {
        fetchStallUntil = done;
        return true;
    }

    const Addr line = caches.l1i().lineOf(fetchPc);
    unsigned branches = 0;
    for (unsigned n = 0; n < p.fetchWidth; ++n) {
        if (fetchPc == kNoAddr)
            break;
        if (caches.l1i().lineOf(fetchPc) != line)
            break;
        if (!fetchOne(fetchPc, ghr, PathId::None, branches))
            break;
    }
    return true;
}

bool
Core::fetchDualCycle()
{
    // Round-robin between the two streams, skipping dead ones. The
    // toggle flips even when both streams are dead (matching the
    // pre-skip scheduler exactly), so a dual fetch cycle is never
    // idle: the flip itself is state the resume interleave depends on.
    int s = fdual.toggle;
    fdual.toggle ^= 1;
    if (fdual.pc[s] == kNoAddr)
        s ^= 1;
    if (fdual.pc[s] == kNoAddr)
        return true;

    Cycle done = caches.fetchAccess(fdual.pc[s], now);
    Cycle hit_done = now + caches.l1i().params().hitLatency;
    if (done > hit_done) {
        fetchStallUntil = done;
        return true;
    }


    const Addr line = caches.l1i().lineOf(fdual.pc[s]);
    unsigned branches = 0;
    PathId path = s == 0 ? PathId::Predicted : PathId::Alternate;
    for (unsigned n = 0; n < p.fetchWidth; ++n) {
        if (!fdual.active)
            break; // an episode start/stop mid-cycle cannot happen, but
                   // guard against future policy changes
        if (fdual.pc[s] == kNoAddr)
            break;
        if (caches.l1i().lineOf(fdual.pc[s]) != line)
            break;
        if (!fetchOne(fdual.pc[s], fdual.ghr[s], path, branches))
            break;
    }
    return true;
}


unsigned
Core::effectiveEarlyExitThreshold(const Episode &ep) const
{
    if (p.forceStaticEarlyExit || ep.earlyExitThreshold == 0)
        return p.staticEarlyExitThreshold;
    return ep.earlyExitThreshold;
}

bool
Core::fetchOne(Addr &pc, std::uint64_t &ghr_ref, PathId dual_path,
               unsigned &branches_this_cycle)
{
    // ---- Dynamic-predication CAM checks precede the fetch itself ----
    if (fdp.active() && dual_path == PathId::None) {
        Episode &ep = episode(fdp.episodeId);
        if (fdp.path == PathId::Predicted) {
            if (ep.cfmMatches(pc)) {
                fdp.chosenCfm = pc;
                switchToAlternatePath();
                return false; // redirect ends the fetch cycle
            }
            if (fdp.pathInstCount >= p.maxDpredPathInsts) {
                // The predicted path ran too long without merging:
                // revert to plain branch prediction and keep fetching.
                convertEpisode(ep, ConversionReason::PathOverflow, false);
            }
        } else { // Alternate path
            if (pc == fdp.chosenCfm) {
                normalDpredExit();
                // Fetch continues at the CFM point this same cycle.
            } else if (p.enhEarlyExit &&
                       fdp.pathInstCount >=
                           effectiveEarlyExitThreshold(ep)) {
                convertEpisode(ep, ConversionReason::EarlyExit, true);
                return false;
            } else if (fdp.pathInstCount >= p.maxDpredPathInsts) {
                convertEpisode(ep, ConversionReason::PathOverflow, true);
                return false;
            }
        }
    }

    if (!prog.contains(pc)) {
        // The (wrong) path ran outside the program image; the front end
        // idles until an execute-time redirect arrives.
        pc = kNoAddr;
        return false;
    }

    const Inst &inst = prog.fetch(pc);

    // Budget conditional branches per cycle before consuming the slot.
    if (isa::isCondBranch(inst.op) &&
        branches_this_cycle + 1 > kMaxCondBranchesPerFetch) {
        return false;
    }

    // Build the entry directly in the fetch queue: nothing between here
    // and the end of this function enqueues (markers around episode
    // entry/exit are pushed either before this point or after fetchOne
    // returns), so in-place construction preserves queue order and
    // saves the construct-then-move copy on every fetched instruction.
    FetchedInst &fi = fetchQueue.emplace_back();
    fi.pc = pc;
    fi.si = inst;
    fi.renameReadyAt = now + p.frontendDepth;
    fi.fetchedAt = now;

    Addr next = pc + kInstBytes;
    if (inst.op == Opcode::HALT) {
        next = kNoAddr;
    } else if (isa::isControl(inst.op)) {
        // Snapshot of fetch state before this instruction's own effects.
        // Control instructions are the only consumers (the rename-time
        // checkpoint and episode entry), so plain instructions skip it.
        fi.ghrAtFetch = ghr_ref;
        fi.rasAtFetch = ras.checkpoint();
        fi.cpEpisode = fdp.episodeId;
        fi.cpPath = fdp.path;
        fi.cpChosenCfm = fdp.chosenCfm;
        fi.cpPathCount = fdp.pathInstCount;
        if (isa::isCondBranch(inst.op))
            ++branches_this_cycle;
        predictControl(fi, next, ghr_ref, dual_path);
    }


    // Oracle tracking (stream B of a dual episode is never the stream
    // the oracle follows through a fork, so it is not reported).
    if (oracle && dual_path != PathId::Alternate) {
        Addr chosen = next;
        oracle->onFetch(pc, chosen == kNoAddr ? 0 : chosen);
        fi.oracleWrongPath = !oracle->synced();
    }

    // ---- Dynamic predication / dual-path entry decisions ----
    bool started_episode = false;
    if (fi.isCondBranch && dual_path == PathId::None && !fdual.active) {
        const isa::DivergeMark *mark = prog.mark(pc);
        bool mark_ok = mark &&
            ((p.predication == PredicationScope::Diverge &&
              mark->isDiverge) ||
             (p.predication == PredicationScope::SimpleHammock &&
              mark->isSimpleHammock));
        if (mark_ok && mark->isLoopBranch && !p.extLoopBranches)
            mark_ok = false;

        if (p.mode == CoreMode::DualPath && fi.lowConfidence &&
            fi.predNextPc != kNoAddr) {
            if (tryStartDualEpisode(fi)) {
                pushFetched(fi);
                return false; // streams start next cycle
            }

        } else if (mark_ok && fi.lowConfidence && preds.canAllocate()) {
            ++st.lowConfDivergeFetches;
            bool can_enter = !fdp.active();
            if (fdp.active() && fdp.path == PathId::Predicted &&
                p.enhMultiDiverge) {
                // Section 2.7.3: the old episode reverts to normal
                // branch prediction; the new diverge branch takes over.
                convertEpisode(episode(fdp.episodeId),
                               ConversionReason::MultiDiverge, false);
                can_enter = true;
            }
            if (can_enter && tryStartDpredEpisode(fi, *mark)) {
                started_episode = true;
            }
        }
    }

    // Tag instructions fetched under dynamic predication (the diverge
    // branch itself is not predicated).
    if (fdp.active() && dual_path == PathId::None && !started_episode) {
        fi.episode = fdp.episodeId;
        fi.path = fdp.path;
        Episode &ep = episode(fdp.episodeId);
        fi.pred = fdp.path == PathId::Predicted ? ep.p1 : ep.p2;
        ++fdp.pathInstCount;
        ++ep.fetchedInsts;
    } else if (dual_path != PathId::None) {
        Episode &ep = episode(fdual.episodeId);
        fi.episode = fdual.episodeId;
        fi.path = dual_path;
        fi.pred = dual_path == PathId::Predicted ? ep.p1 : ep.p2;
        ++ep.fetchedInsts;
    }

    pushFetched(fi);
    // fi is dead past this point: the marker push below may grow the
    // ring and relocate the entry.
    const bool took_transfer = fi.isControl && next != fi.pc + kInstBytes;
    if (started_episode)
        enqueueMarker(UopKind::EnterPred, fdp.episodeId);

    if (inst.op == Opcode::HALT) {
        pc = kNoAddr;
        return false;
    }

    pc = next;
    if (pc == kNoAddr)
        return false; // unpredicted indirect: stall until resolution

    // Fetch ends at the first taken control transfer.
    return !took_transfer;
}

void
Core::predictControl(FetchedInst &fi, Addr &next, std::uint64_t &ghr_ref,
                     PathId dual_path)
{
    const Inst &inst = fi.si;
    fi.isControl = true;

    if (isa::isCondBranch(inst.op)) {
        fi.isCondBranch = true;

        bool predicted = perceptron
            ? perceptron->predict(fi.pc, ghr_ref, fi.predInfo)
            : predictor->predict(fi.pc, ghr_ref, fi.predInfo);
        if (p.perfectCondPredictor && oracle && oracle->synced()) {
            predicted = oracle->peek().taken;
            fi.predInfo.predTaken = predicted;
        }
        fi.predTaken = predicted;

        if (btb.lookup(fi.pc) == kNoAddr)
            ++st.btbMisses;

        if (p.perfectConfidence && oracle) {
            fi.lowConfidence =
                oracle->synced() && predicted != oracle->peek().taken;
        } else {
            std::uint32_t idx = 0;
            fi.lowConfidence = !jrs->highConfidence(fi.pc, ghr_ref, idx);
            fi.confIndex = idx;
        }
        if (p.alwaysLowConfidence)
            fi.lowConfidence = true;

        ghr_ref = (ghr_ref << 1) | (predicted ? 1 : 0);
        next = predicted ? inst.target : fi.pc + kInstBytes;
    } else if (inst.op == Opcode::JMP) {
        next = inst.target;
    } else if (inst.op == Opcode::CALL) {
        if (dual_path != PathId::Alternate)
            ras.push(fi.pc + kInstBytes);
        next = inst.target;
    } else if (inst.op == Opcode::RET) {
        if (dual_path != PathId::Alternate) {
            next = ras.pop();
        } else {
            // Stream B leaves the (shared) RAS untouched; peek the top.
            next = ras.checkpoint().topValue;
        }
        fi.predInfo.ghr = fi.ghrAtFetch;
    } else if (inst.op == Opcode::JR) {
        next = itc.lookup(fi.pc, ghr_ref);
        fi.predInfo.ghr = fi.ghrAtFetch;
    }
    fi.predNextPc = next;
}

bool
Core::tryStartDpredEpisode(FetchedInst &fi, const isa::DivergeMark &mark)
{
    if (mark.cfmPoints.empty())
        return false;

    Episode &ep = newEpisode();
    ep.divergePc = fi.pc;
    ep.predTaken = fi.predTaken;
    ep.predStartPc = fi.predNextPc;
    ep.altStartPc =
        fi.predTaken ? fi.pc + kInstBytes : fi.si.target;
    ep.earlyExitThreshold = mark.earlyExitThreshold;

    if (p.enhMultiCfm) {
        for (Addr cfm : mark.cfmPoints) {
            if (ep.cfmCount >= p.cfmCamEntries)
                break;
            ep.addCfm(cfm);
        }
    } else {
        ep.addCfm(mark.cfmPoints.front());
    }

    ep.p1 = preds.allocate();
    ep.savedGhr = fi.ghrAtFetch;
    ep.savedRas = fi.rasAtFetch;

    fi.isDivergeStarter = true;
    fi.episode = ep.id;

    fdp.clear();
    fdp.episodeId = ep.id;
    fdp.path = PathId::Predicted;
    fdp.pathInstCount = 0;

    ++st.dpredEntries;
    if (obs)
        obs->onEpisodeStart(ep.id, ep.divergePc, false, now);
    return true;
}

bool
Core::tryStartDualEpisode(FetchedInst &fi)
{
    // Need both predicates up front.
    if (!preds.canAllocate())
        return false;
    PredId p1 = preds.allocate();
    if (!preds.canAllocate()) {
        preds.resolve(p1, true, true); // release: cannot fork
        return false;
    }

    Episode &ep = newEpisode();
    ep.isDualPath = true;
    ep.divergePc = fi.pc;
    ep.predTaken = fi.predTaken;
    ep.predStartPc = fi.predNextPc;
    ep.altStartPc = fi.predTaken ? fi.pc + kInstBytes : fi.si.target;
    ep.p1 = p1;
    ep.p2 = preds.allocate();
    ep.savedGhr = fi.ghrAtFetch;
    ep.savedRas = fi.rasAtFetch;

    fi.isDivergeStarter = true;
    fi.episode = ep.id;

    fdual.clear();
    fdual.active = true;
    fdual.episodeId = ep.id;
    fdual.pc[0] = fi.predNextPc;
    fdual.pc[1] = ep.altStartPc;
    fdual.ghr[0] = (fi.ghrAtFetch << 1) | (fi.predTaken ? 1 : 0);
    fdual.ghr[1] = (fi.ghrAtFetch << 1) | (fi.predTaken ? 0 : 1);
    fdual.toggle = 0;

    ++st.dualForks;
    if (obs)
        obs->onEpisodeStart(fi.episode, fi.pc, true, now);
    return true;
}

void
Core::switchToAlternatePath()
{
    Episode &ep = episode(fdp.episodeId);
    ep.chosenCfm = fdp.chosenCfm;

    if (!preds.canAllocate()) {
        // No predicate register for the alternate path: give the episode
        // up and continue at the CFM point on the predicted path's state
        // (which is where fetch already stands).
        convertEpisode(ep, ConversionReason::PathOverflow, false);
        return;
    }
    ep.p2 = preds.allocate();

    // GHR1 with its last bit set to the alternate direction (sec. 2.3).
    ghr = (ep.savedGhr << 1) | (ep.predTaken ? 0 : 1);
    ras.restore(ep.savedRas);

    enqueueMarker(UopKind::EnterAlt, ep.id);
    fdp.path = PathId::Alternate;
    fdp.pathInstCount = 0;
    fetchPc = ep.altStartPc;
    if (oracle)
        oracle->onRedirect(fetchPc);
}

void
Core::normalDpredExit()
{
    Episode &ep = episode(fdp.episodeId);
    enqueueMarker(UopKind::ExitPred, ep.id);
    ep.fetchDone = true;
    fdp.clear();
    if (oracle)
        oracle->onRedirect(ep.chosenCfm);
}

void
Core::convertEpisode(Episode &ep, ConversionReason reason,
                     bool redirect_to_cfm)
{
    dmp_assert(!ep.isConverted(), "episode converted twice");
    ep.converted = reason;
    switch (reason) {
      case ConversionReason::EarlyExit:
        ++st.earlyExits;
        break;
      case ConversionReason::MultiDiverge:
        ++st.mdbConversions;
        break;
      case ConversionReason::PathOverflow:
        ++st.overflowConversions;
        break;
      default:
        break;
    }

    // Footnote 12: assume the predicted path is correct so predicated
    // stores can forward; the diverge branch reverts to a normal branch
    // (a later misprediction flushes as usual).
    broadcastPredicate(ep.p1, true, /*assumed=*/true);
    if (ep.p2 != kNoPred && !preds.get(ep.p2).resolved)
        broadcastPredicate(ep.p2, false, /*assumed=*/true);

    ep.fetchDone = true;
    Addr cfm = fdp.chosenCfm;
    fdp.clear();

    if (redirect_to_cfm) {
        // Restore the end-of-predicted-path map and refetch from the CFM
        // point (sections 2.6 case 3 / 2.7.2).
        enqueueMarker(UopKind::RestoreMap, ep.id);
        redirectFetch(cfm);
    }
}

void
Core::enqueueMarker(UopKind kind, EpisodeId id)
{
    FetchedInst m;
    m.kind = kind;
    m.renameReadyAt = now + p.frontendDepth;
    m.fetchedAt = now;
    m.episode = id;
    episode(id).pendingMarkers++;
    fetchQueue.push_back(m);
}

/** Fetch bookkeeping for an entry already sitting in the fetch queue. */
void
Core::pushFetched(const FetchedInst &fi)
{
    if (fi.kind == UopKind::Normal) {
        ++st.fetchedInsts;
        if (fi.oracleWrongPath)
            ++st.wrongPathFetched;
        noteFetchForClassifier(fi.pc);
    }
}


void
Core::redirectFetch(Addr pc)
{
    fetchPc = pc;
    fetchStallUntil = now + 1;
    if (oracle)
        oracle->onRedirect(pc);
}

} // namespace dmp::core
