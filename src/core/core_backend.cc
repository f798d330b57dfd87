/**
 * @file
 * Backend of the diverge-merge core: dataflow issue, execution and
 * writeback, control resolution (including the six dynamic-predication
 * exit cases of Table 1 and dual-path collapse), predicate broadcast,
 * and misprediction recovery.
 */

#include <algorithm>

#include "common/logging.hh"
#include "core/core.hh"


namespace dmp::core
{

using isa::ExecClass;
using isa::Inst;
using isa::kInstBytes;
using isa::Opcode;

namespace
{

/** Clamp a speculative address into the data image (8-byte aligned). */
Addr
maskSpecAddr(Addr a, std::size_t mem_bytes)
{
    return a & (mem_bytes - 1) & ~Addr(7);
}

} // namespace

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
Core::issueStage()
{
    unsigned issued = 0;
    bool did_work = false;

    // Replay memory-ordering-stalled loads first (oldest first). A
    // failed replay is pure (an idempotent address recompute plus a
    // const store-buffer probe), so it does not count as work.
    for (std::size_t i = 0; i < stalledLoads.size() &&
                            issued < p.issueWidth;) {
        const InstRef ref = stalledLoads[i];
        if (robSeq[ref.slot] != ref.seq ||
            (robState[ref.slot] & kRobIssued)) {
            stalledLoads.erase(stalledLoads.begin() + std::ptrdiff_t(i));
            did_work = true;
            continue;
        }
        if (tryIssueLoad(ref)) {
            ++issued;
            stalledLoads.erase(stalledLoads.begin() + std::ptrdiff_t(i));
        } else {
            ++i;
        }
    }

    while (issued < p.issueWidth && !readyQueue.empty()) {
        InstRef ref = readyRef(readyQueue.top());
        readyQueue.pop();

        did_work = true; // even a stale pop mutates the queue
        const std::uint32_t slot = ref.slot;
        // One dense-array compare plus one flag test reject stale and
        // re-queued entries without touching the DynInst record.
        if (robSeq[slot] != ref.seq ||
            (robState[slot] & (kRobIssued | kRobAwaitPred)) ||
            robDeps[slot] != 0) {
            continue; // stale or re-queued entry
        }
        DynInst *di = &rob[slot];
        if (di->isLoad()) {

            if (tryIssueLoad(ref))
                ++issued;
            else
                stalledLoads.push_back(ref);
            continue;
        }
        executeReady(ref);
        ++issued;
    }
    return did_work || issued > 0;
}


bool
Core::tryIssueLoad(InstRef ref)
{
    DynInst &di = rob[ref.slot];
    Word base = di.src1 != kNoPhysReg ? prf.value(di.src1) : 0;
    Addr addr = maskSpecAddr(isa::memAddress(base, di.si.imm),
                             p.memoryBytes);
    di.memAddr = addr;

    Word forwarded = 0;
    ForwardResult fr = sb.probe(ref.seq, addr, robPred[ref.slot],
                                forwarded);
    if (fr == ForwardResult::MustWait)
        return false;

    robState[ref.slot] |= kRobIssued;
    di.issuedAt = std::uint32_t(now);
    ++st.executedInsts;
    if (fr == ForwardResult::Forward) {
        di.result = forwarded;
        scheduleCompletion(ref, now + kAgenLatency + kForwardLatency);
    } else {
        di.result = memory->load(addr);
        Cycle done = caches.loadAccess(addr, now + kAgenLatency);
        scheduleCompletion(ref, done);
    }
    return true;
}

void
Core::executeReady(InstRef ref)
{
    DynInst &di = rob[ref.slot];
    robState[ref.slot] |= kRobIssued;
    di.issuedAt = std::uint32_t(now);

    Cycle latency = kAluLatency;
    switch (di.kind) {
      case UopKind::Select: {
        dmp_assert(di.predResolved, "select issued without predicate");
        PhysReg src = di.predValue ? di.selTrue : di.selFalse;
        di.result = prf.value(src);
        ++st.executedSelectUops;
        break;
      }
      case UopKind::EnterPred:
      case UopKind::EnterAlt:
      case UopKind::ExitPred:
        ++st.executedExtraUops;
        break;
      case UopKind::Normal: {
        ++st.executedInsts;
        Word s1 = di.src1 != kNoPhysReg ? prf.value(di.src1) : 0;
        Word s2 = di.src2 != kNoPhysReg ? prf.value(di.src2) : 0;
        isa::ExecResult r = isa::evaluate(di.si, di.pc, s1, s2);
        switch (isa::execClass(di.si.op)) {
          case ExecClass::MUL:
            latency = kMulLatency;
            break;
          case ExecClass::DIV:
            latency = kDivLatency;
            break;
          case ExecClass::FP:
            latency = kFpLatency;
            break;
          case ExecClass::BRANCH:
            latency = kBranchLatency;
            break;
          case ExecClass::MEM:
            latency = kAgenLatency;
            break;
          default:
            latency = kAluLatency;
            break;
        }
        if (di.isStore()) {
            Addr addr = maskSpecAddr(r.memAddr, p.memoryBytes);
            di.memAddr = addr;
            di.result = r.value;
            sb.fill(ref.seq, addr, r.value);

        } else if (di.isControl) {
            di.actualTaken = r.taken;
            di.actualNextPc =
                r.taken ? r.target : di.pc + kInstBytes;
            di.result = r.value; // CALL link value
        } else {
            di.result = r.value;
        }
        break;
      }
      default:
        dmp_panic("executeReady: bad uop kind");
    }

    scheduleCompletion(ref, now + latency);
}

// ---------------------------------------------------------------------
// Completion / writeback / resolution
// ---------------------------------------------------------------------

bool
Core::completeStage()
{
    std::vector<InstRef> &due = eventScratch;
    if (!events.drainDue(now, due))
        return false;
    // The heap this replaces popped (when, seq) ascending; within one
    // cycle's bucket that is plain age order.
    std::sort(due.begin(), due.end(),
              [](const InstRef &a, const InstRef &b) {
                  return a.seq < b.seq;
              });
    for (const InstRef &ref : due) {
        const std::uint32_t slot = ref.slot;
        if (robSeq[slot] != ref.seq ||
            (robState[slot] & (kRobIssued | kRobExecuted)) != kRobIssued)
            continue; // squashed or stale
        writeback(ref);
    }
    due.clear();
    return true; // even an all-stale drain mutated the calendar
}


void
Core::writeback(InstRef ref)
{
    DynInst &di = rob[ref.slot];
    robState[ref.slot] |= kRobExecuted;
    di.completedAt = std::uint32_t(now);

    if (di.hasDest) {
        const PhysReg dest = robDest[ref.slot];
        prf.setReady(dest, di.result);
        std::vector<InstRef> &ws = prf.waitersOf(dest);
        for (InstRef w : ws) {
            // The wakeup network runs entirely on the SoA views: one
            // seq compare, one flag byte, one counter.
            const std::uint32_t ws_slot = w.slot;
            if (robSeq[ws_slot] != w.seq)
                continue;
            const std::uint8_t s = robState[ws_slot];
            if (!(s & kRobDispatched) || (s & kRobIssued))
                continue;
            dmp_assert(robDeps[ws_slot] > 0, "dependency underflow");
            if (--robDeps[ws_slot] == 0 && !(s & kRobAwaitPred))
                readyQueue.push(readyKey(w));

        }
        ws.clear();
    }


    if (di.kind == UopKind::Normal && di.isControl)
        resolveControl(ref);
}

void
Core::resolveControl(InstRef ref)
{
    DynInst &di = rob[ref.slot];


    if (di.predNextPc == kNoAddr) {
        // Unpredicted indirect (ITC miss / empty RAS): the front end has
        // idled since this instruction was fetched; redirect it. If an
        // exit-case redirect already restarted fetch (this instruction
        // was on a resolved-FALSE path), leave fetch alone.
        if (fdual.active && di.episode == fdual.episodeId &&
            di.path != PathId::None) {
            int s = di.path == PathId::Predicted ? 0 : 1;
            if (fdual.pc[s] == kNoAddr)
                fdual.pc[s] = di.actualNextPc;
        } else if (fetchPc == kNoAddr) {
            redirectFetch(di.actualNextPc);
        }
        return;
    }

    di.mispredicted = di.actualNextPc != di.predNextPc;

    // Diverge branch / dual fork resolution.
    if (di.isDivergeStarter && di.episode != kNoEpisode) {
        Episode *ep = episodeIfAlive(di.episode);
        if (ep && !ep->resolved) {
            if (ep->isDualPath) {
                resolveDualFork(di, *ep);
                return;
            }
            if (!ep->isConverted()) {
                resolveDivergeBranch(ref, di, *ep);
                return;
            }

            // Converted episode: the branch reverted to normal branch
            // prediction (sections 2.7.2/2.7.3). Re-broadcast the real
            // predicate values and classify as case 5/6.
            ep->resolved = true;
            ep->resolvedCorrect = !di.mispredicted;
            preds.resolve(ep->p1, !di.mispredicted, false);
            if (ep->p2 != kNoPred)
                preds.resolve(ep->p2, di.mispredicted, false);
            if (ep->exitCase == ExitCase::None) {
                classifyExit(*ep, di.mispredicted ? ExitCase::Case6
                                                  : ExitCase::Case5);
            }
            // fall through to the normal misprediction check
        }
    }

    if (!di.mispredicted)
        return;

    // A resolved-FALSE predicated branch is a NOP; never flush for it.
    if (robPred[ref.slot] != kNoPred && di.predResolved && !di.predValue)
        return;


    // Nested misprediction inside an unresolved dual-path episode: the
    // interleaved streams cannot be squashed independently, so flush
    // back to the fork and restart *both* streams from there (the fork
    // stays covered by the episode).
    if (fdual.active) {
        Episode *fork_ep = episodeIfAlive(fdual.episodeId);
        if (fork_ep && !fork_ep->resolved &&
            ref.seq > fork_ep->divergeSeq) {
            // Locate the fork instruction in the ROB.
            for (std::uint32_t i = 0; i < robCount; ++i) {
                std::uint32_t fork_slot = robSlotAt(i);
                if (robSeq[fork_slot] == fork_ep->divergeSeq) {
                    DynInst &fork = rob[fork_slot];
                    InstRef fork_ref{fork_slot, fork_ep->divergeSeq};
                    Episode &ep = *fork_ep;

                    flushAfter(fork_ref, fork.predNextPc);
                    // Re-enter the dual episode from the fork point.
                    fdual.clear();
                    fdual.active = true;
                    fdual.episodeId = ep.id;
                    fdual.pc[0] = ep.predStartPc;
                    fdual.pc[1] = ep.altStartPc;
                    fdual.ghr[0] =
                        (ep.savedGhr << 1) | (ep.predTaken ? 1 : 0);
                    fdual.ghr[1] =
                        (ep.savedGhr << 1) | (ep.predTaken ? 0 : 1);
                    fdual.toggle = 0;
                    dualAltMapValid = false;
                    return;
                }
            }
            dmp_panic("dual fork not found in ROB");
        }
    }

    if (di.isCondBranch)
        ++st.condBranchFlushes;
    flushAfter(ref, di.actualNextPc);
}

void
Core::resolveDivergeBranch(InstRef ref, DynInst &di, Episode &ep)
{
    bool correct = !di.mispredicted;
    ep.resolved = true;
    ep.resolvedCorrect = correct;

    broadcastPredicate(ep.p1, correct, false);
    if (ep.p2 != kNoPred && !preds.get(ep.p2).resolved)
        broadcastPredicate(ep.p2, !correct, false);

    if (fdp.episodeId == ep.id) {
        if (fdp.path == PathId::Predicted) {
            ep.fetchDone = true;
            fdp.clear();
            if (correct) {
                // Case 5: keep following the predicted path normally.
                classifyExit(ep, ExitCase::Case5);
            } else {
                // Case 6: conventional flush.
                classifyExit(ep, ExitCase::Case6);
                ++st.condBranchFlushes;
                flushAfter(ref, di.actualNextPc);
                return;

            }
        } else { // Alternate path
            ep.fetchDone = true;
            Addr cfm = fdp.chosenCfm;
            fdp.clear();
            if (correct) {
                // Case 3: the alternate path was wasted work; continue
                // from the end-of-predicted-path state at the CFM point.
                classifyExit(ep, ExitCase::Case3);
                enqueueMarker(UopKind::RestoreMap, ep.id);
                redirectFetch(cfm);
            } else {
                // Case 4: the alternate path is the correct path; just
                // keep fetching it (flush avoided).
                classifyExit(ep, ExitCase::Case4);
            }
        }
    } else {
        // Fetch already exited dynamic predication normally.
        classifyExit(ep, correct ? ExitCase::Case1 : ExitCase::Case2);
    }
}

void
Core::resolveDualFork(DynInst &di, Episode &ep)
{
    bool correct = !di.mispredicted;
    ep.resolved = true;
    ep.resolvedCorrect = correct;
    ep.fetchDone = true;

    broadcastPredicate(ep.p1, correct, false);
    broadcastPredicate(ep.p2, !correct, false);

    enqueueMarker(UopKind::DualCollapse, ep.id);

    if (fdual.active && fdual.episodeId == ep.id) {
        int winner = correct ? 0 : 1;
        Addr win_pc = fdual.pc[winner];
        std::uint64_t win_ghr = fdual.ghr[winner];
        fdual.clear();
        ghr = win_ghr;
        if (!correct)
            ras.restore(ep.savedRas); // stream B never touched the RAS
        fetchPc = win_pc;
        fetchStallUntil = now + 1;
        if (oracle && win_pc != kNoAddr)
            oracle->onRedirect(win_pc);
    }
    notifyEpisodeEnd(ep);
}

void
Core::broadcastPredicate(PredId pred, bool value, bool assumed)
{
    preds.resolve(pred, value, assumed);
    sb.resolvePredicate(pred, value);

    // The broadcast scan filters on the dense predicate-id array and
    // only dereferences the DynInst record on a tag match.
    for (std::uint32_t i = 0; i < robCount; ++i) {
        std::uint32_t slot = robSlotAt(i);
        if (robPred[slot] != pred)
            continue;
        DynInst &di = rob[slot];
        di.predResolved = true;
        di.predValue = value;
        if (di.kind == UopKind::Select && (robState[slot] & kRobAwaitPred))
            wakeSelectUop(slot, di);
    }
}

void
Core::wakeSelectUop(std::uint32_t slot, DynInst &di)
{
    dmp_assert(di.predResolved, "waking select without predicate");
    robState[slot] &= std::uint8_t(~kRobAwaitPred);
    InstRef ref{slot, robSeq[slot]};
    PhysReg src = di.predValue ? di.selTrue : di.selFalse;
    if (src != kNoPhysReg && !prf.ready(src)) {
        prf.addWaiter(src, ref);
        ++robDeps[slot];
    }
    if (robDeps[slot] == 0)
        readyQueue.push(readyKey(ref));
}


// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

void
Core::flushAfter(InstRef branch_ref, Addr redirect_pc)
{
    DynInst &b = rob[branch_ref.slot];
    const std::uint64_t b_seq = branch_ref.seq;
    dmp_assert(b.checkpointId >= 0, "flush without a checkpoint");

    ++st.pipelineFlushes;
    noteFlushForClassifier(b_seq);
    std::uint64_t squashed = squashYoungerThan(b_seq);
    st.flushDepth.sample(squashed);
    // Observers get onFlush only once recovery is complete (the checker
    // inspects the recovered machine), but the episodes the fetch-queue
    // purge below kills end after the flush in the event order, the ROB
    // squash's before it. Hold those ends until onFlush has gone out.
    holdEpisodeEnds = obs != nullptr;
    sb.squashYoungerThan(b_seq);
    clearFetchQueue();

    Checkpoint &cp = cpPool.get(b.checkpointId);
    activeMap = cp.map;
    ghr = cp.ghr;
    if (b.isCondBranch)
        ghr = (ghr << 1) | (b.actualTaken ? 1 : 0);
    ras.restore(cp.ras);
    if (isa::isReturn(b.si.op))
        ras.pop();
    if (isa::isCall(b.si.op))
        ras.push(b.pc + kInstBytes);

    // Resume dynamic predication mode if the branch sat inside a still-
    // live episode (paper footnote 11).
    Episode *ep = episodeIfAlive(cp.episode);
    if (ep && !ep->resolved && !ep->isConverted()) {
        fdp.episodeId = cp.episode;
        fdp.path = cp.dpredPath;
        fdp.chosenCfm = cp.chosenCfm;
        fdp.pathInstCount = cp.pathInstCount;
        ep->fetchDone = false;
    } else {
        fdp.clear();
    }

    dualAltMapValid = false;
    redirectFetch(redirect_pc);
    if (obs) {
        holdEpisodeEnds = false;
        obs->onFlush({now, b.pc, squashed, b_seq, redirect_pc});
        for (const AcctEpisodeEnd &e : heldEpisodeEnds)
            obs->onEpisodeEnd(e, now);
        heldEpisodeEnds.clear();
    }
}


std::uint64_t
Core::squashYoungerThan(std::uint64_t survive_seq)
{
    std::uint64_t squashed = 0;
    while (robCount > 0) {
        std::uint32_t slot = robTailSlot();
        DynInst &di = rob[slot];
        const std::uint64_t seq = robSeq[slot];
        if (seq <= survive_seq)
            break;
        if (di.kind == UopKind::Normal) {
            ++st.flushedInsts;
            ++squashed;
        }
        if (obs)
            obs->onSquash(di, seq);
        if (di.hasDest)
            prf.free(robDest[slot]); // squash
        if (di.checkpointId >= 0)
            cpPool.release(di.checkpointId, seq);

        if (di.isDivergeStarter) {
            Episode *ep = episodeIfAlive(di.episode);
            if (ep)
                killEpisode(*ep);
        }
        if (di.kind == UopKind::EnterAlt) {
            Episode *ep = episodeIfAlive(di.episode);
            if (ep) {
                // The alternate-path entry is being undone: drop CP2 and
                // release the alternate predicate for re-allocation.
                ep->endPredMapValid = false;
                if (ep->p2 != kNoPred && !preds.get(ep->p2).resolved)
                    preds.resolve(ep->p2, true, true);
                ep->p2 = kNoPred;
            }
        }
        robSeq[slot] = 0;
        --robCount;
    }
    return squashed;

}

void
Core::clearFetchQueue()
{
    for (FetchedInst &fi : fetchQueue) {
        switch (fi.kind) {
          case UopKind::EnterPred:
          case UopKind::EnterAlt:
          case UopKind::ExitPred:
          case UopKind::RestoreMap:
          case UopKind::DualCollapse:
            episode(fi.episode).pendingMarkers--;
            break;
          case UopKind::Normal:
            if (fi.isDivergeStarter) {
                Episode *ep = episodeIfAlive(fi.episode);
                if (ep)
                    killEpisode(*ep);
            }
            break;
          default:
            break;
        }
    }
    fetchQueue.clear();
}

} // namespace dmp::core
