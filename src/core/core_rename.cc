/**
 * @file
 * Rename/dispatch stage: in-order register renaming with per-branch
 * checkpoints, the enter.pred.path / enter.alternate.path / exit.pred
 * uop effects of section 2.4, and select-uop insertion driven by the
 * M bits of the two register alias tables.
 */

#include "common/logging.hh"
#include "core/core.hh"


namespace dmp::core
{

using isa::Inst;
using isa::kInstBytes;
using isa::Opcode;

bool
Core::renameStage()
{
    unsigned renamed = 0;
    while (renamed < p.fetchWidth && !fetchQueue.empty()) {
        FetchedInst &fi = fetchQueue.front();
        if (fi.renameReadyAt > now)
            break;
        if (!renameOne(fi)) {
            noteRenameBlocked();
            break; // resource stall (side-effect-free failure)
        }
        fetchQueue.pop_front();
        ++renamed;
    }
    return renamed > 0;
}

RenameMap &
Core::renameMapFor(PathId path, EpisodeId ep_id)
{
    if (path == PathId::Alternate && ep_id != kNoEpisode) {
        Episode *ep = episodeIfAlive(ep_id);
        if (ep && ep->isDualPath) {
            if (!dualAltMapValid) {
                dmp_assert(ep->atBranchMapValid,
                           "dual fork renamed without a base map");
                dualAltMap = ep->atBranchMap;
                dualAltMapValid = true;
            }
            return dualAltMap;
        }
    }
    return activeMap;
}

bool
Core::renameOne(FetchedInst &fi)
{
    switch (fi.kind) {
      case UopKind::Normal: {
        // Dual-path: discard queued instructions of the losing stream.
        if (fi.episode != kNoEpisode && fi.path != PathId::None) {
            Episode *ep = episodeIfAlive(fi.episode);
            if (ep && ep->isDualPath && ep->resolved) {
                PathId winner = ep->resolvedCorrect ? PathId::Predicted
                                                    : PathId::Alternate;
                if (fi.path != winner)
                    return true; // consumed without dispatch
            }
        }
        // Resource checks.
        if (robFull())
            return false;
        bool needs_dest = isa::writesDest(fi.si);
        if (needs_dest && !prf.hasFree())
            return false;
        if (isa::isStore(fi.si.op) && sb.full())
            return false;
        if (fi.isControl && !cpPool.hasFree())
            return false;
        renameProgramInst(fi);
        return true;
      }
      case UopKind::EnterPred: {
        if (robFull())
            return false;
        renameEnterPred(fi);
        return true;
      }
      case UopKind::EnterAlt: {
        if (robFull())
            return false;
        renameEnterAlt(fi);
        return true;
      }
      case UopKind::ExitPred:
        return renameExitPred(fi);
      case UopKind::RestoreMap:
        renameRestoreMap(fi);
        return true;
      case UopKind::DualCollapse: {
        Episode *ep = episodeIfAlive(fi.episode);
        episode(fi.episode).pendingMarkers--;
        if (ep && ep->resolved && !ep->resolvedCorrect) {
            if (dualAltMapValid) {
                activeMap = dualAltMap;
            } else {
                // No alternate-stream instruction renamed before the
                // fork resolved: the winning stream continues from the
                // fork-point map.
                dmp_assert(ep->atBranchMapValid,
                           "dual collapse without a fork map");
                activeMap = ep->atBranchMap;
            }
        }
        dualAltMapValid = false;
        return true;
      }
      default:
        dmp_panic("renameOne: bad uop kind");
    }
}

void
Core::renameProgramInst(FetchedInst &fi)
{
    InstRef ref = allocRob();
    DynInst &di = rob[ref.slot] = DynInst{fi};
    di.fetchedAt = std::uint32_t(fi.fetchedAt);
    di.renamedAt = std::uint32_t(now);


    RenameMap &map = renameMapFor(fi.path, fi.episode);


    if (isa::readsSrc1(fi.si))
        di.src1 = map.lookup(fi.si.rs1);
    if (isa::readsSrc2(fi.si))
        di.src2 = map.lookup(fi.si.rs2);

    if (isa::writesDest(fi.si)) {
        di.hasDest = true;
        di.archDest = fi.si.op == Opcode::CALL ? isa::kLinkReg : fi.si.rd;
        di.oldDest = map.lookup(di.archDest);
        PhysReg dest = prf.alloc();
        robDest[ref.slot] = dest;
        map.write(di.archDest, dest);
    }

    // Predication tag.
    if (fi.pred != kNoPred) {
        robPred[ref.slot] = fi.pred;
        const PredState &ps = preds.get(fi.pred);
        if (ps.resolved) {
            di.predResolved = true;
            di.predValue = ps.value;
        }
    }

    if (di.isStore())
        sb.allocate(ref.seq, fi.pred, di.predResolved, di.predValue);

    if (di.isControl) {
        di.checkpointId = cpPool.alloc(ref.seq);

        Checkpoint &cp = cpPool.get(di.checkpointId);
        cp.map = map;
        cp.ghr = fi.ghrAtFetch;
        cp.ras = fi.rasAtFetch;
        cp.episode = fi.cpEpisode;
        cp.dpredPath = fi.cpPath;
        cp.chosenCfm = fi.cpChosenCfm;
        cp.pathInstCount = fi.cpPathCount;
    }

    // A dual-path fork carries the base map for the alternate stream.
    if (fi.isDivergeStarter && fi.episode != kNoEpisode) {
        Episode *ep = episodeIfAlive(fi.episode);
        if (ep) {
            ep->divergeSeq = ref.seq;

            if (ep->isDualPath) {
                ep->atBranchMap = map;
                ep->atBranchMapValid = true;
            }
        }
    }

    setupDependencies(ref);

}

void
Core::renameEnterPred(const FetchedInst &fi)
{
    Episode *ep = episodeIfAlive(fi.episode);
    episode(fi.episode).pendingMarkers--;

    // "Before entering dynamic predication mode, all M bits are
    // cleared" (section 2.4); CP1 is the RAT at the diverge branch.
    activeMap.clearMBits();
    if (ep) {
        ep->atBranchMap = activeMap;
        ep->atBranchMapValid = true;
    }

    InstRef ref = allocRob();
    DynInst &di = rob[ref.slot] = DynInst{};
    di.kind = UopKind::EnterPred;
    di.episode = fi.episode;
    di.fetchedAt = std::uint32_t(fi.fetchedAt);
    di.renamedAt = std::uint32_t(now);
    setupDependencies(ref); // no sources: immediately ready
}

void
Core::renameEnterAlt(const FetchedInst &fi)
{
    Episode *ep = episodeIfAlive(fi.episode);
    episode(fi.episode).pendingMarkers--;

    if (ep) {
        dmp_assert(ep->atBranchMapValid, "EnterAlt without CP1");
        // CP2 := current RAT (end of predicted path, with its M bits);
        // then restore CP1 into the active RAT so the alternate path
        // renames against pre-branch state (section 2.4).
        ep->endPredMap = activeMap;
        ep->endPredMapValid = true;
        activeMap = ep->atBranchMap;
        activeMap.clearMBits();
    }

    InstRef ref = allocRob();
    DynInst &di = rob[ref.slot] = DynInst{};
    di.kind = UopKind::EnterAlt;
    di.episode = fi.episode;
    di.fetchedAt = std::uint32_t(fi.fetchedAt);
    di.renamedAt = std::uint32_t(now);
    setupDependencies(ref);
}

bool
Core::renameExitPred(const FetchedInst &fi)
{
    Episode *ep = episodeIfAlive(fi.episode);
    if (!ep || !ep->endPredMapValid) {
        // Degenerate (episode died mid-flight); consume the marker.
        episode(fi.episode).pendingMarkers--;
        return true;
    }

    // Select-uops are required for every architectural register whose
    // M bit is set in either RAT and whose mappings differ (sec. 2.4).
    // CP2 (the episode's end-of-predicted-path map) is never mutated
    // here: a nested flush can squash these select-uops, and a later
    // re-exit must regenerate them from intact M bits.
    unsigned needed = 0;
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r) {
        if ((ep->endPredMap.mBits[r] || activeMap.mBits[r]) &&
            ep->endPredMap.map[r] != activeMap.map[r]) {
            ++needed;
        }
    }

    // One exit uop plus the select-uops must fit this cycle.
    if (robCount + needed + 1 > p.robSize)
        return false;
    if (prf.numFree() < needed)
        return false;

    episode(fi.episode).pendingMarkers--;

    InstRef exit_ref = allocRob();
    DynInst &exit_uop = rob[exit_ref.slot] = DynInst{};
    exit_uop.kind = UopKind::ExitPred;
    exit_uop.episode = fi.episode;
    exit_uop.fetchedAt = std::uint32_t(fi.fetchedAt);
    exit_uop.renamedAt = std::uint32_t(now);
    setupDependencies(exit_ref);

    for (unsigned r = 0; r < isa::kNumArchRegs; ++r) {
        if (!(ep->endPredMap.mBits[r] || activeMap.mBits[r]))
            continue;
        if (ep->endPredMap.map[r] == activeMap.map[r]) {
            activeMap.mBits.reset(r);
            continue;
        }
        InstRef ref = allocRob();
        DynInst &sel = rob[ref.slot] = DynInst{};
        sel.kind = UopKind::Select;
        sel.episode = ep->id;
        sel.fetchedAt = std::uint32_t(fi.fetchedAt);
        sel.renamedAt = std::uint32_t(now);
        sel.archDest = ArchReg(r);
        sel.hasDest = true;
        sel.selTrue = ep->endPredMap.map[r];
        sel.selFalse = activeMap.map[r];
        PhysReg dest = prf.alloc();
        robDest[ref.slot] = dest;
        robPred[ref.slot] = ep->p1;
        const PredState &ps = preds.get(ep->p1);
        if (ps.resolved) {
            sel.predResolved = true;
            sel.predValue = ps.value;
        }
        activeMap.map[r] = dest;
        activeMap.mBits.reset(r);
        setupDependencies(ref);

    }
    return true;
}

void
Core::renameRestoreMap(const FetchedInst &fi)
{
    Episode *ep = episodeIfAlive(fi.episode);
    episode(fi.episode).pendingMarkers--;
    if (ep && ep->endPredMapValid) {
        // Case 3 / early exit: continue from the end-of-predicted-path
        // register state (section 2.6).
        activeMap = ep->endPredMap;
        activeMap.clearMBits();
    }
}

void
Core::setupDependencies(InstRef ref)
{
    const std::uint32_t slot = ref.slot;
    DynInst &di = rob[slot];
    robState[slot] |= kRobDispatched;

    auto depend = [&](PhysReg r) {
        if (r != kNoPhysReg && !prf.ready(r)) {
            prf.addWaiter(r, ref);
            ++robDeps[slot];
        }
    };

    if (di.kind == UopKind::Select) {
        if (di.predResolved) {
            depend(di.predValue ? di.selTrue : di.selFalse);
        } else {
            robState[slot] |= kRobAwaitPred;
        }
    } else if (di.kind == UopKind::Normal && robPred[slot] != kNoPred &&
               di.predResolved && !di.predValue) {

        // Renamed on a path already known to be predicated-FALSE (the
        // predicate resolved while this instruction was still in the
        // front end). Its source mappings may reference physical
        // registers the committing path has since released, so waiting
        // on them could deadlock; hardware would read stale values
        // here, which is harmless because the result is never
        // committed. Issue immediately with whatever the registers
        // hold.
    } else {
        depend(di.src1);
        depend(di.src2);
    }

    if (!(robState[slot] & kRobAwaitPred) && robDeps[slot] == 0)
        readyQueue.push(readyKey(ref));

}


} // namespace dmp::core
