/**
 * @file
 * CoreChecker implementation. See checker.hh for the model and
 * DESIGN.md for the invariant catalogue (one entry per finding code
 * emitted here).
 */

#include "check/checker.hh"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/trace.hh"
#include "isa/isa.hh"

namespace dmp::check
{

using core::Checkpoint;
using core::DynInst;
using core::Episode;
using core::EpisodeId;
using core::FetchedInst;
using core::kNoEpisode;
using core::RenameMap;
using core::SbEntry;
using core::UopKind;

namespace
{

const char *
uopKindName(UopKind k)
{
    switch (k) {
      case UopKind::Normal: return "normal";
      case UopKind::EnterPred: return "enter.pred";
      case UopKind::EnterAlt: return "enter.alt";
      case UopKind::ExitPred: return "exit.pred";
      case UopKind::Select: return "select";
      case UopKind::RestoreMap: return "restore.map";
      case UopKind::DualCollapse: return "dual.collapse";
    }
    return "?";
}

/** True for front-end markers counted in Episode::pendingMarkers. */
bool
isMarker(UopKind k)
{
    return k == UopKind::EnterPred || k == UopKind::EnterAlt ||
           k == UopKind::ExitPred || k == UopKind::RestoreMap ||
           k == UopKind::DualCollapse;
}

using trace::hex;

/** Retire/flush history kept for the first-divergence diagnosis. */
constexpr std::size_t kHistoryDepth = 16;

} // namespace

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Off: return "off";
      case Mode::Invariants: return "invariants";
      case Mode::Lockstep: return "lockstep";
      case Mode::All: return "all";
    }
    return "?";
}

bool
parseMode(const std::string &s, Mode &out)
{
    if (s.empty() || s == "all") {
        out = Mode::All;
    } else if (s == "invariants") {
        out = Mode::Invariants;
    } else if (s == "lockstep") {
        out = Mode::Lockstep;
    } else if (s == "off") {
        out = Mode::Off;
    } else {
        return false;
    }
    return true;
}

CheckError::CheckError(std::string what_, analysis::Report report_,
                       std::string diagnosis_)
    : std::runtime_error(std::move(what_)), rep(std::move(report_)),
      diag(std::move(diagnosis_))
{}

CoreChecker::CoreChecker(const isa::Program &program, core::Core &core_,
                         CheckerOptions opts_)
    : core(core_), opt(opts_), refMem(core_.params().memoryBytes),
      oracle(program, refMem)
{}

void
CoreChecker::fail(const std::string &code, Addr pc, std::string object,
                  std::string message)
{
    analysis::Report rep;
    std::string what = "selfcheck [" + code + "] at cycle " +
                       std::to_string(core.now) + ": " + message;
    rep.add(analysis::Severity::Error, code, pc, -1, std::move(message),
            std::int64_t(core.now), std::move(object));
    throw CheckError(std::move(what), std::move(rep), diagnosis());
}

std::string
CoreChecker::diagnosis() const
{
    std::ostringstream os;
    os << "== first-divergence diagnosis (cycle " << core.now << ") ==\n";

    os << "last " << history.size() << " retired uops (oldest first):\n";
    for (const RetiredRec &r : history) {
        os << "  cycle=" << r.cycle << " seq=" << r.seq
           << " pc=" << hex(r.pc) << " kind=" << uopKindName(r.kind);
        if (r.pred != kNoPred)
            os << " pred=" << r.pred << (r.predValue ? "(T)" : "(F)");
        os << "\n";
    }

    os << "predication state:\n";
    os << "  fdp: active=" << int(core.fdp.active());
    if (core.fdp.active()) {
        os << " ep=" << core.fdp.episodeId
           << " path=" << int(core.fdp.path)
           << " cfm=" << hex(core.fdp.chosenCfm)
           << " pathInsts=" << core.fdp.pathInstCount;
    }
    os << "\n  fdual: active=" << int(core.fdual.active);
    if (core.fdual.active) {
        os << " ep=" << core.fdual.episodeId
           << " pc0=" << hex(core.fdual.pc[0])
           << " pc1=" << hex(core.fdual.pc[1]);
    }
    os << "\n";

    unsigned shown = 0;
    for (const Episode &ep : core.episodeTable) {
        if (ep.id == kNoEpisode || ep.dead)
            continue;
        if (ep.resolved && ep.pendingMarkers == 0 && ep.fetchDone)
            continue;
        if (++shown > 8) {
            os << "  (more episodes elided)\n";
            break;
        }
        os << "  ep " << ep.id << ": diverge=" << hex(ep.divergePc)
           << " dual=" << int(ep.isDualPath)
           << " resolved=" << int(ep.resolved)
           << " converted=" << int(ep.isConverted())
           << " pendingMarkers=" << ep.pendingMarkers << " p1=";
        if (ep.p1 == kNoPred)
            os << "-";
        else
            os << ep.p1;
        os << " p2=";
        if (ep.p2 == kNoPred)
            os << "-";
        else
            os << ep.p2;
        os << "\n";
    }

    os << "flush history (oldest first):\n";
    for (const FlushRec &f : flushes) {
        os << "  cycle=" << f.cycle << " survive_seq=" << f.surviveSeq
           << " redirect=" << hex(f.redirectPc) << "\n";
    }

    os << "resources: " << core.resourceReport();
    return os.str();
}

void
CoreChecker::onCycleEnd(const core::AcctCycleSample &)
{
    if (plan.kind != FaultKind::None && !injected &&
        core.now >= plan.notBefore) {
        tryInject();
    }
    if (!wantsInvariants(opt.mode))
        return;
    checkCheap();
    if (opt.deepStride && core.now % opt.deepStride == 0)
        checkDeep();
}

void
CoreChecker::onRetire(const DynInst &di, std::uint64_t seq, PredId pred)
{
    history.push_back(
        RetiredRec{seq, di.pc, di.kind, pred, di.predValue, core.now});
    if (history.size() > kHistoryDepth)
        history.pop_front();
    if (wantsLockstep(opt.mode))
        lockstepCommit(di, pred);
}


void
CoreChecker::onFlush(const core::FlushEvent &e)
{
    flushes.push_back(FlushRec{core.now, e.surviveSeq, e.redirectPc});
    if (flushes.size() > kHistoryDepth)
        flushes.pop_front();
    if (wantsInvariants(opt.mode)) {
        // Flush recovery is the hardest structural event (free-list
        // restoration, checkpoint reclamation, episode teardown), so
        // always run the full pass right after one.
        checkCheap();
        checkDeep();
    }
}

// ---------------------------------------------------------------------
// Structural invariants
// ---------------------------------------------------------------------

void
CoreChecker::checkCheap()
{
    ++nCheapPasses;
    checkRob();
    checkStoreBuffer();
}

void
CoreChecker::checkDeep()
{
    ++nDeepPasses;
    checkPrfFreeList();
    checkCheckpoints();
    checkRatValidity();
    checkLeaks();
    checkEpisodesAndPredicates();
}

void
CoreChecker::checkRob()
{
    // The checker deliberately reads the same SoA views the scheduler
    // uses (robSeq/robState/robDeps/robDest/robCompleteAt/robPred): a
    // desync between those arrays and the DynInst records is exactly
    // the class of bug the split could introduce.
    robStoreSeqs.clear();
    std::uint64_t prev_seq = 0;
    for (std::uint32_t i = 0; i < core.robCount; ++i) {
        const std::uint32_t slot = core.robSlotAt(i);
        const DynInst &di = core.rob[slot];
        const std::uint64_t seq = core.robSeq[slot];
        std::string obj = "rob:" + std::to_string(seq);

        if (seq == 0) {
            fail("rob-invalid-entry", di.pc, std::move(obj),
                 "ROB slot inside [head, head+count) holds a freed "
                 "entry at position " + std::to_string(i));
        }
        if ((i > 0 && seq <= prev_seq) || seq >= core.nextSeq) {
            fail("rob-age-order", di.pc, std::move(obj),
                 "ROB sequence numbers not strictly increasing: entry " +
                     std::to_string(i) + " has seq " +
                     std::to_string(seq) + " after " +
                     std::to_string(prev_seq) + " (nextSeq " +
                     std::to_string(core.nextSeq) + ")");
        }
        prev_seq = seq;

        const std::uint8_t s = core.robState[slot];
        const bool dispatched = s & core::Core::kRobDispatched;
        const bool issued = s & core::Core::kRobIssued;
        const bool executed = s & core::Core::kRobExecuted;
        const std::uint32_t deps = core.robDeps[slot];
        if ((issued && !dispatched) || (executed && !issued) ||
            (issued && deps != 0)) {
            fail("rob-lifecycle-monotonic", di.pc, std::move(obj),
                 "scheduling lifecycle violated: dispatched=" +
                     std::to_string(int(dispatched)) + " issued=" +
                     std::to_string(int(issued)) + " executed=" +
                     std::to_string(int(executed)) + " deps=" +
                     std::to_string(deps));
        }
        const Cycle complete_at = core.robCompleteAt[slot];
        if (issued && complete_at == kNeverCycle) {
            fail("rob-lifecycle-monotonic", di.pc, std::move(obj),
                 "issued instruction has no scheduled completion cycle");
        }
        if (executed && complete_at > core.now) {
            fail("rob-lifecycle-monotonic", di.pc, std::move(obj),
                 "executed instruction's completion cycle " +
                     std::to_string(complete_at) +
                     " lies in the future (now " +
                     std::to_string(core.now) + ")");
        }
        if (di.hasDest) {
            const PhysReg dest = core.robDest[slot];
            if (dest == kNoPhysReg ||
                std::size_t(dest) >= core.prf.size() ||
                core.prf.isFree(dest)) {
                fail("rob-dest-freed", di.pc, std::move(obj),
                     "in-flight destination p" + std::to_string(dest) +
                         " is invalid or on the free list");
            }
            if (executed && !core.prf.ready(dest)) {
                fail("rob-dest-not-ready", di.pc, std::move(obj),
                     "executed instruction's destination p" +
                         std::to_string(dest) + " is not ready");
            }
        }
        const PredId pred = core.robPred[slot];
        if (pred != kNoPred && !core.preds.known(pred)) {
            fail("dangling-predicate", di.pc, std::move(obj),
                 "ROB entry references predicate id " +
                     std::to_string(pred) +
                     " unknown to the predicate file");
        }
        if (di.kind == UopKind::Normal && di.isStore())
            robStoreSeqs.push_back(seq);
    }

}

void
CoreChecker::checkStoreBuffer()
{
    const std::deque<SbEntry> &entries =
        const_cast<const core::StoreBuffer &>(core.sb).view();
    std::uint64_t prev_seq = 0;
    std::size_t idx = 0;
    for (const SbEntry &e : entries) {
        std::string obj = "sb:" + std::to_string(idx);
        if (idx > 0 && e.seq <= prev_seq) {
            fail("sb-order", kNoAddr, std::move(obj),
                 "store buffer not in program order: entry " +
                     std::to_string(idx) + " has seq " +
                     std::to_string(e.seq) + " after " +
                     std::to_string(prev_seq));
        }
        prev_seq = e.seq;

        if (e.pred == kNoPred && !e.predResolved) {
            fail("sb-forward-state", kNoAddr, std::move(obj),
                 "unpredicated store (seq " + std::to_string(e.seq) +
                     ") marked predicate-unresolved");
        }
        if (e.dead && !(e.predResolved && !e.predValue)) {
            fail("sb-forward-state", kNoAddr, std::move(obj),
                 "dead store (seq " + std::to_string(e.seq) +
                     ") is not a resolved-FALSE store");
        }
        if (e.pred != kNoPred && !core.preds.known(e.pred)) {
            fail("dangling-predicate", kNoAddr, std::move(obj),
                 "store buffer entry (seq " + std::to_string(e.seq) +
                     ") references unknown predicate id " +
                     std::to_string(e.pred));
        }
        if (e.addrKnown &&
            ((e.addr & 7) != 0 || e.addr >= core.p.memoryBytes)) {
            fail("sb-forward-state", kNoAddr, std::move(obj),
                 "filled store address " + hex(e.addr) +
                     " is not forwarding-eligible (unaligned or outside "
                     "the data image)");
        }
        ++idx;
    }

    // Exactly the in-flight ROB stores, in the same order.
    bool match = entries.size() == robStoreSeqs.size();
    if (match) {
        std::size_t i = 0;
        for (const SbEntry &e : entries) {
            if (e.seq != robStoreSeqs[i++]) {
                match = false;
                break;
            }
        }
    }
    if (!match) {
        fail("sb-rob-mismatch", kNoAddr, "sb:0",
             "store buffer holds " + std::to_string(entries.size()) +
                 " entries but the ROB holds " +
                 std::to_string(robStoreSeqs.size()) +
                 " in-flight stores (or their seqs differ)");
    }
}

void
CoreChecker::checkPrfFreeList()
{
    const std::size_t n = core.prf.size();
    regScratch.assign(n, 0);
    std::size_t flagged_free = 0;
    for (std::size_t r = 0; r < n; ++r)
        flagged_free += core.prf.isFree(PhysReg(r)) ? 1 : 0;

    const std::vector<PhysReg> &fl = core.prf.freeView();
    for (PhysReg r : fl) {
        if (std::size_t(r) >= n) {
            fail("prf-freelist-corrupt", kNoAddr,
                 "prf:" + std::to_string(r),
                 "free list holds out-of-range register p" +
                     std::to_string(r));
        }
        if (regScratch[r]) {
            fail("prf-freelist-corrupt", kNoAddr,
                 "prf:" + std::to_string(r),
                 "register p" + std::to_string(r) +
                     " appears twice on the free list");
        }
        regScratch[r] = 1;
        if (!core.prf.isFree(r)) {
            fail("prf-freelist-corrupt", kNoAddr,
                 "prf:" + std::to_string(r),
                 "register p" + std::to_string(r) +
                     " is on the free list but not flagged free");
        }
    }
    if (fl.size() != flagged_free) {
        fail("prf-freelist-corrupt", kNoAddr, "prf:0",
             "free list holds " + std::to_string(fl.size()) +
                 " registers but " + std::to_string(flagged_free) +
                 " are flagged free");
    }
}

void
CoreChecker::checkCheckpoints()
{
    const std::vector<Checkpoint> &pool = core.cpPool.view();
    const std::vector<std::int32_t> &free_ids = core.cpPool.freeView();

    std::size_t in_use = 0;
    for (const Checkpoint &cp : pool)
        in_use += cp.inUse ? 1 : 0;
    if (in_use + free_ids.size() != pool.size()) {
        fail("checkpoint-accounting", kNoAddr, "cp:0",
             std::to_string(in_use) + " checkpoints in use + " +
                 std::to_string(free_ids.size()) + " free != pool size " +
                 std::to_string(pool.size()));
    }
    std::vector<char> seen(pool.size(), 0);
    for (std::int32_t id : free_ids) {
        if (id < 0 || std::size_t(id) >= pool.size() || seen[id] ||
            pool[id].inUse) {
            fail("checkpoint-accounting", kNoAddr,
                 "cp:" + std::to_string(id),
                 "free-id stack entry " + std::to_string(id) +
                     " is out of range, duplicated, or in use");
        }
        seen[id] = 1;
    }

    // ROB <-> pool bijection: each entry's checkpoint is in use and
    // owned by it, and each in-use checkpoint has its owner in the ROB.
    std::vector<char> owned(pool.size(), 0);
    for (std::uint32_t i = 0; i < core.robCount; ++i) {
        const std::uint32_t slot = core.robSlotAt(i);
        const DynInst &di = core.rob[slot];
        const std::uint64_t seq = core.robSeq[slot];
        if (di.checkpointId < 0)
            continue;
        std::string obj = "cp:" + std::to_string(di.checkpointId);
        if (std::size_t(di.checkpointId) >= pool.size() ||
            !pool[di.checkpointId].inUse ||
            pool[di.checkpointId].ownerSeq != seq) {
            fail("checkpoint-owner-mismatch", di.pc, std::move(obj),
                 "ROB entry seq " + std::to_string(seq) +

                     " references checkpoint " +
                     std::to_string(di.checkpointId) +
                     " which is free or owned by another instruction");
        }
        owned[di.checkpointId] = 1;
    }
    for (std::size_t id = 0; id < pool.size(); ++id) {
        if (pool[id].inUse && !owned[id]) {
            fail("checkpoint-owner-missing", kNoAddr,
                 "cp:" + std::to_string(id),
                 "checkpoint " + std::to_string(id) +
                     " is in use (owner seq " +
                     std::to_string(pool[id].ownerSeq) +
                     ") but no ROB entry references it");
        }
    }
}

void
CoreChecker::validateMap(const RenameMap &m, const std::string &object)
{
    regScratch.assign(core.prf.size(), 0);
    for (std::size_t r = 0; r < m.map.size(); ++r) {
        PhysReg p = m.map[r];
        if (std::size_t(p) >= core.prf.size() || core.prf.isFree(p)) {
            fail("rat-maps-freed-reg", kNoAddr, object,
                 "rename map entry r" + std::to_string(r) +
                     " maps to p" + std::to_string(p) +
                     " which is out of range or on the free list");
        }
        if (regScratch[p]) {
            fail("rat-aliasing", kNoAddr, object,
                 "rename map maps two architectural registers to p" +
                     std::to_string(p));
        }
        regScratch[p] = 1;
    }
}

bool
CoreChecker::predicationQuiescent() const
{
    if (core.fdp.active() || core.fdual.active)
        return false;
    for (std::uint32_t i = 0; i < core.robCount; ++i) {
        const std::uint32_t slot = core.robSlotAt(i);
        if (core.robPred[slot] != kNoPred ||
            core.rob[slot].kind != UopKind::Normal)
            return false;
    }

    for (const FetchedInst &fi : core.fetchQueue) {
        if (fi.pred != kNoPred || fi.episode != kNoEpisode ||
            fi.kind != UopKind::Normal) {
            return false;
        }
    }
    for (const Episode &ep : core.episodeTable) {
        if (ep.id != kNoEpisode && !ep.dead && ep.pendingMarkers > 0)
            return false;
    }
    return true;
}

void
CoreChecker::checkRatValidity()
{
    // Map liveness/aliasing is only an invariant while predication is
    // quiescent: during an episode the active map (and checkpoints
    // snapshotted from it) may sit on a predicated-FALSE lineage whose
    // registers the committing TRUE path has legitimately released —
    // predicated-FALSE consumers of those mappings are architecturally
    // inert, so this is by design (see setupDependencies in
    // core_rename.cc). Outside predication every mapping must be live
    // and alias-free.
    if (!predicationQuiescent())
        return;

    validateMap(core.activeMap, "rat:active");
    if (core.dualAltMapValid)
        validateMap(core.dualAltMap, "rat:dual");
    const std::vector<Checkpoint> &pool = core.cpPool.view();
    for (std::size_t id = 0; id < pool.size(); ++id) {
        if (!pool[id].inUse)
            continue;
        validateMap(pool[id].map, "cp:" + std::to_string(id));
    }
}

void
CoreChecker::checkLeaks()
{
    const std::size_t n = core.prf.size();
    std::vector<char> reach(n, 0);
    auto mark = [&](PhysReg p) {
        if (p != kNoPhysReg && std::size_t(p) < n)
            reach[p] = 1;
    };
    auto markMap = [&](const RenameMap &m) {
        for (PhysReg p : m.map)
            mark(p);
    };

    markMap(core.activeMap);
    if (core.dualAltMapValid)
        markMap(core.dualAltMap);
    for (const Checkpoint &cp : core.cpPool.view()) {
        if (!cp.inUse)
            continue;
        markMap(cp.map);
    }
    for (std::uint32_t i = 0; i < core.robCount; ++i) {
        const std::uint32_t slot = core.robSlotAt(i);
        const DynInst &di = core.rob[slot];
        mark(di.src1);
        mark(di.src2);
        mark(core.robDest[slot]);
        mark(di.oldDest);
        mark(di.selTrue);
        mark(di.selFalse);
    }

    for (const Episode &ep : core.episodeTable) {
        if (ep.id == kNoEpisode || ep.dead)
            continue;
        if (ep.atBranchMapValid)
            markMap(ep.atBranchMap);
        if (ep.endPredMapValid)
            markMap(ep.endPredMap);
    }

    for (std::size_t r = 0; r < n; ++r) {
        if (!core.prf.isFree(PhysReg(r)) && !reach[r]) {
            fail("phys-reg-leak", kNoAddr, "prf:" + std::to_string(r),
                 "register p" + std::to_string(r) +
                     " is neither free nor reachable from any rename "
                     "map, checkpoint, ROB entry, or episode");
        }
    }
}

void
CoreChecker::checkEpisodesAndPredicates()
{
    markerTally.clear();
    for (const FetchedInst &fi : core.fetchQueue) {
        if (!isMarker(fi.kind))
            continue;
        std::string obj = "ep:" + std::to_string(fi.episode);
        const Episode &ep = core.episodeTable[fi.episode & core.episodeMask];
        if (ep.id != fi.episode) {
            fail("dangling-episode", fi.pc, std::move(obj),
                 "queued " + std::string(uopKindName(fi.kind)) +
                     " marker references episode " +
                     std::to_string(fi.episode) +
                     " whose table slot was recycled");
        }
        ++markerTally[fi.episode];
    }

    for (const Episode &ep : core.episodeTable) {
        if (ep.id == kNoEpisode)
            continue;
        std::string obj = "ep:" + std::to_string(ep.id);
        auto it = markerTally.find(ep.id);
        std::int32_t queued = it == markerTally.end() ? 0 : it->second;
        if (ep.pendingMarkers != queued) {
            fail("episode-marker-accounting", ep.divergePc, std::move(obj),
                 "episode " + std::to_string(ep.id) + " expects " +
                     std::to_string(ep.pendingMarkers) +
                     " pending markers but the fetch queue holds " +
                     std::to_string(queued));
        }
        // Unfinished episodes must still be able to resolve their
        // predicates. (Resolved/converted/dead episodes may legally
        // outlive their predicate ids' ring window.)
        if (!ep.dead && !ep.resolved && !ep.isConverted()) {
            if (ep.p1 != kNoPred && !core.preds.known(ep.p1)) {
                fail("dangling-predicate", ep.divergePc, std::move(obj),
                     "live episode " + std::to_string(ep.id) +
                         " holds unknown predicate p1=" +
                         std::to_string(ep.p1));
            }
            if (ep.p2 != kNoPred && !core.preds.known(ep.p2)) {
                fail("dangling-predicate", ep.divergePc, std::move(obj),
                     "live episode " + std::to_string(ep.id) +
                         " holds unknown predicate p2=" +
                         std::to_string(ep.p2));
            }
        }
    }

    if (core.fdp.active() && !core.episodeIfAlive(core.fdp.episodeId)) {
        fail("dangling-episode", kNoAddr,
             "ep:" + std::to_string(core.fdp.episodeId),
             "fetch is dynamically predicating under episode " +
                 std::to_string(core.fdp.episodeId) +
                 " which is dead or recycled");
    }
    if (core.fdual.active && !core.episodeIfAlive(core.fdual.episodeId)) {
        fail("dangling-episode", kNoAddr,
             "ep:" + std::to_string(core.fdual.episodeId),
             "dual-path fetch references episode " +
                 std::to_string(core.fdual.episodeId) +
                 " which is dead or recycled");
    }
}

// ---------------------------------------------------------------------
// Lockstep retirement oracle
// ---------------------------------------------------------------------

void
CoreChecker::lockstepCommit(const DynInst &di, PredId pred)
{
    if (di.kind != UopKind::Normal)
        return;
    // Predicated-FALSE instructions leave no architectural trace; the
    // oracle only ever executes the correct path.
    if (pred != kNoPred && di.predResolved && !di.predValue)
        return;


    if (skipNextStep) {
        skipNextStep = false;
        return; // injected fault: oracle deliberately left behind
    }

    if (oracle.halted()) {
        fail("lockstep-pc", di.pc, "funcsim",
             "core retired pc " + hex(di.pc) +
                 " after the reference simulator already halted");
    }
    if (oracle.state().pc != di.pc) {
        fail("lockstep-pc", di.pc, "funcsim",
             "core retired pc " + hex(di.pc) +
                 " but the reference simulator is at " +
                 hex(oracle.state().pc));
    }

    isa::StepInfo info = oracle.step();
    ++nCommits;

    if (di.isControl && !info.halted &&
        info.nextPc != di.actualNextPc) {
        fail("lockstep-control", di.pc, "funcsim",
             "core resolved control at " + hex(di.pc) + " to " +
                 hex(di.actualNextPc) + " but the reference went to " +
                 hex(info.nextPc));
    }
    if (di.isLoad() || di.isStore()) {
        if (info.memAddr != di.memAddr) {
            fail("lockstep-mem-addr", di.pc, "funcsim",
                 "memory access at " + hex(di.pc) + " used address " +
                     hex(di.memAddr) + " but the reference computed " +
                     hex(info.memAddr));
        }
        if (di.isStore() &&
            core.retiredMemory().load(di.memAddr) !=
                refMem.load(di.memAddr)) {
            fail("lockstep-mem-value", di.pc, "funcsim",
                 "committed store at " + hex(di.pc) + " left " +
                     hex(core.retiredMemory().load(di.memAddr)) +
                     " at address " + hex(di.memAddr) +
                     " but the reference holds " +
                     hex(refMem.load(di.memAddr)));
        }
    }

    for (ArchReg r = 0; r < isa::kNumArchRegs; ++r) {
        if (core.retiredArch.read(r) != oracle.state().read(r)) {
            fail("lockstep-reg", di.pc, "arch:r" + std::to_string(r),
                 "after retiring pc " + hex(di.pc) + ", r" +
                     std::to_string(r) + " holds " +
                     hex(core.retiredArch.read(r)) +
                     " but the reference holds " +
                     hex(oracle.state().read(r)));
        }
    }

    if (di.si.op == isa::Opcode::HALT) {
        if (!info.halted) {
            fail("lockstep-halt", di.pc, "funcsim",
                 "core retired HALT at " + hex(di.pc) +
                     " but the reference simulator did not halt");
        }
        if (!(core.retiredMemory() == refMem)) {
            fail("lockstep-mem-final", di.pc, "funcsim",
                 "final memory image differs from the reference after "
                 "HALT at " + hex(di.pc));
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

void
CoreChecker::tryInject()
{
    switch (plan.kind) {
      case FaultKind::None:
        return;
      case FaultKind::LeakPhysReg: {
        if (!core.prf.hasFree())
            return;
        core.prf.alloc(); // ... and drop it on the floor.
        break;
      }
      case FaultKind::ReorderStore: {
        std::deque<SbEntry> &entries = core.sb.view();
        if (entries.size() < 2)
            return;
        std::swap(entries[0].seq, entries[1].seq);
        break;
      }
      case FaultKind::SkipFuncSimStep:
        if (!wantsLockstep(opt.mode))
            return;
        skipNextStep = true;
        break;
      case FaultKind::ClobberCheckpoint: {
        if (core.prf.freeView().empty())
            return;
        PhysReg freed = core.prf.freeView().back();
        std::int32_t victim = -1;
        for (std::uint32_t i = 0; i < core.robCount; ++i) {
            const std::uint32_t slot = core.robSlotAt(i);
            const DynInst &di = core.rob[slot];
            if (di.checkpointId < 0)
                continue;
            if (core.robPred[slot] != kNoPred && di.predResolved &&
                !di.predValue)
                continue; // FALSE owners are exempt from map liveness
            victim = di.checkpointId;
            break;
        }

        if (victim < 0)
            return;
        core.cpPool.get(victim).map.map[5] = freed;
        break;
      }
      case FaultKind::DanglingPredicate: {
        if (core.robCount == 0)
            return;
        PredId unknown = 0x40000000u;
        while (core.preds.known(unknown))
            ++unknown;
        std::uint32_t slot = core.robSlotAt(core.robCount - 1);
        core.robPred[slot] = unknown;
        DynInst &di = core.rob[slot];
        di.predResolved = true;
        di.predValue = true;
        break;
      }
      case FaultKind::RobSeqSwap: {
        if (core.robCount < 2)
            return;
        std::swap(core.robSeq[core.robSlotAt(0)],
                  core.robSeq[core.robSlotAt(1)]);
        break;
      }

    }
    injected = true;
}

// ---------------------------------------------------------------------
// JSON surface
// ---------------------------------------------------------------------

std::string
selfcheckJson(Mode mode, const std::string &target, bool failed,
              std::uint64_t checked_commits,
              const analysis::Report &report, const std::string &diagnosis)
{
    json::Writer w;
    w.beginObject().field("schema", analysis::kReportSchemaVersion);
    w.field("mode", modeName(mode)).field("target", target);
    w.field("failed", failed).field("checked_commits", checked_commits);
    report.json(w.key("findings"));
    w.key("diagnosis");
    diagnosis.empty() ? w.null() : w.value(diagnosis);
    w.endObject();
    return w.take();
}

} // namespace dmp::check
