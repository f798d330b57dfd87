/**
 * @file
 * The diverge-merge processor core.
 *
 * A cycle-level out-of-order core with real register renaming onto a
 * physical register file, faithful wrong-path fetch/execute, and the
 * paper's dynamic-predication machinery:
 *
 *  - Baseline mode: aggressive speculative OoO core (Table 2).
 *  - Diverge-merge mode (PredicationScope::Diverge): low-confidence
 *    compiler-marked diverge branches enter dynamic predication; the
 *    predicted path runs to the CFM point, then the alternate path, then
 *    select-uops merge the dataflow (sections 2.3-2.6). Enhancements:
 *    multiple CFM points, early exit, multiple diverge branches (2.7),
 *    and the diverge-loop-branch / selective-update extensions (2.7.4).
 *  - DHP mode (PredicationScope::SimpleHammock): same machinery
 *    restricted to statically-marked simple hammocks (Klauser et al.).
 *  - Dual-path mode: selective dual-path execution (section 5.3).
 *
 * Pipeline: fetch -> (frontendDepth cycles) -> rename/dispatch ->
 * dataflow issue -> execute -> in-order retire. The minimum branch
 * misprediction penalty equals frontendDepth.
 */

#ifndef DMP_CORE_CORE_HH
#define DMP_CORE_CORE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "bpred/confidence.hh"
#include "bpred/oracle.hh"
#include "bpred/perceptron.hh"
#include "bpred/predictor.hh"
#include "bpred/target_predictors.hh"
#include "common/event_queue.hh"
#include "common/ring_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "core/episode.hh"
#include "core/observer.hh"
#include "core/params.hh"
#include "core/rename_map.hh"
#include "core/store_buffer.hh"
#include "isa/func_sim.hh"
#include "isa/mem_image.hh"
#include "isa/program.hh"
#include "mem/cache.hh"

namespace dmp::check
{
class CoreChecker;
} // namespace dmp::check

namespace dmp::core
{

/** Aggregated run statistics (Figures 1, 7-13; Table 3). */
struct CoreStats
{
    Counter cycles;
    Counter retiredInsts;      ///< committed program instructions
    Counter retiredFalseInsts; ///< predicated-FALSE program instructions
    Counter retiredExtraUops;  ///< enter.pred/enter.alt/exit.pred
    Counter retiredSelectUops;
    Counter fetchedInsts;      ///< program instructions fetched
    Counter executedInsts;     ///< program instructions issued
    Counter executedExtraUops;
    Counter executedSelectUops;

    Counter retiredCondBranches;
    Counter retiredMispredCondBranches;
    Counter retiredControl;
    Counter pipelineFlushes;        ///< all flush events
    Counter condBranchFlushes;      ///< flushes from conditional branches
    Counter flushedInsts;

    Counter dpredEntries;           ///< dynamic predication episodes
    Counter exitCase[6];            ///< Table 1 cases 1..6
    Counter earlyExits;
    Counter mdbConversions;
    Counter overflowConversions;
    Counter squashedEpisodes;
    Counter dualForks;

    Counter wrongPathFetched;       ///< oracle-flagged wrong-path fetches
    Counter wpControlDependent;     ///< flushed, before reconvergence
    Counter wpControlIndependent;   ///< flushed, after reconvergence

    Counter btbMisses;
    Counter lowConfDivergeFetches;

    Counter cyclesSkipped; ///< quiescent cycles jumped over by run()

    // Histograms (Figures 8/10/11 diagnostics).
    Distribution episodeLength;  ///< program insts fetched per episode
    Distribution flushDepth;     ///< program insts squashed per flush
    Distribution fetchToRetire;  ///< fetch-to-retire latency (retired)
    Distribution stageActiveCycles; ///< pipeline stages active per cycle

    CoreStats();

    /**
     * Visit every stat (see common/stats.hh): the counters, the
     * histograms, then the derived ratios, each under its record name.
     */
    template <class F>
    void
    forEachStat(F &&f) const
    {
        f("cycles", cycles, "simulated cycles");
        f("retired_insts", retiredInsts, "committed program instructions");
        f("retired_false_insts", retiredFalseInsts,
          "predicated-FALSE program instructions");
        f("retired_extra_uops", retiredExtraUops, "enter/exit dpred uops");
        f("retired_select_uops", retiredSelectUops, "select-uops");
        f("fetched_insts", fetchedInsts,
          "program instructions fetched (incl. wrong path)");
        f("executed_insts", executedInsts, "program instructions issued");
        f("executed_extra_uops", executedExtraUops, "");
        f("executed_select_uops", executedSelectUops, "");
        f("retired_cond_branches", retiredCondBranches, "");
        f("retired_mispred_cond_branches", retiredMispredCondBranches, "");
        f("retired_control", retiredControl, "");
        f("pipeline_flushes", pipelineFlushes, "all flush events");
        f("cond_branch_flushes", condBranchFlushes,
          "flushes caused by conditional branches");
        f("flushed_insts", flushedInsts, "");
        f("dpred_entries", dpredEntries,
          "dynamic predication episodes started");
        f("exit_case1", exitCase[0], "Table 1 case 1");
        f("exit_case2", exitCase[1], "Table 1 case 2");
        f("exit_case3", exitCase[2], "Table 1 case 3");
        f("exit_case4", exitCase[3], "Table 1 case 4");
        f("exit_case5", exitCase[4], "Table 1 case 5");
        f("exit_case6", exitCase[5], "Table 1 case 6");
        f("early_exits", earlyExits, "section 2.7.2 early exits");
        f("mdb_conversions", mdbConversions, "section 2.7.3 conversions");
        f("overflow_conversions", overflowConversions,
          "path-length cap conversions");
        f("squashed_episodes", squashedEpisodes,
          "episodes killed by an older misprediction");
        f("dual_forks", dualForks, "dual-path episodes");
        f("wrong_path_fetched", wrongPathFetched,
          "wrong-path program instructions fetched");
        f("wp_control_dependent", wpControlDependent,
          "flushed insts before reconvergence");
        f("wp_control_independent", wpControlIndependent,
          "flushed insts after reconvergence");
        f("btb_misses", btbMisses, "");
        f("low_conf_diverge_fetches", lowConfDivergeFetches, "");
        f("cycles_skipped", cyclesSkipped,
          "quiescent cycles jumped over by the run loop");

        f("episode_length", episodeLength,
          "program insts fetched per dpred episode");
        f("flush_depth", flushDepth,
          "program insts squashed per pipeline flush");
        f("fetch_to_retire", fetchToRetire,
          "fetch-to-retire latency of retired insts");
        f("stage_active_cycles", stageActiveCycles,
          "pipeline stages that did work, per cycle");

        // A zero denominator (an empty run) reads as 0.
        auto ratio = [](std::uint64_t a, std::uint64_t b) {
            return b ? double(a) / double(b) : 0.0;
        };
        const std::uint64_t retired = retiredInsts.value();
        f("ipc", ratio(retired, cycles.value()),
          "retired program instructions per cycle");
        f("flushes_per_kilo_insts",
          1000.0 * ratio(pipelineFlushes.value(), retired),
          "pipeline flushes per 1000 retired instructions");
        f("mispred_per_kilo_insts",
          1000.0 * ratio(retiredMispredCondBranches.value(), retired),
          "retired cond-branch mispredictions per 1000 insts (MPKI)");
        f("fetch_overhead", ratio(fetchedInsts.value(), retired),
          "fetched / retired program instructions (Fig. 12)");
        f("exec_overhead",
          ratio(executedInsts.value() + executedExtraUops.value() +
                    executedSelectUops.value(),
                retired),
          "executed (incl. uops) / retired program instructions "
          "(Fig. 12)");
    }
};

static_assert(isa::kZeroReg < isa::kNumArchRegs);

/**
 * Smallest ROB that can rename every predicated exit. renameExitPred
 * places exit.pred and all of its select-uops in one go, and an exit
 * can need a select-uop for every architectural register but the
 * hardwired kZeroReg; a smaller ROB never fits them and deadlocks.
 */
inline constexpr unsigned kMinPredicationRobSize =
    1 + (isa::kNumArchRegs - 1);

/** The out-of-order diverge-merge core. */
class Core
{
  public:
    /**
     * @param program marked program image (diverge/CFM marks read here)
     * @param params machine configuration
     */
    Core(const isa::Program &program, const CoreParams &params);
    ~Core();

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Advance one cycle. @return false once HALT has retired. */
    bool tick();

    /**
     * Run until HALT retires or a limit is hit.
     * @return retired program instructions this call.
     */
    std::uint64_t run(std::uint64_t max_insts = ~0ULL,
                      std::uint64_t max_cycles = ~0ULL);

    bool halted() const { return isHalted; }
    Cycle cycle() const { return now; }

    const CoreStats &stats() const { return st; }
    CoreStats &stats() { return st; }

    /** Committed architectural register file (for verification). */
    const isa::ArchState &retiredState() const { return retiredArch; }
    /** Committed memory image (for verification). */
    const isa::MemoryImage &retiredMemory() const { return *memory; }

    const CoreParams &params() const { return p; }
    const isa::Program &program() const { return prog; }

    /** Liveness check used by leak tests: all pools back to full. */
    bool resourcesQuiescent() const;

    /** Human-readable pool occupancy (for leak-test diagnostics). */
    std::string resourceReport() const;

    /**
     * Subscribe `o` to the core's event stream (non-owning; must
     * outlive the runs it watches). Works in every build. A lone
     * observer is called directly; attaching a second moves all of
     * them behind a fan-out the core owns, called in attach order.
     */
    void addObserver(CoreObserver *o);

  private:
    friend class dmp::check::CoreChecker;

    // ---- Pipeline stages (called oldest-stage-first each cycle) ----
    // Each returns true when it mutated machine state this cycle; an
    // all-false cycle is provably idempotent until the next wake event
    // (see nextWakeCycle), which is what lets run() skip the clock.
    bool retireStage();
    bool completeStage();
    bool issueStage();
    bool renameStage();
    bool fetchStage();

    /**
     * Earliest future cycle at which an idle machine can do work again:
     * the next scheduled completion event, the front of the fetch queue
     * reaching the rename stage, or an instruction-fetch stall ending
     * (only when fetch still has a live target). kNeverCycle when no
     * time-driven wake exists (a genuinely wedged machine must keep
     * ticking so the deadlock detector still fires).
     */
    Cycle
    nextWakeCycle() const noexcept
    {
        // Called right after an idle tick, so `now` is the next cycle
        // that has not been simulated yet: a wake time equal to `now`
        // must be kept (it yields a zero-length skip), only wake times
        // in the simulated past are excluded (a rename resource stall
        // whose queue head is long since ready is woken by an event,
        // not by time).
        Cycle wake = events.nextEventCycle(now);
        if (!fetchQueue.empty()) {

            Cycle ready = fetchQueue.front().renameReadyAt;
            if (ready >= now && ready < wake)
                wake = ready;
        }
        if (fetchStallUntil >= now && fetchStallUntil < wake) {
            bool fetch_live = fdual.active
                                  ? (fdual.pc[0] != kNoAddr ||
                                     fdual.pc[1] != kNoAddr)
                                  : fetchPc != kNoAddr;
            if (fetch_live)
                wake = fetchStallUntil;
        }
        return wake;
    }


    // ---- Fetch helpers ----
    bool fetchNormalCycle();
    bool fetchDualCycle();

    /** Fetch one instruction at pc; returns false to end the cycle. */
    bool fetchOne(Addr &pc, std::uint64_t &ghr_ref, PathId dual_path,
                  unsigned &branches_this_cycle);
    void predictControl(FetchedInst &fi, Addr &next_pc,
                        std::uint64_t &ghr_ref, PathId dual_path);
    bool tryStartDpredEpisode(FetchedInst &fi, const isa::DivergeMark &mark);
    bool tryStartDualEpisode(FetchedInst &fi);
    void switchToAlternatePath();
    void normalDpredExit();
    void convertEpisode(Episode &ep, ConversionReason reason,
                        bool redirect_to_cfm);
    void enqueueMarker(UopKind kind, EpisodeId episode);
    void pushFetched(const FetchedInst &fi);

    unsigned effectiveEarlyExitThreshold(const Episode &ep) const;

    // ---- Rename helpers ----
    bool renameOne(FetchedInst &fi);
    void renameProgramInst(FetchedInst &fi);
    void renameEnterPred(const FetchedInst &fi);
    void renameEnterAlt(const FetchedInst &fi);
    bool renameExitPred(const FetchedInst &fi);
    void renameRestoreMap(const FetchedInst &fi);
    void setupDependencies(InstRef ref);
    /**
     * Allocate the next ROB slot and reset its scheduler arrays. The
     * DynInst record is left stale: the caller writes the whole of it.
     */
    InstRef
    allocRob()
    {
        dmp_assert(!robFull(), "allocRob on full ROB");
        std::uint32_t slot = robHead + robCount;
        if (slot >= p.robSize)
            slot -= p.robSize;
        ++robCount;

        std::uint64_t seq = nextSeq++;
        robSeq[slot] = seq;
        robState[slot] = 0;
        robDeps[slot] = 0;
        robDest[slot] = kNoPhysReg;
        robCompleteAt[slot] = kNeverCycle;
        robPred[slot] = kNoPred;
        return InstRef{slot, seq};
    }

    RenameMap &renameMapFor(PathId path, EpisodeId episode);

    // ---- Backend helpers ----
    void executeReady(InstRef ref);
    bool tryIssueLoad(InstRef ref);
    void
    scheduleCompletion(InstRef ref, Cycle when)
    {
        // Completion runs before issue within a tick, so an event due
        // "now" has always been observed one cycle later; making that
        // explicit keeps every live ring event strictly in the future,
        // which is what the calendar drain relies on.
        if (when <= now)
            when = now + 1;
        robCompleteAt[ref.slot] = when;
        events.schedule(now, when, ref);
    }


    void writeback(InstRef ref);
    void resolveControl(InstRef ref);
    void resolveDivergeBranch(InstRef ref, DynInst &di, Episode &ep);
    void resolveDualFork(DynInst &di, Episode &ep);
    void broadcastPredicate(PredId pred, bool value, bool assumed);
    void wakeSelectUop(std::uint32_t slot, DynInst &di);

    void flushAfter(InstRef branch_ref, Addr redirect_pc);
    /** @return program instructions squashed (flush-depth histogram). */
    std::uint64_t squashYoungerThan(std::uint64_t survive_seq);
    void clearFetchQueue();
    void redirectFetch(Addr pc);

    // ---- Retire helpers ----
    void commitInst(std::uint32_t slot, DynInst &di);
    void trainPredictors(DynInst &di);

    // ---- ROB plumbing ----
    // Packed robState bits (lifecycle order: dispatched -> issued ->
    // executed; awaiting-predicate gates select-uops out of the ready
    // queue until their predicate broadcasts).
    static constexpr std::uint8_t kRobDispatched = 1u << 0;
    static constexpr std::uint8_t kRobIssued = 1u << 1;
    static constexpr std::uint8_t kRobExecuted = 1u << 2;
    static constexpr std::uint8_t kRobAwaitPred = 1u << 3;

    // Defined in-class: these run several times per simulated cycle
    // from every stage TU and must inline across them (the stage files
    // are separate TUs, so out-of-line definitions would be opaque
    // calls on the hottest paths of the simulator).

    DynInst *
    lookup(InstRef ref) noexcept
    {
        // A free slot holds robSeq == 0 and real refs carry seq >= 1,
        // so one dense compare covers both the validity and identity
        // tests the AoS layout needed two loads for.
        if (robSeq[ref.slot] != ref.seq)
            return nullptr;
        return &rob[ref.slot];
    }
    /** Slot index of the idx-th oldest entry (0 == head). */
    std::uint32_t
    robSlotAt(std::uint32_t idx) const noexcept
    {
        dmp_assert(idx < robCount, "robSlotAt out of range");
        // robHead + idx < 2 * robSize: one conditional subtract wraps
        // the ring without an integer divide.
        std::uint32_t slot = robHead + idx;
        if (slot >= p.robSize)
            slot -= p.robSize;
        return slot;
    }
    /** idx-th oldest (0 == head). */
    DynInst &
    robAt(std::uint32_t idx) noexcept
    {
        return rob[robSlotAt(idx)];
    }

    std::uint32_t
    robTailSlot() const noexcept
    {
        dmp_assert(robCount > 0, "robTailSlot on empty ROB");
        std::uint32_t slot = robHead + robCount - 1;
        if (slot >= p.robSize)
            slot -= p.robSize;
        return slot;
    }
    bool robFull() const noexcept { return robCount == p.robSize; }
    bool robEmpty() const noexcept { return robCount == 0; }

    // ---- Episodes ----
    /** Allocate the next episode id and its (recycled) table slot. */
    Episode &newEpisode();
    Episode &
    episode(EpisodeId id) noexcept
    {
        Episode &ep = episodeTable[id & episodeMask];
        dmp_assert(ep.id == id, "unknown episode ", id);
        return ep;
    }
    Episode *
    episodeIfAlive(EpisodeId id) noexcept
    {
        if (id == kNoEpisode)
            return nullptr;
        Episode &ep = episodeTable[id & episodeMask];
        if (ep.id != id || ep.dead)
            return nullptr;
        return &ep;
    }
    void killEpisode(Episode &ep);
    void classifyExit(Episode &ep, ExitCase c);

    // ---- Wrong-path classification (Figure 1) ----
    struct WrongPathRecord
    {
        std::vector<Addr> squashedPcs;
        std::vector<Addr> correctPcs;
        bool sawRedirect = false;
    };
    void noteFlushForClassifier(std::uint64_t survive_seq);
    /** Per-fetch hook; only the cheap not-classifying test is inline. */
    void
    noteFetchForClassifier(Addr pc)
    {
        if (!p.classifyWrongPath || wpRecords.empty())
            return;
        noteFetchForClassifierSlow(pc);
    }
    void noteFetchForClassifierSlow(Addr pc);
    void finalizeClassifier(WrongPathRecord &rec);
    void finalizeAllClassifiers();

    /** Panic, with a diagnostic dump, when retirement stops. */
    [[noreturn]] void panicDeadlock();

    // ---- Observer notifiers ----
    // One null test per event when no observer is attached. Per-cycle
    // retire counts accumulate in the cyc* scratch members and are
    // consumed (and always reset) by endCycle.

    /**
     * Close the cycle that just ran: advance the clock and hand the
     * observer the cycle's sample. The sample is taken before the clock
     * moves (fetchStalled compares against the cycle that ran); the
     * call comes after (the checker's stride tests read the new now).
     */
    void
    endCycle()
    {
        if (obs) {
            AcctCycleSample s;
            s.cycle = now;
            s.usefulRetired = cycUseful;
            s.falseRetired = cycFalse;
            s.uopRetired = cycUops;
            s.robEmpty = robCount == 0;
            s.fetchStalled = now < fetchStallUntil;
            s.frontendActive = !fetchQueue.empty() ||
                               fetchPc != kNoAddr || fdual.active;
            s.renameBlocked = cycRenameBlocked;
            ++st.cycles;
            ++now;
            obs->onCycleEnd(s);
        } else {
            ++st.cycles;
            ++now;
        }
        cycUseful = 0;
        cycFalse = 0;
        cycUops = 0;
        cycRenameBlocked = false;
    }
    void
    notifyRetire(const DynInst &di, std::uint64_t seq, PredId pred)
    {
        if (!obs)
            return;
        const bool is_false = pred != kNoPred && di.predResolved &&
                              !di.predValue;
        if (di.kind == UopKind::Normal) {
            if (is_false)
                ++cycFalse;
            else
                ++cycUseful;
        } else {
            ++cycUops;
        }
        obs->onRetire(di, seq, pred);
        if (di.episode != kNoEpisode &&
            (is_false || di.kind != UopKind::Normal)) {
            const Episode &ep = episodeTable[di.episode & episodeMask];
            if (ep.id == di.episode && ep.divergePc != kNoAddr)
                obs->onPredicatedRetire(ep.divergePc,
                                        di.kind != UopKind::Normal);
        }
    }
    void
    notifyEpisodeEnd(const Episode &ep)
    {
        if (obs) {
            AcctEpisodeEnd e;
            e.id = ep.id;
            e.divergePc = ep.divergePc;
            e.exitCase = std::uint8_t(ep.exitCase);
            e.converted = std::uint8_t(ep.converted);
            e.fetchedInsts = ep.fetchedInsts;
            e.dead = ep.dead;
            e.isDualPath = ep.isDualPath;
            e.resolvedCorrect = ep.resolvedCorrect;
            if (holdEpisodeEnds)
                heldEpisodeEnds.push_back(e);
            else
                obs->onEpisodeEnd(e, now);
        }
    }
    void
    noteRenameBlocked()
    {
        if (obs)
            cycRenameBlocked = true;
    }
    /**
     * Report `k` skipped cycles (now .. now + k - 1) to the observer
     * in bulk. Legal because every classification input is
     * constant across an idle span: nothing retires, the ROB occupancy
     * and front-end liveness cannot change without a stage doing work,
     * and rename stays blocked (or not) for the same reason it was on
     * the idle tick that preceded the span. The one flag that CAN flip
     * mid-span is fetchStalled — the fetch-dead case is not clipped by
     * nextWakeCycle — so the span is split at fetchStallUntil into at
     * most two constant-flag segments.
     */
    void
    notifyIdleSpan(std::uint64_t k)
    {
        if (obs && k > 0) {
            AcctCycleSample s;
            s.cycle = now;
            s.robEmpty = robCount == 0;
            s.frontendActive = !fetchQueue.empty() ||
                               fetchPc != kNoAddr || fdual.active;
            // An idle tick with a rename-ready queue front means
            // renameOne failed on a backend resource; that resource
            // cannot free while the span is idle.
            s.renameBlocked = !fetchQueue.empty() &&
                              fetchQueue.front().renameReadyAt <= now;
            if (fetchStallUntil > now) {
                const std::uint64_t stalled =
                    std::min<std::uint64_t>(k, fetchStallUntil - now);
                s.fetchStalled = true;
                obs->onIdleSpan(s, stalled);
                if (stalled == k)
                    return;
                s.cycle = now + stalled;
                s.fetchStalled = false;
                obs->onIdleSpan(s, k - stalled);
            } else {
                obs->onIdleSpan(s, k);
            }
        }
    }

    // ---- Configuration & members ----
    const isa::Program &prog;
    CoreParams p;
    CoreStats st;

    // Architectural (committed) state.
    std::unique_ptr<isa::MemoryImage> memory;
    isa::ArchState retiredArch;

    // Prediction.
    std::unique_ptr<bpred::DirectionPredictor> predictor;
    /**
     * Concrete fast-path alias of `predictor` when it is the default
     * perceptron; PerceptronPredictor is `final` with inline
     * predict/train, so calls through this pointer devirtualize and
     * inline. Null for the ablation predictors (gshare/bimodal/hybrid),
     * which fall back to virtual dispatch.
     */
    bpred::PerceptronPredictor *perceptron = nullptr;
    std::unique_ptr<bpred::JrsConfidenceEstimator> jrs;
    bpred::Btb btb;
    bpred::ReturnAddressStack ras;
    bpred::IndirectTargetCache itc;
    std::unique_ptr<bpred::OracleTracker> oracle;

    // Memory timing.
    mem::CacheHierarchy caches;

    // Rename state.
    RenameMap activeMap;
    RenameMap dualAltMap;
    bool dualAltMapValid = false;
    PhysRegFile prf;
    CheckpointPool cpPool;
    StoreBuffer sb;
    PredicateFile preds;

    // ROB: fixed slot array, FIFO via head/count. The per-entry state
    // the scheduler scans every cycle lives beside it in parallel
    // arrays (structure-of-arrays) so the commit check, wakeup
    // network, completion drain, and predicate broadcast touch dense
    // cache lines instead of striding through the full DynInst record:
    //   robSeq        sequence number; 0 = slot free (seq 0 is never
    //                 allocated, so one compare validates an InstRef)
    //   robState      packed kRob* scheduling flags
    //   robDeps       outstanding source operands
    //   robDest       allocated destination physical register
    //   robCompleteAt scheduled writeback cycle
    //   robPred       predicate id guarding the entry
    std::vector<DynInst> rob;
    std::vector<std::uint64_t> robSeq;
    std::vector<std::uint8_t> robState;
    std::vector<std::uint32_t> robDeps;
    std::vector<PhysReg> robDest;
    std::vector<Cycle> robCompleteAt;
    std::vector<PredId> robPred;
    std::uint32_t robHead = 0;
    std::uint32_t robCount = 0;
    std::uint64_t nextSeq = 1;


    // Front end. Sized for the default fetch-queue capacity; grows
    // (rarely — marker uops can briefly exceed the nominal bound) by
    // doubling instead of std::deque's per-block allocation.
    RingQueue<FetchedInst> fetchQueue{256};
    Addr fetchPc = kNoAddr;
    Cycle fetchStallUntil = 0;
    std::uint64_t ghr = 0;

    /** Dynamic-predication fetch state. */
    struct FetchDpred
    {
        EpisodeId episodeId = kNoEpisode;
        PathId path = PathId::None;
        Addr chosenCfm = kNoAddr;
        std::uint32_t pathInstCount = 0;
        bool active() const { return episodeId != kNoEpisode; }
        void clear() { *this = FetchDpred{}; }
    } fdp;

    /** Dual-path fetch state: stream 0 = predicted, 1 = alternate. */
    struct FetchDual
    {
        bool active = false;
        EpisodeId episodeId = kNoEpisode;
        Addr pc[2] = {kNoAddr, kNoAddr};
        std::uint64_t ghr[2] = {0, 0};
        int toggle = 0;
        void clear() { *this = FetchDual{}; }
    } fdual;

    // Episodes: a power-of-two ring of id-validated slots indexed by
    // `id & episodeMask` — lookup is index arithmetic, not hashing.
    // Slots recycle; the window is sized (in the constructor) so every
    // episode an in-flight object can still reference — ROB and fetch
    // queue entries, checkpoints, fdp/fdual — stays resident, and
    // newEpisode() asserts a recycled slot has fully drained.
    std::vector<Episode> episodeTable;
    EpisodeId episodeMask = 0;
    EpisodeId nextEpisodeId = 1;

    // Scheduler. The ready queue keys each instruction as one word,
    // seq in the high bits and ROB slot in the low bits, so the heap
    // orders by age with a single integer compare and one-word moves
    // during sifts. The slot field caps robSize at 2^16 (default 512;
    // the constructor asserts the bound).
    static constexpr std::uint32_t kReadySlotBits = 16;
    static std::uint64_t
    readyKey(InstRef ref) noexcept
    {
        return (ref.seq << kReadySlotBits) | ref.slot;
    }
    static InstRef
    readyRef(std::uint64_t key) noexcept
    {
        return InstRef{std::uint32_t(key) & ((1u << kReadySlotBits) - 1),
                       key >> kReadySlotBits};
    }
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        readyQueue; // min-heap by age


    /** Heap tie-break for completion events landing on the same cycle. */
    struct InstRefSeqLess
    {
        bool
        operator()(const InstRef &a, const InstRef &b) const
        {
            return a.seq < b.seq;
        }
    };
    // Completion events live in a calendar queue (common/event_queue.hh):
    // O(1) insert and drain instead of a heap's O(log n), paid once per
    // executed uop. Nearly every completion lands within the ring
    // horizon (the longest ALU/memory latency); the rare farther event
    // waits in the spillover heap and is merged into its bucket when
    // due. Squashed instructions are not removed — the drain rejects
    // them with the same seq compare the heap version used.
    CalendarQueue<InstRef, InstRefSeqLess, 9> events;
    std::vector<InstRef> eventScratch; ///< completeStage drain buffer


    std::vector<InstRef> stalledLoads;

    // Run state.
    Cycle now = 0;
    bool isHalted = false;
    /** True when the previous tick() mutated no machine state. */
    bool lastTickIdle = false;


    /** The event-stream subscriber: one observer, or `fanout`. */
    CoreObserver *obs = nullptr;
    /** Owned dispatcher once more than one observer is attached. */
    std::unique_ptr<ObserverFanout> fanout;
    // Per-cycle retire tallies for the observer's cycle sample (reset
    // every cycle by endCycle; only written when an observer is set).
    unsigned cycUseful = 0;
    unsigned cycFalse = 0;
    unsigned cycUops = 0;
    bool cycRenameBlocked = false;
    /** Episode ends held back while a flush recovers (see flushAfter). */
    std::vector<AcctEpisodeEnd> heldEpisodeEnds;
    bool holdEpisodeEnds = false;

    // Figure 1 classifier.
    std::vector<WrongPathRecord> wpRecords;
};

} // namespace dmp::core

#endif // DMP_CORE_CORE_HH
