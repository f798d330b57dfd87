#include "core/core.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "bpred/perceptron.hh"
#include "bpred/table_predictors.hh"
#include "common/logging.hh"

namespace dmp::core
{

CoreStats::CoreStats()
{
    episodeLength.init(0, 255, 8);
    flushDepth.init(0, 255, 8);
    fetchToRetire.init(0, 511, 16);
    stageActiveCycles.init(0, 7, 1);
}

namespace
{

std::unique_ptr<bpred::DirectionPredictor>
makePredictor(const CoreParams &p)
{
    switch (p.predictor) {
      case PredictorKind::Perceptron:
        return std::make_unique<bpred::PerceptronPredictor>();
      case PredictorKind::Gshare:
        return std::make_unique<bpred::GsharePredictor>();
      case PredictorKind::Bimodal:
        return std::make_unique<bpred::BimodalPredictor>();
      case PredictorKind::Hybrid:
        return std::make_unique<bpred::HybridPredictor>();
    }
    dmp_panic("unknown predictor kind");
}

/**
 * Episode-ring capacity: a power of two comfortably above the number of
 * episode ids in-flight state can reference at once. Every live
 * reference is pinned by a bounded structure — a ROB entry, a fetch
 * queue entry, a checkpoint, or the fdp/fdual fetch state — so sizing
 * past their sum (with generous slack for retired-but-referenced
 * stragglers) keeps every referenced slot resident.
 */
std::size_t
episodeWindow(const CoreParams &p)
{
    std::size_t refs = std::size_t(p.robSize) +
                       p.effectiveFetchQueueCapacity() +
                       p.maxCheckpoints + 64;
    std::size_t cap = 1;
    while (cap < refs * 2)
        cap <<= 1;
    return cap;
}

/** printf-style append to `out`. */
[[gnu::format(printf, 2, 3)]] void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

Core::Core(const isa::Program &program, const CoreParams &params)
    : prog(program),
      p(params),
      memory(std::make_unique<isa::MemoryImage>(p.memoryBytes)),
      predictor(makePredictor(p)),
      jrs(std::make_unique<bpred::JrsConfidenceEstimator>()),
      btb(kBtbEntries),
      ras(kRasEntries),
      itc(kItcEntries),
      caches(),
      prf(p.effectivePhysRegs()),
      cpPool(p.maxCheckpoints),
      sb(p.storeBufferSize),
      preds(p.predRegisters, episodeWindow(p) * 2),
      rob(p.robSize),
      robSeq(p.robSize, 0),
      robState(p.robSize, 0),
      robDeps(p.robSize, 0),
      robDest(p.robSize, kNoPhysReg),
      robCompleteAt(p.robSize, kNeverCycle),
      robPred(p.robSize, kNoPred)
{
    if (p.predication != PredicationScope::None &&
        p.robSize < kMinPredicationRobSize)
        dmp_fatal("robSize ", p.robSize, " is below the minimum of ",
                  kMinPredicationRobSize, " that dynamic predication "
                  "needs to rename a predicated exit");
    dmp_assert((p.memoryBytes & (p.memoryBytes - 1)) == 0,
               "memoryBytes must be a power of two");
    dmp_assert(p.cfmCamEntries <= kMaxCfmCamEntries,
               "cfmCamEntries exceeds the inline CFM CAM bound");
    dmp_assert(p.robSize <= (1u << kReadySlotBits),
               "robSize exceeds the ready-queue slot field");
    episodeTable.resize(episodeWindow(p));
    episodeMask = episodeTable.size() - 1;
    perceptron = p.predictor == PredictorKind::Perceptron
        ? static_cast<bpred::PerceptronPredictor *>(predictor.get())
        : nullptr;
    if (p.perfectCondPredictor || p.perfectConfidence ||
        p.classifyWrongPath) {
        oracle = std::make_unique<bpred::OracleTracker>(prog,
                                                        p.memoryBytes);
    }
    for (const isa::DataSegment &seg : prog.dataSegments())
        memory->storeWords(seg.base, seg.words);
    retiredArch.pc = prog.baseAddr();
    // Identity rename map: arch reg i -> phys reg i.
    for (unsigned r = 0; r < isa::kNumArchRegs; ++r)
        activeMap.map[r] = PhysReg(r);
    fetchPc = prog.size() ? prog.baseAddr() : kNoAddr;
    isHalted = prog.size() == 0;
}

Core::~Core() = default;

void
Core::addObserver(CoreObserver *o)
{
    if (!obs) {
        obs = o;
        return;
    }
    if (!fanout) {
        fanout = std::make_unique<ObserverFanout>();
        fanout->add(obs);
        obs = fanout.get();
    }
    fanout->add(o);
}

bool
Core::tick()
{
    if (isHalted)
        return false;
    unsigned active = unsigned(retireStage());
    if (isHalted) {
        st.stageActiveCycles.sample(active);
        lastTickIdle = false;
        endCycle();
        finalizeAllClassifiers();
        return false;
    }
    active += unsigned(completeStage());
    active += unsigned(issueStage());
    active += unsigned(renameStage());
    active += unsigned(fetchStage());
    st.stageActiveCycles.sample(active);
    lastTickIdle = active == 0;
    endCycle();
    return true;
}

std::uint64_t
Core::run(std::uint64_t max_insts, std::uint64_t max_cycles)
{
    std::uint64_t start = st.retiredInsts.value();
    std::uint64_t start_cycle = now;
    std::uint64_t last_progress_cycle = now;
    std::uint64_t last_retired = st.retiredInsts.value() +
                                 st.retiredFalseInsts.value();
    // Cycle skipping: after an idle tick the machine state is a fixed
    // point until the next time-driven wake, so the clock can jump
    // there directly. Disabled when an attached observer needs every
    // real tick (the checker samples per tick; the skip tests attach
    // one to compare the two schedules). The skip length is capped so
    // a bogus wake computation still trips the deadlock detector
    // instead of spinning the clock forever.
    const bool allow_skip = obs == nullptr || obs->allowsCycleSkip();
    constexpr std::uint64_t kMaxSkip = 100000;
    while (!isHalted && st.retiredInsts.value() - start < max_insts &&
           now - start_cycle < max_cycles) {
        tick();
        if (allow_skip && lastTickIdle && !isHalted) {
            Cycle wake = nextWakeCycle();
            if (wake != kNeverCycle && wake > now) {
                std::uint64_t k = wake - now;
                k = std::min(k, max_cycles - (now - start_cycle));
                k = std::min(k, kMaxSkip);
                if (k > 0) {
                    notifyIdleSpan(k);
                    now += k;
                    st.cycles += k;
                    st.cyclesSkipped += k;
                    st.stageActiveCycles.sample(0, k);
                }
            }
        }
        std::uint64_t retired_now = st.retiredInsts.value() +
                                    st.retiredFalseInsts.value() +
                                    st.retiredExtraUops.value() +
                                    st.retiredSelectUops.value();
        if (retired_now != last_retired) {
            last_retired = retired_now;
            last_progress_cycle = now;
        } else if (now - last_progress_cycle > 200000) {
            panicDeadlock();
        }
    }
    if (!isHalted)
        finalizeAllClassifiers();
    return st.retiredInsts.value() - start;
}

void
Core::panicDeadlock()
{
    std::string out;
    appendf(out,
            "DEADLOCK at cycle %llu: rob=%u fq=%zu fetchPc=0x%llx "
            "stall=%llu fdp{ep=%llu path=%d cfm=0x%llx cnt=%u} "
            "dual=%d readyQ=%zu events=%zu stalledLoads=%zu\n",
            (unsigned long long)now, robCount, fetchQueue.size(),
            (unsigned long long)fetchPc,
            (unsigned long long)fetchStallUntil,
            (unsigned long long)fdp.episodeId, int(fdp.path),
            (unsigned long long)fdp.chosenCfm, fdp.pathInstCount,
            int(fdual.active), readyQueue.size(),
            events.size(),
            stalledLoads.size());

    for (std::uint32_t i = 0; i < std::min(robCount, 8u); ++i) {
        std::uint32_t slot = robSlotAt(i);
        DynInst &di = rob[slot];
        std::uint8_t s = robState[slot];
        appendf(
            out,
            "  rob[%u] seq=%llu kind=%d pc=0x%llx op=%s disp=%d "
            "issued=%d exec=%d deps=%u awaitPred=%d pred=%u pres=%d "
            "pval=%d\n",
            i, (unsigned long long)robSeq[slot], int(di.kind),
            (unsigned long long)di.pc, isa::opcodeName(di.si.op),
            int((s & kRobDispatched) != 0), int((s & kRobIssued) != 0),
            int((s & kRobExecuted) != 0), robDeps[slot],
            int((s & kRobAwaitPred) != 0), unsigned(robPred[slot]),
            int(di.predResolved), int(di.predValue));
        appendf(out,
                "         src1=%u(r%d rdy=%d) src2=%u(r%d rdy=%d) "
                "dest=%u ep=%llu path=%d\n",
                unsigned(di.src1), int(di.si.rs1),
                di.src1 != kNoPhysReg ? int(prf.ready(di.src1)) : -1,
                unsigned(di.src2), int(di.si.rs2),
                di.src2 != kNoPhysReg ? int(prf.ready(di.src2)) : -1,
                unsigned(robDest[slot]),
                (unsigned long long)di.episode, int(di.path));
    }
    {
        // Which registers hold the head instruction's lost waiters?
        InstRef head_ref{robHead, robSeq[robHead]};

        for (PhysReg r : prf.regsWaitedOnBy(head_ref)) {
            appendf(out,
                    "  head waits on pr%u ready=%d value=%llu\n",
                    unsigned(r), int(prf.ready(r)),
                    (unsigned long long)prf.value(r));
        }
    }
    if (!fetchQueue.empty()) {
        const FetchedInst &fi = fetchQueue.front();
        appendf(out,
                "  fq.front kind=%d pc=0x%llx readyAt=%llu ep=%llu\n",
                int(fi.kind), (unsigned long long)fi.pc,
                (unsigned long long)fi.renameReadyAt,
                (unsigned long long)fi.episode);
    }
    appendf(out, "  free: prf=%zu cp=%u sb=%zu\n",
            prf.numFree(), cpPool.freeCount(), sb.size());
    dmp_panic("no retirement progress for 200000 cycles\n", out);
}

// ---------------------------------------------------------------------
// Episodes
// ---------------------------------------------------------------------

Episode &
Core::newEpisode()
{
    EpisodeId id = nextEpisodeId++;
    Episode &ep = episodeTable[id & episodeMask];
    // A recycled slot must have fully drained: anything an in-flight
    // object could still look up (an unresolved, unconverted episode or
    // one with queued front-end markers) must never be overwritten.
    dmp_assert(ep.id == kNoEpisode || ep.dead || ep.resolved ||
                   ep.isConverted(),
               "episode ring overwrote live episode ", ep.id);
    dmp_assert(ep.pendingMarkers == 0,
               "episode ring overwrote episode with queued markers");
    ep = Episode{};
    ep.id = id;
    return ep;
}

void
Core::killEpisode(Episode &ep)
{
    if (ep.dead)
        return;
    ep.dead = true;
    ++st.squashedEpisodes;
    // Release the predicate namespace: no tagged instruction survives a
    // kill (they are all younger than the diverge branch).
    if (ep.p1 != kNoPred && !preds.get(ep.p1).resolved)
        preds.resolve(ep.p1, true, true);
    if (ep.p2 != kNoPred && !preds.get(ep.p2).resolved)
        preds.resolve(ep.p2, true, true);
    if (fdp.episodeId == ep.id)
        fdp.clear();
    if (fdual.episodeId == ep.id)
        fdual.clear();
    notifyEpisodeEnd(ep);
}

void
Core::classifyExit(Episode &ep, ExitCase c)
{
    dmp_assert(ep.exitCase == ExitCase::None, "episode classified twice");
    ep.exitCase = c;
    ++st.exitCase[unsigned(c) - 1];
    st.episodeLength.sample(ep.fetchedInsts);
    notifyEpisodeEnd(ep);
}

// ---------------------------------------------------------------------
// Figure 1 wrong-path classifier
// ---------------------------------------------------------------------

void
Core::noteFlushForClassifier(std::uint64_t survive_seq)
{
    if (!p.classifyWrongPath)
        return;
    WrongPathRecord rec;
    for (std::uint32_t i = 0; i < robCount; ++i) {
        std::uint32_t slot = robSlotAt(i);
        const DynInst &di = rob[slot];
        if (robSeq[slot] > survive_seq && di.countsAsProgramInst())
            rec.squashedPcs.push_back(di.pc);
    }

    for (const FetchedInst &fi : fetchQueue) {
        if (fi.kind == UopKind::Normal)
            rec.squashedPcs.push_back(fi.pc);
    }
    if (!rec.squashedPcs.empty())
        wpRecords.push_back(std::move(rec));
}

void
Core::noteFetchForClassifierSlow(Addr pc)
{
    // The reconvergence search window matches the compiler's CFM
    // distance bound: beyond ~120 instructions the correct path wraps
    // into later loop iterations and every address would "reconverge".
    constexpr std::size_t kReconvergenceWindow = 120;
    for (std::size_t i = 0; i < wpRecords.size();) {
        WrongPathRecord &rec = wpRecords[i];
        rec.correctPcs.push_back(pc);
        if (rec.correctPcs.size() >= kReconvergenceWindow) {
            finalizeClassifier(rec);
            wpRecords.erase(wpRecords.begin() + std::ptrdiff_t(i));
        } else {
            ++i;
        }
    }
}

void
Core::finalizeClassifier(WrongPathRecord &rec)
{
    std::unordered_set<Addr> correct(rec.correctPcs.begin(),
                                     rec.correctPcs.end());
    // First squashed instruction whose PC reappears on the correct path
    // approximates the reconvergence point; everything from there on is
    // control-independent wrong-path work.
    std::size_t reconv = rec.squashedPcs.size();
    for (std::size_t i = 0; i < rec.squashedPcs.size(); ++i) {
        if (correct.count(rec.squashedPcs[i])) {
            reconv = i;
            break;
        }
    }
    st.wpControlDependent += reconv;
    st.wpControlIndependent += rec.squashedPcs.size() - reconv;
}

void
Core::finalizeAllClassifiers()
{
    for (auto &rec : wpRecords)
        finalizeClassifier(rec);
    wpRecords.clear();
}

bool
Core::resourcesQuiescent() const
{
    return robCount == 0 && sb.empty() && fetchQueue.empty() &&
           cpPool.freeCount() == p.maxCheckpoints &&
           prf.numFree() == p.effectivePhysRegs() - isa::kNumArchRegs;
}

std::string
Core::resourceReport() const
{
    std::ostringstream os;
    os << "rob=" << robCount << " sb=" << sb.size() << " fq="
       << fetchQueue.size() << " cpFree=" << cpPool.freeCount() << "/"
       << p.maxCheckpoints << " prfFree=" << prf.numFree() << "/"
       << (p.effectivePhysRegs() - isa::kNumArchRegs);
    return os.str();
}

} // namespace dmp::core
