/**
 * @file
 * Dynamic instruction records: the fetch-queue entry (pre-rename) and the
 * reorder-buffer entry (post-rename).
 */

#ifndef DMP_CORE_DYN_INST_HH
#define DMP_CORE_DYN_INST_HH

#include <cstdint>

#include "bpred/predictor.hh"

#include "bpred/target_predictors.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace dmp::core
{

/** Kinds of entries flowing through the pipeline. */
enum class UopKind : std::uint8_t
{
    /** A program instruction. */
    Normal,
    /** enter.pred.path: creates CP1, defines p1 (section 2.4). */
    EnterPred,
    /** enter.alternate.path: creates CP2, restores CP1, defines p2. */
    EnterAlt,
    /** exit.pred: triggers select-uop insertion. */
    ExitPred,
    /** select-uop: dest = p ? srcTrue : srcFalse. */
    Select,
    /**
     * Front-end-internal marker: restore the active rename map from an
     * episode checkpoint (case-3 / early-exit redirection to the CFM).
     * Consumes no ROB entry.
     */
    RestoreMap,
    /**
     * Front-end-internal marker: a dual-path fork resolved; if the
     * alternate stream won, its rename map becomes the active one.
     * Consumes no ROB entry.
     */
    DualCollapse,
};

/** Which dynamically-predicated path an entry belongs to. */
enum class PathId : std::uint8_t
{
    None,      ///< not under dynamic predication
    Predicted, ///< first-fetched path (p1)
    Alternate, ///< second-fetched path (p2)
};

/** Monotonic episode identifier (one per dynamic-predication instance). */
using EpisodeId = std::uint64_t;
constexpr EpisodeId kNoEpisode = ~0ULL;

/**
 * The fields rename transfers verbatim from a fetch-queue entry into
 * the ROB record: identity, branch prediction context and
 * dynamic-predication tags. FetchedInst and DynInst both derive from
 * it, so renameProgramInst builds the ROB entry as DynInst{fi}.
 */
struct FrontCtx
{
    UopKind kind = UopKind::Normal;
    PathId path = PathId::None;
    bool isCondBranch = false;
    bool isControl = false;
    bool lowConfidence = false;
    /** This conditional branch started the episode. */
    bool isDivergeStarter = false;
    Addr pc = 0;
    isa::Inst si;
    Addr predNextPc = 0;
    bpred::PredictionInfo predInfo;
    EpisodeId episode = kNoEpisode;
    std::uint32_t confIndex = 0;
};

/** A fetched, not-yet-renamed entry in the front-end pipeline. */
struct FetchedInst : FrontCtx
{
    bool predTaken = false;
    /** Fetched while the front-end was (transitively) on a wrong path
     *  according to the oracle tracker; measurement only. */
    bool oracleWrongPath = false;
    /** Cycle this entry reaches the rename stage. */
    Cycle renameReadyAt = 0;
    /** Cycle this entry was fetched (trace/pipeview lifecycle). */
    Cycle fetchedAt = 0;

    // Dynamic predication context.
    PredId pred = kNoPred;

    // Fetch-state snapshot carried to rename for checkpointing (control
    // instructions only): state *before* this instruction's own effects.
    std::uint64_t ghrAtFetch = 0;
    bpred::ReturnAddressStack::Checkpoint rasAtFetch;
    EpisodeId cpEpisode = kNoEpisode;
    PathId cpPath = PathId::None;
    Addr cpChosenCfm = kNoAddr;
    std::uint32_t cpPathCount = 0;
};


/**
 * Scheduler/ROB state of one in-flight instruction.
 *
 * The fields the scheduler and checker touch on every-cycle scans —
 * sequence number / slot validity, the dispatched/issued/executed/
 * awaiting-predicate flags, the outstanding-dependency count, the
 * destination physical register, the scheduled completion cycle, and
 * the predicate id — do NOT live here: they sit in parallel arrays
 * owned by Core (robSeq/robState/robDeps/robDest/robCompleteAt/
 * robPred), indexed by ROB slot, so the commit scan, wakeup network,
 * and predicate broadcast walk dense cache lines instead of striding
 * through this record.
 */
struct DynInst : FrontCtx
{
    // Renaming. (The allocated destination lives in Core::robDest.)
    PhysReg src1 = kNoPhysReg;
    PhysReg src2 = kNoPhysReg;
    PhysReg oldDest = kNoPhysReg;
    ArchReg archDest = 0;
    bool hasDest = false;

    // Select-uop operands: srcTrue = committed mapping if predicate TRUE.
    PhysReg selTrue = kNoPhysReg;
    PhysReg selFalse = kNoPhysReg;

    // Predication. (The predicate id lives in Core::robPred.)
    /** Lifecycle stamp (see note above struct end): fetch cycle. */
    std::uint32_t fetchedAt = 0;
    bool predResolved = false;
    bool predValue = true;

    // Branch state.
    /** Lifecycle stamp: rename cycle. */
    std::uint32_t renamedAt = 0;
    bool actualTaken = false;
    /** Lifecycle stamp: issue cycle. */
    std::uint32_t issuedAt = 0;
    Addr actualNextPc = 0;
    bool mispredicted = false;
    /** Lifecycle stamp: writeback cycle. */
    std::uint32_t completedAt = 0;
    std::int32_t checkpointId = -1;

    // Memory state.
    Addr memAddr = kNoAddr;
    Word result = 0; ///< dataflow result (dest value / store data)

    // Note on the fetchedAt/renamedAt/issuedAt/completedAt lifecycle
    // stamps interleaved above: they are truncated to 32 bits and
    // placed into alignment padding holes so the ROB entry stays the
    // same size it was before tracing existed (cache footprint of ROB
    // walks is hot). 0 == stage not reached. Deltas against the
    // current cycle are exact in mod-2^32 arithmetic because an
    // instruction's in-flight lifetime is far below 2^32 cycles.

    bool isLoad() const { return isa::isLoad(si.op); }
    bool isStore() const { return isa::isStore(si.op); }
    bool
    countsAsProgramInst() const
    {
        return kind == UopKind::Normal;
    }
};

// The shared base grows neither record: DynInst::src1 and
// FetchedInst's two fetch-only flags sit in FrontCtx's tail padding.
static_assert(sizeof(DynInst) == 160);
static_assert(sizeof(FetchedInst) == 168);

/** Stable reference into the ROB slot array. */
struct InstRef
{
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
};


} // namespace dmp::core

#endif // DMP_CORE_DYN_INST_HH
