/**
 * @file
 * Dynamic-predication episode state and the predicate register file.
 *
 * An Episode is one dynamic instance of predication: created when a
 * low-confidence diverge branch is fetched, finished by one of the six
 * exit cases of Table 1 (or by an early-exit / multiple-diverge-branch
 * conversion back to normal branch prediction).
 */

#ifndef DMP_CORE_EPISODE_HH
#define DMP_CORE_EPISODE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "bpred/target_predictors.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "core/rename_map.hh"

namespace dmp::core
{

/**
 * Hardware bound on the per-episode CFM CAM. CoreParams::cfmCamEntries
 * (the modeled capacity) must not exceed it; keeping the storage inline
 * in Episode avoids a heap allocation per episode.
 */
constexpr unsigned kMaxCfmCamEntries = 16;

/** Table 1 exit-case classification (0 == not yet classified). */
enum class ExitCase : std::uint8_t
{
    None = 0,
    Case1, ///< both paths reached CFM, prediction correct (overhead)
    Case2, ///< both paths reached CFM, mispredicted (flush avoided)
    Case3, ///< resolved on alternate path, correct (worst case)
    Case4, ///< resolved on alternate path, mispredicted (flush avoided)
    Case5, ///< resolved on predicted path, correct (same as baseline)
    Case6, ///< resolved on predicted path, mispredicted (flush)
};

/** Why an episode was converted back to normal branch prediction. */
enum class ConversionReason : std::uint8_t
{
    NotConverted = 0,
    EarlyExit,       ///< section 2.7.2 alternate-path give-up
    MultiDiverge,    ///< section 2.7.3: a newer diverge branch took over
    PathOverflow,    ///< hardware cap on predicated path length
};

/** One dynamic-predication (or dual-path) episode. */
struct Episode
{
    EpisodeId id = kNoEpisode;
    bool isDualPath = false;

    // The diverge branch.
    Addr divergePc = kNoAddr;
    bool predTaken = false;
    Addr predStartPc = kNoAddr; ///< first predicted-path address
    Addr altStartPc = kNoAddr;  ///< first alternate-path address
    std::uint64_t divergeSeq = ~0ULL; ///< set when the branch renames

    // CFM CAM contents (basic machine: one entry). Fixed-capacity
    // inline storage: episode creation is a hot-path event and must not
    // allocate.
    std::array<Addr, kMaxCfmCamEntries> cfms{};
    std::uint32_t cfmCount = 0;
    Addr chosenCfm = kNoAddr;
    std::uint32_t earlyExitThreshold = 0;

    void
    addCfm(Addr cfm) noexcept
    {
        cfms[cfmCount++] = cfm;
    }

    /** True when pc is one of this episode's CFM points. */
    bool
    cfmMatches(Addr pc) const noexcept
    {
        for (std::uint32_t i = 0; i < cfmCount; ++i)
            if (cfms[i] == pc)
                return true;
        return false;
    }

    // Predicates: p1 covers the predicted path, p2 the alternate path.
    PredId p1 = kNoPred;
    PredId p2 = kNoPred;

    // Front-end state saved at the diverge branch for the path switch.
    std::uint64_t savedGhr = 0;
    bpred::ReturnAddressStack::Checkpoint savedRas;

    // Rename-side state.
    /** RAT at the diverge branch (CP1 content), captured at EnterPred. */
    RenameMap atBranchMap;
    bool atBranchMapValid = false;
    /** RAT at the end of the predicted path (CP2), captured at EnterAlt. */
    RenameMap endPredMap;
    bool endPredMapValid = false;

    // Lifecycle.
    bool resolved = false;
    bool resolvedCorrect = false;
    bool dead = false; ///< squashed before resolution
    ConversionReason converted = ConversionReason::NotConverted;
    ExitCase exitCase = ExitCase::None;
    /** Queued front-end markers still referencing this episode. */
    std::int32_t pendingMarkers = 0;
    /** Fetch finished with this episode. */
    bool fetchDone = false;
    /** Program instructions fetched under this episode (both paths);
     *  feeds the episode_length distribution at exit classification. */
    std::uint32_t fetchedInsts = 0;

    bool
    isConverted() const
    {
        return converted != ConversionReason::NotConverted;
    }
};

/** Resolution state of one predicate id. */
struct PredState
{
    bool resolved = false;
    bool value = true;
    /** True when the value was assumed (early exit footnote 12), not
     *  produced by the diverge branch. */
    bool assumed = false;
};

/**
 * Predicate register file. Ids grow monotonically; the hardware
 * namespace limit is modeled as a cap on unresolved ids in flight.
 *
 * Storage is a power-of-two ring of id-validated slots: every lookup is
 * one mask + compare instead of a hash probe. The ring must be sized so
 * that any id still referenced by in-flight state (ROB entries, store
 * buffer, live episodes) is within `window` allocations of the newest
 * id; the core sizes it from its episode window, and get()/resolve()
 * assert the slot still holds the requested id on every access.
 */
class PredicateFile
{
  public:
    /**
     * @param hw_limit cap on unresolved predicates in flight
     * @param window ring capacity (rounded up to a power of two); must
     *        exceed the number of predicate ids in-flight state can
     *        reference at once
     */
    explicit PredicateFile(unsigned hw_limit, std::size_t window = 4096)
        : limit(hw_limit)
    {
        std::size_t cap = 1;
        while (cap < window || cap < 2 * std::size_t(hw_limit))
            cap <<= 1;
        mask = cap - 1;
        slots.resize(cap);
    }

    /** True when a new (unresolved) predicate can be allocated. */
    bool canAllocate() const noexcept { return unresolved < limit; }

    PredId
    allocate()
    {
        dmp_assert(canAllocate(), "predicate namespace exhausted");
        PredId id = nextId++;
        Slot &s = slots[id & mask];
        // An unresolved slot this old can only be an orphan: an episode
        // that resumed after a flush re-ran its path switch and
        // overwrote its p2 with a fresh allocation, leaving the first
        // p2 unresolvable (its EnterAlt marker was dropped with the
        // fetch queue). Such ids are referenced by nothing, so reusing
        // the slot is safe. Deliberately do NOT decrement `unresolved`
        // for it: the orphan keeps the in-flight count elevated, and
        // that (observable through canAllocate) matches the behavior of
        // the unbounded map this ring replaced. get()/resolve() still
        // id-check every access, so overwriting a *referenced* id
        // remains a loud failure.
        s.id = id;
        s.state = PredState{};
        ++unresolved;
        return id;
    }

    const PredState &
    get(PredId id) const
    {
        const Slot &s = slots[id & mask];
        dmp_assert(s.id == id, "unknown predicate id ", id);
        return s.state;
    }

    /** True when id was allocated and is still within the ring window. */
    bool
    known(PredId id) const noexcept
    {
        return id != kNoPred && slots[id & mask].id == id;
    }

    /** Resolve (or re-resolve an assumed value with the real one). */
    void
    resolve(PredId id, bool value, bool assumed)
    {
        Slot &s = slots[id & mask];
        dmp_assert(s.id == id, "resolving unknown predicate ", id);
        if (!s.state.resolved) {
            --unresolved;
        }
        s.state.resolved = true;
        s.state.value = value;
        s.state.assumed = assumed;
    }

  private:
    struct Slot
    {
        PredId id = kNoPred;
        PredState state;
    };

    unsigned limit;
    unsigned unresolved = 0;
    PredId nextId = 0;
    std::size_t mask = 0;
    std::vector<Slot> slots;
};

} // namespace dmp::core

#endif // DMP_CORE_EPISODE_HH
