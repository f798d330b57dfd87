/**
 * @file
 * The core's one event stream. Cycle accounting (src/analysis), the
 * self-checker (src/check), the pipeline viewer (core/pipeview.hh) and
 * the text trace (core/text_trace.hh) all subscribe through
 * CoreObserver. Every method has an empty default body, so a
 * subscriber overrides only the events it reads.
 *
 * The core calls each event behind a single null test and no build
 * switch; with several subscribers it dispatches through an
 * ObserverFanout it owns (Core::addObserver). A core starts only by
 * construction and is never reset, so a subscriber attached to a fresh
 * core sees one whole run and needs no reset event. This header is
 * self-contained (DynInst is only forward-declared) so dmp_analysis,
 * which does not link dmp_core, can subscribe too.
 */

#ifndef DMP_CORE_OBSERVER_HH
#define DMP_CORE_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace dmp::core
{

struct DynInst;

// Same alias as core/dyn_inst.hh (redeclared so this header stays
// self-contained for dmp_analysis, which includes nothing else of core).
using EpisodeId = std::uint64_t;

/** What happened during one completed core cycle. */
struct AcctCycleSample
{
    Cycle cycle = 0;            ///< index of the cycle that just ran
    unsigned usefulRetired = 0; ///< committed program instructions
    unsigned falseRetired = 0;  ///< predicated-FALSE program insts
    unsigned uopRetired = 0;    ///< marker/select uops retired
    bool robEmpty = false;
    bool fetchStalled = false;   ///< fetch serving a redirect penalty
    bool frontendActive = false; ///< fetch has a live pc or queued work
    bool renameBlocked = false;  ///< rename stalled on a backend resource
};

/** Final state of one dynamic-predication (or dual-path) episode. */
struct AcctEpisodeEnd
{
    EpisodeId id = ~0ULL; // kNoEpisode
    Addr divergePc = kNoAddr;
    std::uint8_t exitCase = 0;  ///< core::ExitCase value (0 = none)
    std::uint8_t converted = 0; ///< core::ConversionReason value
    std::uint32_t fetchedInsts = 0;
    bool dead = false; ///< squashed by an older misprediction
    bool isDualPath = false;
    bool resolvedCorrect = false;
};

/** One pipeline flush, reported once recovery and redirect are done. */
struct FlushEvent
{
    Cycle cycle = 0;
    Addr branchPc = kNoAddr;     ///< the mispredicted branch
    std::uint64_t squashed = 0;  ///< program insts thrown away
    std::uint64_t surviveSeq = 0; ///< everything younger was squashed
    Addr redirectPc = kNoAddr;   ///< where fetch resumes
};

/**
 * Subscriber to the core's cycle-level activity, retirement, recovery
 * and episode lifecycle. Implementations may read core state (the
 * checker is a friend of Core) and may signal a broken invariant by
 * throwing; the core does no work after a hook call that the
 * exception could leave half-done within the same event.
 */
class CoreObserver
{
  public:
    virtual ~CoreObserver() = default;

    /**
     * End of one Core::tick(). `s` was sampled before the cycle counter
     * advanced (s.cycle is the cycle that ran); the call itself comes
     * after, so Core::cycle() already reads s.cycle + 1.
     */
    virtual void onCycleEnd(const AcctCycleSample & /*s*/) {}

    /**
     * `span` consecutive cycles the core skipped because no stage had
     * work, all sharing the same classification flags; `first` carries
     * the flags and the index of the span's first cycle (retire counts
     * are zero by construction). Skipped cycles get no onCycleEnd; a
     * subscriber that must see every cycle as a real tick returns false
     * from allowsCycleSkip instead.
     */
    virtual void onIdleSpan(const AcctCycleSample & /*first*/,
                            std::uint64_t /*span*/) {}

    /**
     * One entry retired: called right after commitInst applied its
     * architectural effects, while `di` is still valid in the ROB.
     * `seq` and `pred` are the entry's SoA-resident sequence number and
     * predicate id (not stored inside DynInst).
     */
    virtual void onRetire(const DynInst & /*di*/, std::uint64_t /*seq*/,
                          PredId /*pred*/) {}

    /** One entry squashed (by a flush or past a committed HALT). */
    virtual void onSquash(const DynInst & /*di*/, std::uint64_t /*seq*/) {}

    /**
     * A pipeline flush completed: the episode-end events of the
     * episodes it killed have been reported, the front end restored
     * and fetch redirected.
     */
    virtual void onFlush(const FlushEvent & /*e*/) {}

    /** A dpred or dual-path episode entered at fetch. */
    virtual void onEpisodeStart(EpisodeId /*id*/, Addr /*diverge_pc*/,
                                bool /*is_dual*/, Cycle /*now*/) {}

    /**
     * An episode finished (classified, collapsed, or squashed). May be
     * reported more than once for the same id (classified, then
     * squashed later); subscribers deduplicate by id.
     */
    virtual void onEpisodeEnd(const AcctEpisodeEnd & /*e*/, Cycle /*now*/) {}

    /**
     * A predication-overhead entry retired: a predicated-FALSE program
     * instruction (is_uop = false) or a marker/select uop (true),
     * attributed to the episode's diverge branch. Follows the entry's
     * onRetire.
     */
    virtual void onPredicatedRetire(Addr /*diverge_pc*/, bool /*is_uop*/) {}

    /**
     * False when this subscriber samples every cycle as a real tick,
     * which turns Core::run's cycle skipping off.
     */
    virtual bool allowsCycleSkip() const { return true; }
};

/** Forwards every event to several observers, in attach order. */
class ObserverFanout final : public CoreObserver
{
  public:
    void add(CoreObserver *o) { subs.push_back(o); }

    void
    onCycleEnd(const AcctCycleSample &s) override
    {
        for (CoreObserver *o : subs)
            o->onCycleEnd(s);
    }
    void
    onIdleSpan(const AcctCycleSample &first, std::uint64_t span) override
    {
        for (CoreObserver *o : subs)
            o->onIdleSpan(first, span);
    }
    void
    onRetire(const DynInst &di, std::uint64_t seq, PredId pred) override
    {
        for (CoreObserver *o : subs)
            o->onRetire(di, seq, pred);
    }
    void
    onSquash(const DynInst &di, std::uint64_t seq) override
    {
        for (CoreObserver *o : subs)
            o->onSquash(di, seq);
    }
    void
    onFlush(const FlushEvent &e) override
    {
        for (CoreObserver *o : subs)
            o->onFlush(e);
    }
    void
    onEpisodeStart(EpisodeId id, Addr diverge_pc, bool is_dual,
                   Cycle now) override
    {
        for (CoreObserver *o : subs)
            o->onEpisodeStart(id, diverge_pc, is_dual, now);
    }
    void
    onEpisodeEnd(const AcctEpisodeEnd &e, Cycle now) override
    {
        for (CoreObserver *o : subs)
            o->onEpisodeEnd(e, now);
    }
    void
    onPredicatedRetire(Addr diverge_pc, bool is_uop) override
    {
        for (CoreObserver *o : subs)
            o->onPredicatedRetire(diverge_pc, is_uop);
    }
    bool
    allowsCycleSkip() const override
    {
        for (const CoreObserver *o : subs)
            if (!o->allowsCycleSkip())
                return false;
        return true;
    }

  private:
    std::vector<CoreObserver *> subs;
};

} // namespace dmp::core

#endif // DMP_CORE_OBSERVER_HH
