/**
 * @file
 * Top-down cycle accounting and per-diverge-branch analytics.
 *
 * CycleAccounting is a core::CoreObserver: every simulated cycle is
 * charged to exactly one top-down bucket (the bucket counters always
 * sum to the cycle count — an invariant the test suite enforces), and
 * every dynamic-predication episode, flush, and predicated retirement
 * is attributed to its diverge branch. The result answers the two
 * questions the paper's evaluation revolves around:
 *
 *  - where do the cycles go? (retiring useful work, burning
 *    predicated-wrong-path work, refilling after a flush, waiting on
 *    the backend, or starving the front end), and
 *  - which branches benefit from diverge-merge? (flushes avoided vs
 *    incurred and predication overhead, per diverge PC, with a net
 *    cycle estimate that ranks them).
 *
 * Optionally renders the same data onto a Perfetto/Chrome trace-event
 * timeline (see trace::TraceEventWriter): top-down phases as complete
 * slices, episodes as async spans, flushes as instant markers.
 */

#ifndef DMP_ANALYSIS_ACCOUNTING_HH
#define DMP_ANALYSIS_ACCOUNTING_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/stats.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "core/observer.hh"

namespace dmp::analysis
{

using core::EpisodeId;

/** Top-down charge of one simulated cycle (exactly one per cycle). */
enum class CycleBucket : std::uint8_t
{
    RetireUseful = 0, ///< >=1 committed program instruction retired
    RetireFalsePath,  ///< only predicated-FALSE insts / uops retired
    FlushRecovery,    ///< within frontendDepth cycles of a flush
    BackendStall,     ///< ROB non-empty, nothing retired
    FetchStall,       ///< fetch serving a non-flush redirect penalty
    FrontendStarved,  ///< fetch active but nothing reached retirement
    Idle,             ///< machine empty (end-of-program drain)
    NumBuckets,
};

/** Stable kebab-free name of a bucket ("retire_useful", ...). */
const char *bucketName(CycleBucket b);

/** The accounting's counters: one per top-down bucket, then supplements. */
struct AccountingStats
{
    Counter buckets[unsigned(CycleBucket::NumBuckets)];
    Counter renameBlockedCycles;
    Counter episodesTracked;
    Counter flushesSeen;
    Counter predFalseRetired;
    Counter predUopsRetired;
    Counter flushesAvoidedTotal;

    /**
     * Visit every counter (see common/stats.hh). A stats record lists
     * them with an "acct_" prefix.
     */
    template <class F>
    void
    forEachStat(F &&f) const
    {
        for (unsigned i = 0; i < unsigned(CycleBucket::NumBuckets); ++i)
            f(std::string("cycles_") + bucketName(CycleBucket(i)),
              buckets[i], "");
        f("rename_blocked_cycles", renameBlockedCycles,
          "cycles rename stalled on a backend resource");
        f("episodes", episodesTracked, "episodes observed");
        f("flushes", flushesSeen, "pipeline flushes observed");
        f("pred_false_retired", predFalseRetired,
          "predicated-FALSE insts attributed to a diverge branch");
        f("pred_uops_retired", predUopsRetired,
          "marker/select uops attributed to a diverge branch");
        f("flushes_avoided", flushesAvoidedTotal,
          "episodes that absorbed a misprediction without a flush");
    }
};

/** Analytics row for one branch PC (diverge branch or flush source). */
struct DivergeBranchStats
{
    Addr pc = kNoAddr;
    std::uint64_t episodes = 0;      ///< dpred episodes entered
    std::uint64_t dualEpisodes = 0;  ///< dual-path forks entered
    std::uint64_t mergedAtCfm = 0;   ///< Table 1 cases 1-2
    std::uint64_t overshot = 0;      ///< case 3: alternate path wasted
    std::uint64_t earlyExits = 0;    ///< section 2.7.2 conversions
    std::uint64_t converted = 0;     ///< all conversions back to bpred
    std::uint64_t squashed = 0;      ///< episodes killed by older flush
    std::uint64_t fetchedInsts = 0;  ///< program insts fetched in episodes
    std::uint64_t falseInsts = 0;    ///< predicated-FALSE insts retired
    std::uint64_t extraUops = 0;     ///< marker/select uops retired
    std::uint64_t flushesAvoided = 0; ///< cases 2/4 + dual wrong-path
    std::uint64_t flushes = 0;        ///< pipeline flushes at this PC
};

/**
 * Accounting observer: top-down bucket counters plus the per-branch
 * table, exported through AccountingStats and JSON renderers.
 * Attach with Core::addObserver; call finish() once after the run
 * (closes open trace slices and freezes the data).
 */
class CycleAccounting final : public core::CoreObserver
{
  public:
    /**
     * @param frontend_depth machine front-end depth in cycles: bounds
     *        the post-flush refill window charged to FlushRecovery
     * @param retire_width used by the per-branch net-cycle estimate
     */
    CycleAccounting(unsigned frontend_depth, unsigned retire_width);

    CycleAccounting(const CycleAccounting &) = delete;
    CycleAccounting &operator=(const CycleAccounting &) = delete;

    // ---- CoreObserver ----
    void onCycleEnd(const core::AcctCycleSample &s) override;
    void onIdleSpan(const core::AcctCycleSample &first,
                    std::uint64_t span) override;
    void onEpisodeStart(EpisodeId id, Addr diverge_pc, bool is_dual,
                        Cycle now) override;
    void onEpisodeEnd(const core::AcctEpisodeEnd &e, Cycle now) override;
    void onFlush(const core::FlushEvent &e) override;
    void onPredicatedRetire(Addr diverge_pc, bool is_uop) override;

    /**
     * Mirror the accounting onto a trace-event timeline (non-owning;
     * may be null). Must be attached before the first cycle; names the
     * topdown/episodes/flushes tracks immediately.
     */
    void attachTrace(trace::TraceEventWriter *w);

    /** Close open trace slices/spans; call exactly once, after the run. */
    void finish();

    /** Bucket counters + supplements. */
    const AccountingStats &counters() const { return st; }

    std::uint64_t bucketCycles(CycleBucket b) const;

    /** Sum of all buckets == cycles observed (the invariant). */
    std::uint64_t totalCycles() const;

    /**
     * Estimated net cycles this branch saved (positive) or cost
     * (negative) relative to the baseline: avoided flushes buy one
     * front-end refill each; predicated-FALSE work and uops pay
     * retirement bandwidth.
     */
    double netCycles(const DivergeBranchStats &row) const;

    const std::unordered_map<Addr, DivergeBranchStats> &
    branches() const
    {
        return table;
    }

    /**
     * Everything as one JSON object: the buckets, then the per-branch
     * rows, best net benefit first.
     */
    std::string json() const;


  private:
    DivergeBranchStats &rowFor(Addr pc);
    void closeTopdownSlice(Cycle end);
    void chargeRun(CycleBucket b, Cycle start, std::uint64_t len);

    unsigned frontendDepth;
    unsigned retireWidth;

    AccountingStats st;

    std::unordered_map<Addr, DivergeBranchStats> table;
    /** Open episodes (id -> diverge pc); end events deduplicate here. */
    std::unordered_map<EpisodeId, Addr> openEpisodes;

    Cycle flushShadowEnd = 0; ///< cycles before this charge FlushRecovery
    Cycle lastCycle = 0;
    bool sawCycle = false;
    bool finished = false;

    // Trace rendering (run-length encoded topdown slices).
    trace::TraceEventWriter *traceW = nullptr;
    int curBucket = -1;
    Cycle runStart = 0;
};

} // namespace dmp::analysis

#endif // DMP_ANALYSIS_ACCOUNTING_HH
