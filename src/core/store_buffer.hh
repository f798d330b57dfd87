/**
 * @file
 * Store buffer with predicate-aware forwarding (paper section 2.5).
 *
 * Entries are allocated at rename (program order), filled at execute,
 * and drained at retire (commit to memory) or squash. Forwarding obeys
 * the paper's three legal cases:
 *  (1) a non-predicated store forwards to any later load;
 *  (2) a predicated store with a *ready* predicate forwards (TRUE) or is
 *      skipped (FALSE);
 *  (3) a predicated store with an unready predicate forwards only to a
 *      later load with the same predicate id; otherwise the load waits.
 */

#ifndef DMP_CORE_STORE_BUFFER_HH
#define DMP_CORE_STORE_BUFFER_HH

#include <cstdint>
#include <deque>

#include "common/logging.hh"
#include "common/types.hh"

namespace dmp::core
{

/** One in-flight store. */
struct SbEntry
{
    std::uint64_t seq = 0;
    Addr addr = kNoAddr;
    Word data = 0;
    bool addrKnown = false;
    PredId pred = kNoPred;
    bool predResolved = false;
    bool predValue = true;
    /** Dropped (predicate FALSE) but not yet retired. */
    bool dead = false;
};

/** Outcome of a forwarding probe. */
enum class ForwardResult : std::uint8_t
{
    NoMatch,   ///< no older store to this address; go to the cache
    Forward,   ///< value available from a forwardable store
    MustWait,  ///< blocked: unknown address or rule (3) violation
};

/** FIFO store buffer ordered by sequence number. */
class StoreBuffer
{
  public:
    explicit StoreBuffer(unsigned capacity_) : cap(capacity_) {}

    bool full() const { return entries.size() >= cap; }
    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    /** Entries oldest-first (checker inspection). */
    const std::deque<SbEntry> &view() const { return entries; }

    /** Mutable entry access for checker fault injection and tests. */
    std::deque<SbEntry> &view() { return entries; }

    /** Allocate at rename. */
    void
    allocate(std::uint64_t seq, PredId pred, bool pred_resolved,
             bool pred_value)
    {
        dmp_assert(!full(), "store buffer overflow");
        dmp_assert(entries.empty() || entries.back().seq < seq,
                   "store buffer out of order");
        SbEntry e;
        e.seq = seq;
        e.pred = pred;
        e.predResolved = pred == kNoPred ? true : pred_resolved;
        e.predValue = pred_value;
        entries.push_back(e);
    }

    /** Fill address/data at execute. */
    void
    fill(std::uint64_t seq, Addr addr, Word data)
    {
        SbEntry *e = find(seq);
        dmp_assert(e, "fill of unknown store buffer entry");
        e->addr = addr;
        e->data = data;
        e->addrKnown = true;
    }

    /** Predicate broadcast: resolve all entries tagged with `pred`. */
    void
    resolvePredicate(PredId pred, bool value)
    {
        for (auto &e : entries) {
            if (e.pred == pred && !e.predResolved) {
                e.predResolved = true;
                e.predValue = value;
                if (!value)
                    e.dead = true;
            }
        }
    }

    /**
     * Probe for a load at `load_seq` to address `addr` with predicate
     * `load_pred`. On Forward, `data_out` holds the forwarded value.
     */
    ForwardResult
    probe(std::uint64_t load_seq, Addr addr, PredId load_pred,
          Word &data_out) const
    {
        // Youngest-first walk of older stores.
        for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
            const SbEntry &e = *it;
            if (e.seq >= load_seq)
                continue;
            if (e.dead)
                continue;
            if (!e.addrKnown)
                return ForwardResult::MustWait; // conservative ordering
            if (e.addr != addr)
                continue;
            if (e.pred == kNoPred || e.predResolved) {
                if (e.predResolved && !e.predValue)
                    continue; // FALSE store: skip, keep searching older
                data_out = e.data;
                return ForwardResult::Forward; // rules (1) and (2)
            }
            // Rule (3): unready predicate.
            if (e.pred == load_pred) {
                data_out = e.data;
                return ForwardResult::Forward;
            }
            return ForwardResult::MustWait;
        }
        return ForwardResult::NoMatch;
    }

    /**
     * Retire the oldest entry (must match `seq`).
     * @return the entry; caller commits it to memory unless dead/FALSE.
     */
    SbEntry
    retireHead(std::uint64_t seq)
    {
        dmp_assert(!entries.empty() && entries.front().seq == seq,
                   "store buffer head mismatch at retire");
        SbEntry e = entries.front();
        entries.pop_front();
        return e;
    }

    /** Squash every entry younger than `survive_seq`. */
    void
    squashYoungerThan(std::uint64_t survive_seq)
    {
        while (!entries.empty() && entries.back().seq > survive_seq)
            entries.pop_back();
    }

  private:
    SbEntry *
    find(std::uint64_t seq)
    {
        // Binary search: entries are seq-sorted.
        std::size_t lo = 0, hi = entries.size();
        while (lo < hi) {
            std::size_t mid = (lo + hi) / 2;
            if (entries[mid].seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < entries.size() && entries[lo].seq == seq)
            return &entries[lo];
        return nullptr;
    }

    std::deque<SbEntry> entries;
    unsigned cap;
};

} // namespace dmp::core

#endif // DMP_CORE_STORE_BUFFER_HH
