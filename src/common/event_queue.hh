/**
 * @file
 * Calendar-queue event scheduler: a ring of per-cycle buckets with a
 * spillover heap for events beyond the ring horizon.
 *
 * Replaces a (when, tie)-ordered priority queue on hot schedulers (the
 * core's completion events): insert and per-cycle drain are O(1)
 * amortized instead of O(log n), paid once per scheduled event. Nearly
 * every event lands within the ring horizon (for the core: the longest
 * ALU/memory latency); the rare farther event waits in the heap and is
 * merged into its bucket when due.
 *
 * Cancellation is the caller's job: events are never removed early, the
 * caller rejects stale ones at drain time (the core compares the ROB
 * sequence number, exactly as the heap version did).
 */

#ifndef DMP_COMMON_EVENT_QUEUE_HH
#define DMP_COMMON_EVENT_QUEUE_HH

#include <cstddef>
#include <queue>
#include <vector>

#include "common/types.hh"

namespace dmp
{

/**
 * Events of type T scheduled onto future cycles.
 *
 * @tparam T        payload; trivially copyable is ideal (bucket swaps)
 * @tparam TieLess  strict weak order over T used to break when-ties in
 *                  the spillover heap (older first), so heap pop order
 *                  is deterministic
 * @tparam RingBits log2 of the ring horizon in cycles
 *
 * The caller owns the clock: every method that depends on time takes
 * `now` explicitly, and the queue assumes the clock never moves
 * backwards past a scheduled event (events are due when `when <= now`).
 */
template <typename T, typename TieLess, unsigned RingBits = 9>
class CalendarQueue
{
  public:
    static constexpr Cycle kRingSize = Cycle(1) << RingBits;
    static constexpr Cycle kRingMask = kRingSize - 1;

    CalendarQueue() : ring(std::size_t(kRingSize)) {}

    /** Schedule payload `v` for cycle `when` (`when` must be > now). */
    void
    schedule(Cycle now, Cycle when, const T &v)
    {
        if (when - now < kRingSize) {
            ring[when & kRingMask].push_back(v);
            ++ringCount;
        } else {
            far.push(FarEvent{when, v});
        }
    }

    /**
     * Earliest cycle >= `now` holding an event, or kNeverCycle. The
     * ring holds only events in (now, now + ring size), so the forward
     * scan is bounded and its distance equals the skip it enables.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        Cycle next = kNeverCycle;
        if (ringCount > 0) {
            for (Cycle c = now; c < now + kRingSize; ++c) {
                if (!ring[c & kRingMask].empty()) {
                    next = c;
                    break;
                }
            }
        }
        if (!far.empty() && far.top().when < next)
            next = far.top().when;
        return next;
    }

    /**
     * Move every event due at or before `now` into `out` (appended in
     * bucket order, then heap order — callers needing a total order
     * sort `out` themselves). When `out` is empty the bucket is swapped
     * in whole, keeping both vectors' capacity warm. Heap events reach
     * their bucket cycle while still in the heap only when the clock
     * jumped straight to them; they are merged so an event completes on
     * the same cycle either way.
     *
     * @return true when anything was delivered
     */
    bool
    drainDue(Cycle now, std::vector<T> &out)
    {
        std::vector<T> &bucket = ring[now & kRingMask];
        if (!bucket.empty()) {
            ringCount -= bucket.size();
            if (out.empty())
                out.swap(bucket);
            else {
                out.insert(out.end(), bucket.begin(), bucket.end());
                bucket.clear();
            }
        }
        while (!far.empty() && far.top().when <= now) {
            out.push_back(far.top().payload);
            far.pop();
        }
        return !out.empty();
    }

    /** Live events across ring and heap (stale ones included). */
    std::size_t size() const { return ringCount + far.size(); }

    bool empty() const { return size() == 0; }

  private:
    struct FarEvent
    {
        Cycle when;
        T payload;
    };
    struct FarOrder
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            // priority_queue pops the greatest element: invert so the
            // earliest cycle (then the TieLess-least payload) pops
            // first.
            if (a.when != b.when)
                return a.when > b.when;
            return TieLess{}(b.payload, a.payload);
        }
    };

    std::vector<std::vector<T>> ring;
    std::size_t ringCount = 0; ///< live payloads across all buckets
    std::priority_queue<FarEvent, std::vector<FarEvent>, FarOrder> far;
};

} // namespace dmp

#endif // DMP_COMMON_EVENT_QUEUE_HH
