/**
 * @file
 * Tests for the calendar-queue event scheduler
 * (common/event_queue.hh): drain order against a priority-queue model,
 * same-cycle re-arm during a drain, ring wrap and spillover-heap
 * growth, clock jumps landing past a heap event, and the caller-side
 * cancellation (stale rejection / clear) contract the core relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "common/event_queue.hh"

namespace dmp
{
namespace
{

struct Ev
{
    std::uint64_t seq = 0;
};

struct EvLess
{
    bool operator()(const Ev &a, const Ev &b) const { return a.seq < b.seq; }
};

// Small ring (16 cycles) so the randomized test constantly wraps the
// ring and spills into the far heap.
using Queue = CalendarQueue<Ev, EvLess, 4>;

/**
 * A (when, seq)-ordered priority queue is the executable
 * specification: pop everything due at the current cycle, in seq order
 * within the cycle (the calendar's drain does not order one bucket, so
 * the test sorts the drained batch the same way the core does).
 */
TEST(CalendarQueue, RandomScheduleMatchesHeapModel)
{
    std::mt19937_64 rng(0xca1e4da2u); // fixed seed: reproducible
    Queue q;
    using ModelEntry = std::pair<Cycle, std::uint64_t>; // (when, seq)
    std::priority_queue<ModelEntry, std::vector<ModelEntry>,
                        std::greater<ModelEntry>>
        model;
    std::vector<Ev> due;
    Cycle now = 0;
    std::uint64_t seq = 1;

    for (int step = 0; step < 20000; ++step) {
        // Mostly near events (in-ring), some beyond the 16-cycle
        // horizon (far heap), a few far beyond it.
        unsigned roll = unsigned(rng() % 100);
        Cycle delta = roll < 70 ? 1 + rng() % 12
                    : roll < 95 ? 16 + rng() % 64
                                : 300 + rng() % 1000;
        q.schedule(now, now + delta, Ev{seq});
        model.emplace(now + delta, seq);
        ++seq;

        // Advance the clock exactly as the core does: either tick by
        // one or jump straight to the next event.
        if (rng() % 4 == 0) {
            // Everything due up to `now` was drained last iteration and
            // the event just scheduled is strictly future, so the model
            // top IS the next event cycle.
            Cycle next = q.nextEventCycle(now + 1);
            ASSERT_EQ(next, model.top().first);
            now = next;
        } else {
            ++now;
        }

        due.clear();
        bool any = q.drainDue(now, due);
        std::sort(due.begin(), due.end(),
                  [](const Ev &a, const Ev &b) { return a.seq < b.seq; });
        std::vector<std::uint64_t> expect;
        while (!model.empty() && model.top().first <= now) {
            expect.push_back(model.top().second);
            model.pop();
        }
        std::sort(expect.begin(), expect.end());
        ASSERT_EQ(any, !expect.empty());
        ASSERT_EQ(due.size(), expect.size());
        for (std::size_t i = 0; i < due.size(); ++i)
            ASSERT_EQ(due[i].seq, expect[i]);
        ASSERT_EQ(q.size(), model.size());
    }
}

TEST(CalendarQueue, NextEventCycleFindsRingAndHeap)
{
    Queue q;
    EXPECT_EQ(q.nextEventCycle(0), kNeverCycle);

    q.schedule(0, 5, Ev{1});
    EXPECT_EQ(q.nextEventCycle(0), 5u);
    EXPECT_EQ(q.nextEventCycle(5), 5u); // due-now events are found

    // A far event beyond the ring horizon is visible through the heap.
    q.schedule(0, 1000, Ev{2});
    EXPECT_EQ(q.nextEventCycle(0), 5u);

    std::vector<Ev> due;
    EXPECT_TRUE(q.drainDue(5, due));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].seq, 1u);
    EXPECT_EQ(q.nextEventCycle(6), 1000u);
}

TEST(CalendarQueue, SameCycleRearmDeliversNextCycle)
{
    Queue q;
    q.schedule(0, 3, Ev{1});
    std::vector<Ev> due;
    ASSERT_TRUE(q.drainDue(3, due));
    ASSERT_EQ(due.size(), 1u);

    // Re-arm during the drain cycle (the core schedules a completion
    // from issue in the same tick): due strictly after `now`.
    q.schedule(3, 4, Ev{2});
    due.clear();
    EXPECT_FALSE(q.drainDue(3, due)); // not delivered on the arm cycle
    EXPECT_TRUE(q.drainDue(4, due));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].seq, 2u);
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, RingWrapReusesBuckets)
{
    Queue q;
    std::vector<Ev> due;
    // March the clock through many multiples of the ring size with one
    // event per cycle: every bucket is reused dozens of times.
    Cycle now = 0;
    for (std::uint64_t i = 1; i <= 40 * Queue::kRingSize; ++i) {
        q.schedule(now, now + 1, Ev{i});
        ++now;
        due.clear();
        ASSERT_TRUE(q.drainDue(now, due));
        ASSERT_EQ(due.size(), 1u);
        ASSERT_EQ(due[0].seq, i);
    }
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ClockJumpPastHeapEventStillDelivers)
{
    Queue q;
    // The event's bucket cycle passes while it is still in the far
    // heap: a drain at a later cycle must merge it anyway.
    q.schedule(0, 100, Ev{1});
    std::vector<Ev> due;
    EXPECT_FALSE(q.drainDue(99, due));
    EXPECT_TRUE(q.drainDue(250, due));
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].seq, 1u);
    EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, DrainAppendsWhenOutIsNonEmpty)
{
    Queue q;
    q.schedule(0, 2, Ev{7});
    std::vector<Ev> due{Ev{1}};
    EXPECT_TRUE(q.drainDue(2, due));
    ASSERT_EQ(due.size(), 2u);
    EXPECT_EQ(due[0].seq, 1u);
    EXPECT_EQ(due[1].seq, 7u);
}

/**
 * The cancellation contract the core uses on flush: events are NOT
 * removed from the queue; the caller re-checks validity at drain time
 * and rejects stale entries. The queue must still deliver them (so the
 * caller gets the chance to reject) and must not double-deliver.
 */
TEST(CalendarQueue, FlushStyleCancellationRejectsStaleAtDrain)
{
    Queue q;
    std::vector<std::uint64_t> liveSeqs{1, 2, 3, 4};
    for (std::uint64_t s : liveSeqs)
        q.schedule(0, 2 + s % 2, Ev{s}); // cycles 3,2,3,2

    // "Flush": seqs > 2 become stale, but stay scheduled.
    auto isLive = [](std::uint64_t s) { return s <= 2; };

    std::vector<Ev> due;
    std::vector<std::uint64_t> delivered;
    for (Cycle c = 1; c <= 4; ++c) {
        due.clear();
        q.drainDue(c, due);
        for (const Ev &e : due)
            if (isLive(e.seq))
                delivered.push_back(e.seq);
    }
    std::sort(delivered.begin(), delivered.end());
    ASSERT_EQ(delivered.size(), 2u);
    EXPECT_EQ(delivered[0], 1u);
    EXPECT_EQ(delivered[1], 2u);
    EXPECT_TRUE(q.empty()); // stale events drained exactly once too
}

} // namespace
} // namespace dmp
