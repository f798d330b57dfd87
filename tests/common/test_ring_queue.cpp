/**
 * @file
 * Property test for RingQueue (common/ring_queue.hh): a randomized
 * push/pop/clear interleave checked against a std::deque model, plus
 * directed tests of the two hairy paths (growth while the ring is
 * wrapped, capacity rounding) and of emplace_back's recycled slots.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>

#include "common/ring_queue.hh"

namespace dmp
{
namespace
{

/**
 * std::deque is the executable specification. A tiny initial capacity
 * forces many grow() events, and the push/pop bias keeps the occupancy
 * oscillating so head wraps the ring repeatedly — the interleave hits
 * every combination of {wrapped, unwrapped} x {growing, steady}.
 */
TEST(RingQueue, RandomInterleaveMatchesDequeModel)
{
    std::mt19937_64 rng(0xd14e5ce5u); // fixed seed: reproducible
    RingQueue<std::uint64_t> q(2);
    std::deque<std::uint64_t> model;
    std::uint64_t next = 0;

    for (int step = 0; step < 100000; ++step) {
        unsigned roll = unsigned(rng() % 100);
        if (roll < 55) {
            q.push_back(next);
            model.push_back(next);
            ++next;
        } else if (roll < 97) {
            if (model.empty()) {
                EXPECT_TRUE(q.empty());
            } else {
                ASSERT_EQ(q.front(), model.front()) << "step " << step;
                q.pop_front();
                model.pop_front();
            }
        } else if (roll < 99) {
            q.clear();
            model.clear();
        } else {
            // Full content audit: at(), iteration, const iteration.
            ASSERT_EQ(q.size(), model.size()) << "step " << step;
            for (std::size_t i = 0; i < model.size(); ++i)
                ASSERT_EQ(q.at(i), model[i]) << "step " << step;
            std::size_t i = 0;
            for (const std::uint64_t &v : q)
                ASSERT_EQ(v, model[i++]) << "step " << step;
            const RingQueue<std::uint64_t> &cq = q;
            i = 0;
            for (const std::uint64_t &v : cq)
                ASSERT_EQ(v, model[i++]) << "step " << step;
        }
        ASSERT_EQ(q.size(), model.size()) << "step " << step;
        ASSERT_EQ(q.empty(), model.empty()) << "step " << step;
        if (!model.empty()) {
            ASSERT_EQ(q.front(), model.front()) << "step " << step;
        }
    }
    EXPECT_GT(q.capacity(), 2u) << "interleave never exercised grow()";
}

/** grow() must relinearize a wrapped ring without reordering. */
TEST(RingQueue, GrowthWhileWrappedPreservesFifoOrder)
{
    RingQueue<int> q(8);
    ASSERT_EQ(q.capacity(), 8u);
    // Advance head so subsequent pushes wrap around the array end.
    for (int i = 0; i < 6; ++i)
        q.push_back(i);
    for (int i = 0; i < 6; ++i) {
        ASSERT_EQ(q.front(), i);
        q.pop_front();
    }
    // Fill to capacity (physically wrapped), then push one more.
    for (int i = 0; i < 8; ++i)
        q.push_back(100 + i);
    q.push_back(200); // triggers grow() on a wrapped ring
    EXPECT_EQ(q.capacity(), 16u);
    ASSERT_EQ(q.size(), 9u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(q.front(), 100 + i);
        q.pop_front();
    }
    EXPECT_EQ(q.front(), 200);
    q.pop_front();
    EXPECT_TRUE(q.empty());
}

/** Initial capacity rounds up to a power of two (mask indexing). */
TEST(RingQueue, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(RingQueue<int>(1).capacity(), 1u);
    EXPECT_EQ(RingQueue<int>(2).capacity(), 2u);
    EXPECT_EQ(RingQueue<int>(5).capacity(), 8u);
    EXPECT_EQ(RingQueue<int>(64).capacity(), 64u);
    EXPECT_EQ(RingQueue<int>(65).capacity(), 128u);
}

/** clear() recycles slots; the queue stays usable and ordered. */
TEST(RingQueue, ClearThenReuse)
{
    RingQueue<int> q(4);
    for (int i = 0; i < 3; ++i)
        q.push_back(i);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    for (int i = 10; i < 16; ++i) // beyond old capacity: grows again
        q.push_back(i);
    for (int i = 10; i < 16; ++i) {
        ASSERT_EQ(q.front(), i);
        q.pop_front();
    }
}

/** A record whose defaults are all non-zero, so stale bytes show. */
struct Rec
{
    int a = -1;
    std::uint64_t b = 7;
    bool c = true;
    std::uint32_t d[5] = {1, 2, 3, 4, 5};

    bool operator==(const Rec &) const = default;
};

/** Overwrite every field of r with junk. */
void
scribble(Rec &r, int v)
{
    r.a = v;
    r.b = std::uint64_t(v) * 3;
    r.c = false;
    for (std::uint32_t &x : r.d)
        x = std::uint32_t(v) + 100;
}

/**
 * emplace_back must hand back an all-default entry even when the slot
 * it recycles still holds an old entry's fields: after a wrap of the
 * ring and after clear().
 */
TEST(RingQueue, EmplaceIntoRecycledSlotIsDefault)
{
    const Rec blank{};
    RingQueue<Rec> q(4);
    // Fill every slot with junk, then pop so head wraps the ring.
    for (int i = 0; i < 4; ++i)
        scribble(q.emplace_back(), i);
    for (int i = 0; i < 3; ++i)
        q.pop_front();
    for (int i = 0; i < 3; ++i) {
        Rec &r = q.emplace_back(); // slots 0..2 again: wrapped
        EXPECT_EQ(r, blank) << "after wrap, entry " << i;
        scribble(r, 50 + i);
    }
    ASSERT_EQ(q.capacity(), 4u);

    q.clear();
    for (int i = 0; i < 4; ++i) {
        Rec &r = q.emplace_back();
        EXPECT_EQ(r, blank) << "after clear, entry " << i;
        scribble(r, 90 + i);
    }
    ASSERT_EQ(q.capacity(), 4u);
}

} // namespace
} // namespace dmp
