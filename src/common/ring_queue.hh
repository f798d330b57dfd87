/**
 * @file
 * Growable power-of-two ring FIFO.
 *
 * A drop-in replacement for the std::deque push_back/front/pop_front
 * pattern on hot queues (the core's fetch queue pushes and pops every
 * fetched instruction). Unlike std::deque it never allocates in steady
 * state: storage is one contiguous power-of-two array indexed by
 * mask, doubling only when the queue actually outgrows it.
 */

#ifndef DMP_COMMON_RING_QUEUE_HH
#define DMP_COMMON_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace dmp
{

/** An unbounded FIFO over a growable power-of-two ring. */
template <typename T>
class RingQueue
{
  public:
    explicit RingQueue(std::size_t initial_capacity = 64)
    {
        std::size_t cap = 1;
        while (cap < initial_capacity)
            cap <<= 1;
        slots.resize(cap);
        mask = cap - 1;
    }

    bool empty() const noexcept { return count == 0; }
    std::size_t size() const noexcept { return count; }
    std::size_t capacity() const noexcept { return slots.size(); }

    void
    push_back(T v)
    {
        if (count == slots.size()) [[unlikely]]
            grow();
        slots[(head + count) & mask] = std::move(v);
        ++count;
    }

    /**
     * Append a default-valued entry and return a reference to it, so
     * the caller can fill it directly in the ring. The recycled slot is
     * stamped from one shared blank: `slot = T{}` would build a stack
     * temporary and copy it on every call. The reference is valid until
     * the next push/emplace (growth reallocates).
     */
    T &
    emplace_back()
    {
        static const T kBlank{};
        if (count == slots.size()) [[unlikely]]
            grow();
        T &slot = slots[(head + count) & mask];
        slot = kBlank;
        ++count;
        return slot;
    }

    T &
    front() noexcept
    {
        dmp_assert(count > 0, "front on empty RingQueue");
        return slots[head];
    }

    const T &
    front() const noexcept
    {
        dmp_assert(count > 0, "front on empty RingQueue");
        return slots[head];
    }

    /** Drop the head entry. The slot is recycled, not destroyed. */
    void
    pop_front() noexcept
    {
        dmp_assert(count > 0, "pop_front on empty RingQueue");
        head = (head + 1) & mask;
        --count;
    }

    void
    clear() noexcept
    {
        head = 0;
        count = 0;
    }

    /** i-th oldest entry (0 == head). */
    T &at(std::size_t i) noexcept { return slots[(head + i) & mask]; }
    const T &
    at(std::size_t i) const noexcept
    {
        return slots[(head + i) & mask];
    }

    template <typename Q, typename V>
    class Iter
    {
      public:
        Iter(Q *q_, std::size_t i_) : q(q_), i(i_) {}
        V &operator*() const { return q->at(i); }
        V *operator->() const { return &q->at(i); }
        Iter &
        operator++()
        {
            ++i;
            return *this;
        }
        bool operator==(const Iter &o) const { return i == o.i; }
        bool operator!=(const Iter &o) const { return i != o.i; }

      private:
        Q *q;
        std::size_t i;
    };

    using iterator = Iter<RingQueue, T>;
    using const_iterator = Iter<const RingQueue, const T>;

    iterator begin() noexcept { return {this, 0}; }
    iterator end() noexcept { return {this, count}; }
    const_iterator begin() const noexcept { return {this, 0}; }
    const_iterator end() const noexcept { return {this, count}; }

  private:
    /** Out of line: keeps the cold doubling loop out of hot callers. */
    [[gnu::noinline]] void
    grow()
    {
        std::vector<T> bigger(slots.size() * 2);
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(slots[(head + i) & mask]);
        slots = std::move(bigger);
        mask = slots.size() - 1;
        head = 0;
    }

    std::vector<T> slots;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace dmp

#endif // DMP_COMMON_RING_QUEUE_HH
