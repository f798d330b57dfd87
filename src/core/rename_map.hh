/**
 * @file
 * Register renaming infrastructure: the register alias table (RAT) with
 * the paper's per-entry M (modified-in-dpred-mode) bits, the physical
 * register file, and the branch checkpoint pool.
 */

#ifndef DMP_CORE_RENAME_MAP_HH
#define DMP_CORE_RENAME_MAP_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <utility>
#include <vector>

#include "bpred/target_predictors.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "isa/isa.hh"

namespace dmp::core
{

/**
 * Register alias table: architectural to physical mapping, plus one
 * M bit per entry marking registers renamed during dynamic predication
 * (paper section 2.4). Value semantics so checkpointing is a copy.
 */
struct RenameMap
{
    std::array<PhysReg, isa::kNumArchRegs> map{};
    std::bitset<isa::kNumArchRegs> mBits;

    PhysReg lookup(ArchReg r) const { return map[r]; }

    void
    write(ArchReg r, PhysReg p)
    {
        map[r] = p;
        mBits.set(r);
    }

    void clearMBits() { mBits.reset(); }
};

/**
 * Physical register file: values, per-register ready bits, and the free
 * list. Readiness transitions happen only through the owning
 * instruction's validated events, so stale wakeups after a squash are
 * harmless.
 */
class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned count)
        : values(count, 0), readyBits(count, true),
          freeFlags(count, false)
    {
        dmp_assert(count > isa::kNumArchRegs + 8,
                   "physical register file too small");
        // Registers [0, kNumArchRegs) are the initial architectural
        // mappings; the rest start on the free list.
        freeList.reserve(count);
        for (unsigned i = count; i > isa::kNumArchRegs; --i) {
            freeList.push_back(PhysReg(i - 1));
            freeFlags[i - 1] = true;
        }
    }

    bool hasFree() const { return !freeList.empty(); }
    std::size_t numFree() const { return freeList.size(); }
    std::size_t size() const { return values.size(); }

    /** True when p sits on the free list (checker/test inspection). */
    bool isFree(PhysReg p) const { return freeFlags[p] != 0; }

    /** The free list itself (checker/test inspection; do not mutate). */
    const std::vector<PhysReg> &freeView() const { return freeList; }

    PhysReg
    alloc()
    {
        dmp_assert(!freeList.empty(), "physical register underflow");
        PhysReg p = freeList.back();
        freeList.pop_back();
        freeFlags[p] = false;
        readyBits[p] = false;
        waiters[p].clear();
        return p;
    }

    void
    free(PhysReg p)
    {
        dmp_assert(p != kNoPhysReg, "freeing kNoPhysReg");
        dmp_assert(!freeFlags[p], "double free of physical register ", p);
        freeFlags[p] = true;
        freeList.push_back(p);
    }

    bool ready(PhysReg p) const { return readyBits[p]; }
    Word value(PhysReg p) const { return values[p]; }

    void
    setReady(PhysReg p, Word v)
    {
        values[p] = v;
        readyBits[p] = true;
    }

    /** Register a consumer to be woken when p becomes ready. */
    void
    addWaiter(PhysReg p, InstRef ref)
    {
        waiters[p].push_back(ref);
    }

    /** Drain and return the waiters of p (on writeback). */
    std::vector<InstRef>
    takeWaiters(PhysReg p)
    {
        return std::exchange(waiters[p], {});
    }

    /**
     * Waiter list of p for in-place draining: the writeback stage
     * iterates and then clear()s it, which keeps the vector's capacity
     * (takeWaiters resets it to zero, so every later addWaiter
     * reallocates — measurably hot at one writeback per instruction).
     * Callers must not addWaiter(p) while iterating.
     */
    std::vector<InstRef> &waitersOf(PhysReg p) noexcept
    {
        return waiters[p];
    }

    /** Debug: physical registers holding a waiter for `ref`. */
    std::vector<PhysReg>
    regsWaitedOnBy(InstRef ref) const
    {
        std::vector<PhysReg> out;
        for (PhysReg r = 0; r < PhysReg(waiters.size()); ++r) {
            for (const InstRef &w : waiters[r]) {
                if (w.slot == ref.slot && w.seq == ref.seq) {
                    out.push_back(r);
                    break;
                }
            }
        }
        return out;
    }

  private:
    std::vector<Word> values;
    std::vector<char> readyBits;
    std::vector<char> freeFlags;
    std::vector<PhysReg> freeList;
    std::vector<std::vector<InstRef>> waiters{values.size()};
};

/** Per-branch recovery checkpoint (paper footnote 11 contents). */
struct Checkpoint
{
    bool inUse = false;
    std::uint64_t ownerSeq = 0;

    RenameMap map;
    std::uint64_t ghr = 0;
    bpred::ReturnAddressStack::Checkpoint ras;

    /** Dynamic-predication fetch state at the branch (footnote 11). */
    EpisodeId episode = kNoEpisode;
    PathId dpredPath = PathId::None;
    Addr chosenCfm = kNoAddr;
    std::uint32_t pathInstCount = 0;
};

/** Fixed pool of recovery checkpoints with a free list. */
class CheckpointPool
{
  public:
    explicit CheckpointPool(unsigned count) : pool(count)
    {
        freeIds.reserve(count);
        for (unsigned i = count; i > 0; --i)
            freeIds.push_back(std::int32_t(i - 1));
    }

    bool hasFree() const { return !freeIds.empty(); }
    unsigned freeCount() const { return unsigned(freeIds.size()); }
    std::size_t size() const { return pool.size(); }

    /** All checkpoints, in-use or not (checker/test inspection). */
    const std::vector<Checkpoint> &view() const { return pool; }

    /** The free-id stack (checker/test inspection; do not mutate). */
    const std::vector<std::int32_t> &freeView() const { return freeIds; }

    /** Allocate a checkpoint; returns -1 when exhausted. */
    std::int32_t
    alloc(std::uint64_t owner_seq)
    {
        if (freeIds.empty())
            return -1;
        std::int32_t id = freeIds.back();
        freeIds.pop_back();
        pool[id] = Checkpoint{};
        pool[id].inUse = true;
        pool[id].ownerSeq = owner_seq;
        return id;
    }

    Checkpoint &
    get(std::int32_t id)
    {
        dmp_assert(id >= 0 && std::size_t(id) < pool.size() &&
                       pool[id].inUse,
                   "bad checkpoint id");
        return pool[id];
    }

    /** Release, validated against the owning instruction's sequence. */
    void
    release(std::int32_t id, std::uint64_t owner_seq)
    {
        dmp_assert(id >= 0 && std::size_t(id) < pool.size(),
                   "bad checkpoint id");
        if (pool[id].inUse && pool[id].ownerSeq == owner_seq) {
            pool[id].inUse = false;
            freeIds.push_back(id);
        }
    }

  private:
    std::vector<Checkpoint> pool;
    std::vector<std::int32_t> freeIds;
};

} // namespace dmp::core

#endif // DMP_CORE_RENAME_MAP_HH
