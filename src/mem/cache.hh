/**
 * @file
 * Set-associative cache timing model.
 *
 * Caches model access *timing* only: hit/miss state, LRU replacement and
 * bank contention. Data values live in the architectural MemoryImage
 * (isa/mem_image.hh). Geometry defaults follow Table 2.
 */

#ifndef DMP_MEM_CACHE_HH
#define DMP_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace dmp::mem
{

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 4;
    std::uint32_t lineBytes = 64;
    std::uint32_t banks = 1;
    Cycle hitLatency = 2;
};

/** Demand-access counters of one cache level. */
struct CacheStats
{
    Counter hits;
    Counter misses;

    /** Visit every counter (see common/stats.hh). */
    template <class F>
    void
    forEachStat(F &&f) const
    {
        f("hits", hits, "demand hits");
        f("misses", misses, "demand misses");
    }
};

/** One cache level with true-LRU replacement and banked ports. */
class Cache final
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Probe-and-allocate access.
     * @param addr byte address
     * @param now cycle the request arrives at this level
     * @param ready_out cycle the request's bank is free (bank conflicts
     *        serialize back-to-back accesses to the same bank)
     * @param avail_out on a hit, the cycle the line's *data* is
     *        available: an access that hits on a line whose fill is
     *        still in flight (MSHR merge) completes no earlier than the
     *        original fill (fills happen at completion time, so a
     *        squashed speculative load is never an instant prefetch)
     * @return true on hit. On miss the line is allocated; the caller
     *         must announce the fill time via setFillTime().
     */
    bool access(Addr addr, Cycle now, Cycle &ready_out,
                Cycle &avail_out);

    /** Record when the line allocated for addr receives its data. */
    void setFillTime(Addr addr, Cycle fill_at);

    /** Probe without filling or LRU update (for tests/diagnostics). */
    bool probe(Addr addr) const;

    /** Line-granular address (the fetch loop's same-line test). */
    Addr lineOf(Addr addr) const noexcept { return addr >> lineShift; }

    const CacheParams &params() const { return p; }
    const CacheStats &counters() const { return st; }

    std::uint64_t hits() const { return st.hits.value(); }
    std::uint64_t misses() const { return st.misses.value(); }

  private:
    struct Line
    {
        Addr tag = kNoAddr;
        std::uint64_t lruStamp = 0;
        Cycle fillAt = 0; ///< cycle the data arrives (MSHR merge point)
        bool valid = false;
    };

    // Index math is shift/mask: lineBytes and numSets are asserted to
    // be powers of two at construction, so the per-access address
    // decomposition never pays an integer divide. Banks are usually a
    // power of two as well; the constructor precomputes a mask when
    // they are and bankOf falls back to modulo when not.
    std::uint32_t
    setIndex(Addr addr) const noexcept
    {
        return std::uint32_t(addr >> lineShift) & (numSets - 1);
    }
    Addr tagOf(Addr addr) const noexcept { return addr >> tagShift; }
    std::uint32_t
    bankOf(Addr addr) const noexcept
    {
        std::uint32_t line = std::uint32_t(addr >> lineShift);
        return banksPow2 ? (line & bankMask) : (line % p.banks);
    }

    CacheParams p;
    std::uint32_t numSets;
    std::uint32_t lineShift = 0;
    std::uint32_t tagShift = 0;
    std::uint32_t bankMask = 0; ///< banks - 1 (valid when banksPow2)
    bool banksPow2 = false;
    std::vector<Line> lines; ///< numSets * assoc, set-major
    std::vector<Cycle> bankFreeAt;
    std::uint64_t lruClock = 0;

    CacheStats st;
};

/**
 * Three-level hierarchy: L1I + L1D over a shared banked L2 over a
 * fixed-latency banked memory (Table 2: 64KB 2-way L1I, 64KB 4-way L1D,
 * 1MB 8-way 8-bank L2 at 10 cycles, 300-cycle 32-bank memory).
 */
class CacheHierarchy final
{
  public:
    struct Params
    {
        CacheParams l1i{"l1i", 64 * 1024, 2, 64, 1, 2};
        CacheParams l1d{"l1d", 64 * 1024, 4, 64, 1, 2};
        CacheParams l2{"l2", 1024 * 1024, 8, 64, 8, 10};
        Cycle memLatency = 300;
        std::uint32_t memBanks = 32;
        /** Memory bank busy time per access (core-to-memory bus ratio). */
        Cycle memBankBusy = 8;
    };

    CacheHierarchy();
    explicit CacheHierarchy(const Params &params);

    /** Completion cycle of an instruction fetch issued at `now`. */
    Cycle fetchAccess(Addr addr, Cycle now);

    /** Completion cycle of a data load issued at `now`. */
    Cycle loadAccess(Addr addr, Cycle now);

    /**
     * A store becoming architecturally visible; touches the D-cache state
     * for timing fidelity but completes immediately (write-back modeled
     * as fire-and-forget through a write buffer).
     */
    void storeAccess(Addr addr, Cycle now);

    Cache &l1i() { return l1iCache; }
    Cache &l1d() { return l1dCache; }
    Cache &l2() { return l2Cache; }

  private:
    Cycle memoryAccess(Addr addr, Cycle now);

    Params p;
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    std::vector<Cycle> memBankFreeAt;
    bool memBanksPow2 = false;
};

} // namespace dmp::mem

#endif // DMP_MEM_CACHE_HH
