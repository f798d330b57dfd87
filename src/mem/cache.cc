#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dmp::mem
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params)
    : p(params),
      numSets(p.sizeBytes / (p.lineBytes * p.assoc)),
      lines(std::size_t(numSets) * p.assoc),
      bankFreeAt(p.banks, 0)
{
    dmp_assert(isPowerOfTwo(p.lineBytes), "line size must be 2^n");
    dmp_assert(isPowerOfTwo(numSets), "set count must be 2^n: ", p.name);
    dmp_assert(p.banks >= 1, "cache needs at least one bank");
    while ((std::uint32_t(1) << lineShift) < p.lineBytes)
        ++lineShift;
    tagShift = lineShift;
    while ((std::uint32_t(1) << (tagShift - lineShift)) < numSets)
        ++tagShift;
    banksPow2 = isPowerOfTwo(p.banks);
    bankMask = p.banks - 1;
}

bool
Cache::access(Addr addr, Cycle now, Cycle &ready_out, Cycle &avail_out)
{
    // Bank conflict: the request waits for its bank.
    std::uint32_t bank = bankOf(addr);
    Cycle start = std::max(now, bankFreeAt[bank]);
    bankFreeAt[bank] = start + 1; // one new access per bank per cycle
    ready_out = start;
    avail_out = start;

    Line *set = &lines[std::size_t(setIndex(addr)) * p.assoc];
    Addr tag = tagOf(addr);

    for (std::uint32_t w = 0; w < p.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].lruStamp = ++lruClock;
            ++st.hits;
            avail_out = std::max(start, set[w].fillAt);
            return true;
        }
    }

    // Miss: allocate the LRU way; the caller announces the fill time.
    ++st.misses;
    Line *victim = &set[0];
    for (std::uint32_t w = 1; w < p.assoc; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lruStamp < victim->lruStamp && victim->valid)
            victim = &set[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lruStamp = ++lruClock;
    victim->fillAt = kNeverCycle; // until setFillTime()
    return false;
}

void
Cache::setFillTime(Addr addr, Cycle fill_at)
{
    Line *set = &lines[std::size_t(setIndex(addr)) * p.assoc];
    Addr tag = tagOf(addr);
    for (std::uint32_t w = 0; w < p.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].fillAt = fill_at;
            return;
        }
    }
}

bool
Cache::probe(Addr addr) const
{
    const Line *set = &lines[std::size_t(setIndex(addr)) * p.assoc];
    Addr tag = tagOf(addr);
    for (std::uint32_t w = 0; w < p.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

CacheHierarchy::CacheHierarchy() : CacheHierarchy(Params{})
{
}

CacheHierarchy::CacheHierarchy(const Params &params)
    : p(params),
      l1iCache(p.l1i),
      l1dCache(p.l1d),
      l2Cache(p.l2),
      memBankFreeAt(p.memBanks, 0),
      memBanksPow2(isPowerOfTwo(p.memBanks))
{
}

Cycle
CacheHierarchy::memoryAccess(Addr addr, Cycle now)
{
    // Bank readiness is a direct-indexed timestamp array (no scan): a
    // request reads and bumps exactly one memBankFreeAt slot, like the
    // per-cache bankFreeAt in Cache::access. Line/bank decomposition is
    // shift/mask when the counts are powers of two (the defaults).
    std::uint32_t line = std::uint32_t(l2Cache.lineOf(addr));
    std::uint32_t bank = memBanksPow2 ? (line & (p.memBanks - 1))
                                      : (line % p.memBanks);
    Cycle start = std::max(now, memBankFreeAt[bank]);
    memBankFreeAt[bank] = start + p.memBankBusy;
    return start + p.memLatency;
}

namespace
{

/** Demand access through one level; returns the data-ready cycle. */
Cycle
levelAccess(Cache &cache, Addr addr, Cycle now, bool &hit)
{
    Cycle ready, avail;
    hit = cache.access(addr, now, ready, avail);
    return hit ? std::max(avail, ready) + cache.params().hitLatency
               : ready + cache.params().hitLatency;
}

} // namespace

Cycle
CacheHierarchy::fetchAccess(Addr addr, Cycle now)
{
    bool hit;
    Cycle l1_done = levelAccess(l1iCache, addr, now, hit);
    if (hit)
        return l1_done;
    Cycle l2_done = levelAccess(l2Cache, addr, l1_done, hit);
    if (!hit) {
        l2_done = memoryAccess(addr, l2_done);
        l2Cache.setFillTime(addr, l2_done);
    }
    l1iCache.setFillTime(addr, l2_done);
    return l2_done;
}

Cycle
CacheHierarchy::loadAccess(Addr addr, Cycle now)
{
    bool hit;
    Cycle l1_done = levelAccess(l1dCache, addr, now, hit);
    if (hit)
        return l1_done;
    Cycle l2_done = levelAccess(l2Cache, addr, l1_done, hit);
    if (!hit) {
        l2_done = memoryAccess(addr, l2_done);
        l2Cache.setFillTime(addr, l2_done);
    }
    l1dCache.setFillTime(addr, l2_done);
    return l2_done;
}

void
CacheHierarchy::storeAccess(Addr addr, Cycle now)
{
    // Write-allocate into L1D; latency is absorbed by the write buffer.
    Cycle ready, avail;
    if (!l1dCache.access(addr, now, ready, avail)) {
        Cycle l2_done;
        if (!l2Cache.access(addr, ready, l2_done, avail))
            l2Cache.setFillTime(addr, l2_done + p.memLatency);
        l1dCache.setFillTime(addr, ready + p.l2.hitLatency);
    }
}

} // namespace dmp::mem
