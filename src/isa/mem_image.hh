/**
 * @file
 * Architectural data memory.
 *
 * Holds the *values* of the simulated memory space; the cache hierarchy in
 * src/mem models access *timing* only. Word-granular (64-bit), 8-byte
 * aligned accesses, flat backing store sized at construction.
 *
 * The store is a private anonymous mapping, so the kernel zero-fills a
 * page only when a program first touches it: building an image costs
 * O(pages touched), not O(image size). An image starts zeroed only by
 * construction; each run builds its own.
 */

#ifndef DMP_ISA_MEM_IMAGE_HH
#define DMP_ISA_MEM_IMAGE_HH

#include <cstddef>
#include <cstring>
#include <span>

#include "common/logging.hh"
#include "common/types.hh"

namespace dmp::isa
{

/** Flat, word-addressable architectural memory image. */
class MemoryImage
{
  public:
    /** @param bytes size of the simulated data space. */
    explicit MemoryImage(std::size_t bytes);
    ~MemoryImage();

    MemoryImage(const MemoryImage &) = delete;
    MemoryImage &operator=(const MemoryImage &) = delete;

    std::size_t sizeBytes() const { return numWords * sizeof(Word); }

    /** Read the word at a byte address (must be 8-byte aligned). */
    Word
    load(Addr addr) const
    {
        return words[wordIndex(addr)];
    }

    /** Write the word at a byte address (must be 8-byte aligned). */
    void
    store(Addr addr, Word value)
    {
        words[wordIndex(addr)] = value;
    }

    /** Write consecutive words from a byte address in one copy; fatal,
     *  as store() is, when any of them falls outside the image. */
    void
    storeWords(Addr addr, std::span<const Word> src)
    {
        if (src.empty())
            return;
        const std::size_t idx = wordIndex(addr);
        if (src.size() > numWords - idx)
            dmp_fatal("memory access out of bounds: 0x", std::hex,
                      addr + src.size() * sizeof(Word) - sizeof(Word));
        std::memcpy(words + idx, src.data(), src.size_bytes());
    }

    bool operator==(const MemoryImage &other) const;

  private:
    std::size_t
    wordIndex(Addr addr) const
    {
        dmp_assert(addr % sizeof(Word) == 0,
                   "unaligned memory access at 0x", std::hex, addr);
        std::size_t idx = addr / sizeof(Word);
        if (idx >= numWords)
            dmp_fatal("memory access out of bounds: 0x", std::hex, addr);
        return idx;
    }

    std::size_t numWords;
    Word *words;
};

} // namespace dmp::isa

#endif // DMP_ISA_MEM_IMAGE_HH
