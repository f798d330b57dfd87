#include "isa/mem_image.hh"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace dmp::isa
{

MemoryImage::MemoryImage(std::size_t bytes) : numWords(bytes / sizeof(Word))
{
    dmp_assert(numWords > 0, "empty memory image");
    void *p = mmap(nullptr, sizeBytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    words = static_cast<Word *>(p);
}

MemoryImage::~MemoryImage()
{
    munmap(words, sizeBytes());
}

void
MemoryImage::clear()
{
    // On a private anonymous mapping, MADV_DONTNEED drops the pages and
    // the next access to each reads zero again.
    if (madvise(words, sizeBytes(), MADV_DONTNEED) != 0)
        dmp_panic("madvise(MADV_DONTNEED) failed on the memory image");
}

bool
MemoryImage::operator==(const MemoryImage &other) const
{
    return numWords == other.numWords &&
           std::memcmp(words, other.words, sizeBytes()) == 0;
}

} // namespace dmp::isa
