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

bool
MemoryImage::operator==(const MemoryImage &other) const
{
    return numWords == other.numWords &&
           std::memcmp(words, other.words, sizeBytes()) == 0;
}

} // namespace dmp::isa
