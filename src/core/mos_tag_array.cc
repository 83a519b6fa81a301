#include "core/mos_tag_array.hh"

#include "sim/logging.hh"

namespace hams {

MosTagArray::MosTagArray(std::uint64_t cache_bytes, std::uint32_t page_bytes)
    : _pageBytes(page_bytes)
{
    if (!isPow2(page_bytes))
        fatal("MoS page size must be a power of two, got ", page_bytes);
    if (cache_bytes < page_bytes)
        fatal("MoS cache smaller than one page");
    entries.resize(cache_bytes / page_bytes);
    pageShift = log2u64(page_bytes);
    pow2 = isPow2(sets());
    setShift = log2u64(sets());
    setMask = sets() - 1;
}

std::uint64_t
MosTagArray::residentCount() const
{
    std::uint64_t n = 0;
    for (const auto& e : entries)
        n += e.valid;
    return n;
}

std::uint64_t
MosTagArray::dirtyCount() const
{
    std::uint64_t n = 0;
    for (const auto& e : entries)
        n += e.valid && e.dirty;
    return n;
}

void
MosTagArray::clearBusyBits()
{
    for (auto& e : entries)
        e.busy = false;
}

} // namespace hams
