#include "mem/sparse_memory.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

SparseMemory::SparseMemory(std::uint64_t capacity, std::uint32_t frame_size)
    : _capacity(capacity), _frameSize(frame_size)
{
    if (frame_size == 0 || (frame_size & (frame_size - 1)) != 0)
        fatal("SparseMemory frame size must be a power of two, got ",
              frame_size);
    if (capacity % frame_size != 0)
        fatal("SparseMemory capacity ", capacity,
              " is not a multiple of the frame size ", frame_size);

    frameShift = 0;
    while ((1u << frameShift) != frame_size)
        ++frameShift;

    frameOf = DirectTable<std::uint8_t*>(capacity >> frameShift, nullptr);
}

std::uint8_t*
SparseMemory::getFrame(std::uint64_t frame_no)
{
    std::uint8_t*& frame = frameOf.at(frame_no);
    if (!frame) {
        HAMS_LINT_SUPPRESS("first-touch frame allocation (faulting a page in, zero-filled); steady-state reads and overwrites reuse it")
        frames.push_back(std::make_unique<std::uint8_t[]>(_frameSize));
        frame = frames.back().get();
    }
    lastFrameNo = frame_no;
    lastFrame = frame;
    return frame;
}

void
SparseMemory::read(Addr addr, void* dst, std::uint64_t size) const
{
    if (addr + size > _capacity)
        fatal("SparseMemory read [", addr, ", ", addr + size,
              ") exceeds capacity ", _capacity);
    auto* out = static_cast<std::uint8_t*>(dst);

    // Fast path: the whole read lands in the cached frame.
    std::uint64_t frame_no = addr >> frameShift;
    std::uint64_t off = addr & (_frameSize - 1);
    if (frame_no == lastFrameNo && off + size <= _frameSize) {
        std::memcpy(out, lastFrame + off, size);
        return;
    }

    // Span path: walk frames with direct table indexing.
    while (size > 0) {
        std::uint64_t chunk =
            std::min<std::uint64_t>(size, _frameSize - off);
        if (const std::uint8_t* f = frameOf.get(frame_no)) {
            std::memcpy(out, f + off, chunk);
            lastFrameNo = frame_no;
            lastFrame = const_cast<std::uint8_t*>(f);
        } else {
            std::memset(out, 0, chunk);
        }
        out += chunk;
        size -= chunk;
        ++frame_no;
        off = 0;
    }
}

void
SparseMemory::write(Addr addr, const void* src, std::uint64_t size)
{
    if (addr + size > _capacity)
        fatal("SparseMemory write [", addr, ", ", addr + size,
              ") exceeds capacity ", _capacity);
    const auto* in = static_cast<const std::uint8_t*>(src);

    // Fast path: the whole write lands in the cached frame.
    std::uint64_t frame_no = addr >> frameShift;
    std::uint64_t off = addr & (_frameSize - 1);
    if (frame_no == lastFrameNo && off + size <= _frameSize) {
        std::memcpy(lastFrame + off, in, size);
        return;
    }

    while (size > 0) {
        std::uint64_t chunk =
            std::min<std::uint64_t>(size, _frameSize - off);
        std::memcpy(getFrame(frame_no) + off, in, chunk);
        in += chunk;
        size -= chunk;
        ++frame_no;
        off = 0;
    }
}

void
SparseMemory::fill(Addr addr, std::uint8_t value, std::uint64_t size)
{
    if (addr + size > _capacity)
        fatal("SparseMemory fill [", addr, ", ", addr + size,
              ") exceeds capacity ", _capacity);
    std::uint64_t frame_no = addr >> frameShift;
    std::uint64_t off = addr & (_frameSize - 1);
    while (size > 0) {
        std::uint64_t chunk =
            std::min<std::uint64_t>(size, _frameSize - off);
        std::memset(getFrame(frame_no) + off, value, chunk);
        size -= chunk;
        ++frame_no;
        off = 0;
    }
}

std::uint64_t
SparseMemory::checksum(Addr addr, std::uint64_t size) const
{
    if (addr + size > _capacity)
        fatal("SparseMemory checksum [", addr, ", ", addr + size,
              ") exceeds capacity ", _capacity);
    // FNV-1a straight over the frames; holes hash as zeros without a
    // scratch buffer.
    constexpr std::uint64_t prime = 1099511628211ULL;
    std::uint64_t h = 1469598103934665603ULL;
    std::uint64_t frame_no = addr >> frameShift;
    std::uint64_t off = addr & (_frameSize - 1);
    while (size > 0) {
        std::uint64_t chunk =
            std::min<std::uint64_t>(size, _frameSize - off);
        if (const std::uint8_t* f = frameOf.get(frame_no)) {
            for (std::uint64_t i = 0; i < chunk; ++i) {
                h ^= f[off + i];
                h *= prime;
            }
        } else {
            for (std::uint64_t i = 0; i < chunk; ++i)
                h *= prime; // h ^= 0 is a no-op
        }
        size -= chunk;
        ++frame_no;
        off = 0;
    }
    return h;
}

void
SparseMemory::clear()
{
    frameOf.clear();
    frames.clear();
    lastFrameNo = ~std::uint64_t(0);
    lastFrame = nullptr;
}

} // namespace hams
