/**
 * @file
 * Sparse functional backing store.
 *
 * Carries real bytes for the data plane so crash-recovery and hazard
 * tests can verify end-to-end integrity, while only allocating frames
 * that are actually touched. Unwritten bytes read as zero, mirroring a
 * freshly formatted device.
 *
 * Lookup is a direct page table (no hashing): a DirectTable of frame
 * pointers (sim/direct_table.hh), whose leaves allocate on first
 * touch; the frames themselves are owned by a list in allocation
 * order. A last-frame cache short-circuits the common case of
 * consecutive accesses landing in the same frame, and span transfers
 * walk frames with direct indexing instead of per-frame map lookups.
 */

#ifndef HAMS_MEM_SPARSE_MEMORY_HH_
#define HAMS_MEM_SPARSE_MEMORY_HH_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/annotations.hh"
#include "sim/direct_table.hh"
#include "sim/types.hh"

namespace hams {

/**
 * A sparse byte-addressable store backed by lazily allocated frames.
 *
 * Frames default to 4 KiB. Reads of never-written regions return zeros
 * without allocating. Frames never move once allocated, so the
 * last-frame cache stays valid until clear().
 */
class SparseMemory
{
  public:
    explicit SparseMemory(std::uint64_t capacity,
                          std::uint32_t frame_size = 4096);

    std::uint64_t capacity() const { return _capacity; }
    std::uint32_t frameSize() const { return _frameSize; }

    /** Copy @p size bytes at @p addr into @p dst (zero-fill for holes). */
    HAMS_HOT_PATH void read(Addr addr, void* dst, std::uint64_t size) const;

    /** Copy @p size bytes from @p src into the store at @p addr. */
    HAMS_HOT_PATH void write(Addr addr, const void* src, std::uint64_t size);

    /** Fill a region with one byte value. */
    void fill(Addr addr, std::uint8_t value, std::uint64_t size);

    /** Convenience typed accessors for tests. */
    template <typename T>
    T
    readValue(Addr addr) const
    {
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeValue(Addr addr, const T& v)
    {
        write(addr, &v, sizeof(T));
    }

    /** FNV-1a checksum over a region (integrity checks in tests). */
    HAMS_COLD_PATH std::uint64_t checksum(Addr addr, std::uint64_t size) const;

    /** Number of frames actually allocated. */
    std::size_t allocatedFrames() const { return frames.size(); }

    /** Drop all contents (device reformat). */
    HAMS_COLD_PATH void clear();

  private:
    /** Frame data pointer, allocating the frame as needed. */
    HAMS_HOT_PATH std::uint8_t* getFrame(std::uint64_t frame_no);

    std::uint64_t _capacity;
    std::uint32_t _frameSize;
    std::uint32_t frameShift; //!< log2(_frameSize)
    /** Frame number -> frame bytes (null = hole). */
    DirectTable<std::uint8_t*> frameOf;
    /** Owns every allocated frame, in allocation order. */
    std::vector<std::unique_ptr<std::uint8_t[]>> frames;

    /** Last-frame cache: valid until clear() (frames never move). */
    mutable std::uint64_t lastFrameNo = ~std::uint64_t(0);
    mutable std::uint8_t* lastFrame = nullptr;
};

} // namespace hams

#endif // HAMS_MEM_SPARSE_MEMORY_HH_
