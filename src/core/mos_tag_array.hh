/**
 * @file
 * The MoS (Memory-over-Storage) tag array.
 *
 * HAMS configures the NVDIMM as a direct-mapped inclusive cache of the
 * ULL-Flash and embeds each line's metadata (tag, valid, dirty, busy)
 * alongside the ECC bits of the NVDIMM cache line itself — like the
 * MCDRAM tag scheme of Intel Knights Landing (paper SSV-A). Two
 * consequences the model preserves:
 *
 *  1. A tag probe costs no extra DRAM access: the tag travels with the
 *     data burst.
 *  2. Tags are as persistent as the NVDIMM contents, so valid/dirty
 *     state (and stale busy bits) survive power failure. An SRAM tag
 *     array would lose everything, which is why the paper rejects it.
 *
 * This class is the metadata mirror the controller consults; its
 * persistence semantics follow the NVDIMM it logically lives in.
 */

#ifndef HAMS_CORE_MOS_TAG_ARRAY_HH_
#define HAMS_CORE_MOS_TAG_ARRAY_HH_

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/** Metadata of one NVDIMM cache line (one MoS page frame). */
struct MosTagEntry
{
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    bool busy = false; //!< a fill/evict DMA is in flight on this frame
};

/**
 * Direct-mapped tag array over the NVDIMM cache region.
 */
class MosTagArray
{
  public:
    /**
     * @param cache_bytes size of the NVDIMM region used as MoS cache
     * @param page_bytes  MoS page (cache line) size, e.g. 128 KiB
     */
    MosTagArray(std::uint64_t cache_bytes, std::uint32_t page_bytes);

    std::uint64_t sets() const { return entries.size(); }
    std::uint32_t pageBytes() const { return _pageBytes; }

    /** Set index of a MoS address. */
    HAMS_HOT_PATH std::uint64_t indexOf(Addr mos_addr) const
    {
        std::uint64_t page = mos_addr >> pageShift;
        return pow2 ? page & setMask : page % sets();
    }

    /** Tag of a MoS address. */
    HAMS_HOT_PATH std::uint64_t tagOf(Addr mos_addr) const
    {
        std::uint64_t page = mos_addr >> pageShift;
        return pow2 ? page >> setShift : page / sets();
    }

    /** First MoS byte cached by set @p idx when holding tag @p tag. */
    HAMS_HOT_PATH Addr
    mosPageAddr(std::uint64_t tag, std::uint64_t idx) const
    {
        return (tag * sets() + idx) * _pageBytes;
    }

    /** True if @p mos_addr currently hits. */
    HAMS_HOT_PATH bool
    hit(Addr mos_addr) const
    {
        const MosTagEntry& e = entries[indexOf(mos_addr)];
        return e.valid && e.tag == tagOf(mos_addr);
    }

    HAMS_HOT_PATH MosTagEntry& entry(std::uint64_t idx) { return entries[idx]; }
    HAMS_HOT_PATH const MosTagEntry& entry(std::uint64_t idx) const
    {
        return entries[idx];
    }

    /** Count of valid (resident) frames. */
    HAMS_COLD_PATH std::uint64_t residentCount() const;

    /** Count of dirty frames. */
    HAMS_COLD_PATH std::uint64_t dirtyCount() const;

    /** Clear stale busy bits (power-up recovery step). */
    HAMS_COLD_PATH void clearBusyBits();

    /** Invalidate everything (cold start). */
    HAMS_COLD_PATH void invalidateAll();

  private:
    std::uint32_t _pageBytes;
    std::vector<MosTagEntry> entries;
    /** Shift/mask set decode for a power-of-two set count (else div/mod). */
    bool pow2 = false;
    std::uint32_t pageShift = 0;
    std::uint32_t setShift = 0;
    std::uint64_t setMask = 0;
};

} // namespace hams

#endif // HAMS_CORE_MOS_TAG_ARRAY_HH_
