/**
 * @file
 * Host Interface Layer (HIL).
 *
 * Parses device-level commands, splits them into FTL-unit sub-requests
 * and coordinates the internal DRAM buffer. ULL-Flash configures the
 * FTL unit at half an NVMe block (2 KiB) so every 4 KiB access is served
 * by two channels concurrently, halving the DMA latency (paper SSII-C).
 */

#ifndef HAMS_SSD_HIL_HH_
#define HAMS_SSD_HIL_HH_

#include <cstdint>

#include "ftl/page_ftl.hh"
#include "nvme/nvme_types.hh"
#include "sim/annotations.hh"
#include "ssd/dram_buffer.hh"
#include "sim/types.hh"

namespace hams {

/** Firmware-path latencies and splitting policy. */
struct HilConfig
{
    Tick readFirmware = microseconds(1.2);  //!< parse+queue+FTL lookup
    Tick writeFirmware = microseconds(3.0); //!< parse+alloc+ack path
};

/**
 * Timing-only HIL: drives the FTL and buffer. Functional data stays in
 * the owning Ssd, which calls these methods in lockstep with its own
 * data-plane updates.
 */
class Hil
{
  public:
    /**
     * @param buffer internal DRAM buffer, or nullptr when the device has
     *               none (advanced HAMS unboxes it)
     */
    Hil(const HilConfig& cfg, PageFtl& ftl, DramBuffer* buffer,
        const FlashGeometry& geom);

    /**
     * Timed read of one 4 KiB block.
     * @param buffer_hit set to whether the internal buffer served it
     */
    HAMS_HOT_PATH Tick readBlock(std::uint64_t block, Tick at, bool& buffer_hit);

    /**
     * Timed write of one 4 KiB block.
     * @param evicted out-param describing a displaced dirty frame whose
     *                writeback was issued to flash
     */
    HAMS_HOT_PATH Tick writeBlock(std::uint64_t block, bool fua, Tick at,
                    BufferEviction& evicted);

    /** Write every dirty frame back to flash. */
    HAMS_HOT_PATH Tick flushAll(Tick at);

    /** Write one specific frame back to flash (eviction path). */
    HAMS_HOT_PATH Tick writebackFrame(std::uint64_t block, Tick at);

  private:
    HAMS_HOT_PATH std::uint64_t
    lpnOf(std::uint64_t block, std::uint32_t unit) const
    {
        return block * _unitsPerBlock + unit;
    }

    HilConfig cfg;
    PageFtl& ftl;
    DramBuffer* buffer;
    std::uint32_t _unitsPerBlock;
    std::uint32_t unitSize;
};

} // namespace hams

#endif // HAMS_SSD_HIL_HH_
