/**
 * @file
 * NAND flash timing presets and geometry.
 *
 * Z-NAND (Samsung Z-SSD media) is a 48-layer V-NAND operated as SLC with
 * an optimised I/O circuit: 3 us page reads and 100 us programs — 15x and
 * 7x faster than conventional V-NAND (paper SSII-C). The presets below
 * also cover the TLC-class media used by the comparison NVMe/SATA SSDs.
 */

#ifndef HAMS_FLASH_NAND_TIMING_HH_
#define HAMS_FLASH_NAND_TIMING_HH_

#include <cstdint>

#include "sim/types.hh"

namespace hams {

/** Per-die NAND operation latencies and channel interface speed. */
struct NandTiming
{
    Tick tR = microseconds(3);        //!< page read (cell -> register)
    Tick tPROG = microseconds(100);   //!< page program
    Tick tERASE = milliseconds(3);    //!< block erase
    Tick cmdOverhead = nanoseconds(200); //!< command/address cycles
    /**
     * Program/erase suspend handshake: the time to pause an ongoing
     * background cell operation so a foreground op can use the
     * die/plane (suspend-priority scheduling in the FIL).
     */
    Tick tSuspend = microseconds(5);
    double channelBandwidth = 1.2e9;  //!< bytes/s on the flash channel

    /** Samsung Z-NAND: SLC-mode 3D flash with short latencies. */
    static NandTiming zNand();

    /** Conventional V-NAND (MLC/TLC class): 15x read / 7x write slower. */
    static NandTiming vNand();

    /** Time to move @p bytes over the channel bus. */
    Tick
    transferTime(std::uint64_t bytes) const
    {
        return cmdOverhead +
               static_cast<Tick>(static_cast<double>(bytes) /
                                 channelBandwidth * 1e12);
    }
};

/** Physical organisation of the flash complex. */
struct FlashGeometry
{
    std::uint32_t channels = 16;
    std::uint32_t packagesPerChannel = 1;
    std::uint32_t diesPerPackage = 2;
    std::uint32_t planesPerDie = 2;
    std::uint32_t blocksPerPlane = 1024;
    std::uint32_t pagesPerBlock = 256;
    std::uint32_t pageSize = 4096;

    /** Dies in the complex (channel x package x die). */
    std::uint64_t
    dies() const
    {
        return std::uint64_t(channels) * packagesPerChannel * diesPerPackage;
    }

    /** Independent parallel units (channel x package x die x plane). */
    std::uint64_t parallelUnits() const { return dies() * planesPerDie; }

    std::uint64_t pagesPerPlane() const
    {
        return std::uint64_t(blocksPerPlane) * pagesPerBlock;
    }

    std::uint64_t totalPages() const
    {
        return parallelUnits() * pagesPerPlane();
    }

    std::uint64_t rawCapacity() const { return totalPages() * pageSize; }
};

/**
 * Decoded physical flash address. Physical page numbers (PPNs) order
 * pages as [parallel-unit | block | page] so the FTL's round-robin
 * allocation stripes consecutive writes across every channel and die.
 */
struct FlashAddress
{
    std::uint32_t channel = 0;
    std::uint32_t package = 0;
    std::uint32_t die = 0;
    std::uint32_t plane = 0;
    std::uint32_t block = 0;
    std::uint32_t page = 0;

    static FlashAddress decompose(std::uint64_t ppn, const FlashGeometry& g);
    std::uint64_t flatten(const FlashGeometry& g) const;

    /** Index of the parallel unit this address lives on. */
    std::uint64_t parallelUnit(const FlashGeometry& g) const;
};

} // namespace hams

#endif // HAMS_FLASH_NAND_TIMING_HH_
