/**
 * @file
 * DDR4 timing parameters (JESD79-4 style).
 *
 * Parameters are derived from a speed grade (MT/s) plus CAS latency so
 * configurations such as the paper's DDR4-2133 NVDIMM and a DDR4-2666
 * channel are one-liners.
 */

#ifndef HAMS_DRAM_DDR4_TIMING_HH_
#define HAMS_DRAM_DDR4_TIMING_HH_

#include <cstdint>

#include "sim/types.hh"

namespace hams {

/** Table II's DDR4-2133 (MT/s): the NVDIMM, host DRAM and oracle. */
inline constexpr std::uint32_t paperDdr4Mts = 2133;

/**
 * Timing and geometry of one DDR4 channel.
 *
 * All latencies in Ticks (ps). The data bus is 64 bits wide and each
 * BL8 burst moves 64 bytes.
 */
struct Ddr4Timing
{
    std::uint32_t dataRateMts = paperDdr4Mts; //!< million transfers/s
    std::uint32_t banks = 16;           //!< banks per rank
    std::uint32_t ranks = 2;            //!< ranks per channel
    std::uint64_t rowBufferBytes = 8192; //!< page size per bank

    Tick tCK = 0;      //!< clock period
    Tick tCL = 0;      //!< CAS latency
    Tick tRCD = 0;     //!< RAS-to-CAS
    Tick tRP = 0;      //!< row precharge
    Tick tRAS = 0;     //!< row active time
    Tick tBURST = 0;   //!< BL8 data burst occupancy
    Tick tWR = 0;      //!< write recovery
    Tick tRFC = 0;     //!< refresh cycle time
    Tick tREFI = 0;    //!< refresh interval

    /** Fill latency fields for a speed grade with typical JEDEC values. */
    static Ddr4Timing speedGrade(std::uint32_t data_rate_mts);

    /** Peak bandwidth of the channel in bytes per second. */
    double peakBandwidth() const { return dataRateMts * 1e6 * 8.0; }

    /** Bytes moved per BL8 burst. */
    static constexpr std::uint32_t burstBytes = 64;
};

} // namespace hams

#endif // HAMS_DRAM_DDR4_TIMING_HH_
