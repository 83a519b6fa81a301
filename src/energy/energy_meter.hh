/**
 * @file
 * System-level energy aggregation matching the paper's Fig. 19
 * breakdown: CPU, system memory (NVDIMM/DRAM), SSD-internal DRAM and
 * Z-NAND chips.
 *
 * Pricing contract: a platform reports what its devices did as one
 * DeviceActivity (MemoryPlatform::deviceActivity) and energyOf()
 * prices it; no platform does energy arithmetic. A section with zero
 * ranks (or zero dies) is an absent device and prices to exactly
 * +0.0, so "no buffer" needs no flag. Which counters feed a section
 * (flatflash's MMIO hits, mmap's backend media) stays the platform's
 * decision; a sharded platform merges its shards' activities.
 */

#ifndef HAMS_ENERGY_ENERGY_METER_HH_
#define HAMS_ENERGY_ENERGY_METER_HH_

#include "energy/dram_power.hh"
#include "energy/flash_power.hh"
#include "sim/fields.hh"

namespace hams {

/** Joules per Fig. 19 component. */
#define HAMS_ENERGY_BREAKDOWN_FIELDS(X)                                    \
    X(sum, double, cpu)                                                    \
    X(sum, double, nvdimm)       /* system memory (NVDIMM or DRAM) */      \
    X(sum, double, internalDram) /* SSD-internal buffer DRAM */            \
    X(sum, double, znand)        /* flash chips */

struct EnergyBreakdownJ
{
    HAMS_FIELDS(EnergyBreakdownJ, HAMS_ENERGY_BREAKDOWN_FIELDS)

    double total() const { return cpu + nvdimm + internalDram + znand; }
};

/** What a platform's memory-side devices did, section by section
 *  (platforms brace-initialise it in list order). */
#define HAMS_DEVICE_ACTIVITY_FIELDS(X)                                     \
    /* system memory (NVDIMM or host DRAM) */                              \
    X(nested, DramActivity, memory)                                        \
    X(sum, std::uint32_t, memoryRanks)                                     \
    /* SSD-internal buffer DRAM; 0 ranks = no buffer */                    \
    X(nested, DramActivity, buffer)                                        \
    X(sum, std::uint32_t, bufferRanks)                                     \
    /* flash complex; 0 dies = no flash */                                 \
    X(nested, FlashActivity, flash)                                        \
    X(sum, std::uint64_t, dies)                                            \
    X(keep, FlashMedia, media)

struct DeviceActivity
{
    HAMS_FIELDS(DeviceActivity, HAMS_DEVICE_ACTIVITY_FIELDS)
};

/**
 * Memory-side energy of @p activity over @p elapsed simulated time
 * (cpu stays 0: the core model prices CPU time).
 */
EnergyBreakdownJ energyOf(const DeviceActivity& activity, Tick elapsed);

} // namespace hams

#endif // HAMS_ENERGY_ENERGY_METER_HH_
