/**
 * @file
 * DRAM energy model in the style of the MICRON DDR4 power calculator
 * (TN-40-07), which the paper uses for NVDIMM and SSD-internal DRAM.
 *
 * Energy = background power x elapsed time
 *        + activate/precharge energy x row activations
 *        + read/write burst energy x bursts
 *        + refresh energy.
 *
 * Constants are class-typical values for 8 Gb DDR4 x8 devices; only
 * relative energy across platforms matters for the paper's Fig. 19.
 */

#ifndef HAMS_ENERGY_DRAM_POWER_HH_
#define HAMS_ENERGY_DRAM_POWER_HH_

#include "dram/dram_device.hh"
#include "sim/types.hh"

namespace hams {

/** Tunable DRAM energy constants. */
struct DramPowerParams
{
    double actEnergyJ = 20e-9;      //!< per ACT+PRE pair
    double burstReadJ = 4.0e-9;     //!< per 64 B read burst
    double burstWriteJ = 4.4e-9;    //!< per 64 B write burst
    double backgroundW = 0.065;     //!< per rank, standby average
    double refreshW = 0.015;        //!< per rank, averaged refresh power
};

/** Computes DRAM energy from device activity counters. */
class DramPowerModel
{
  public:
    explicit DramPowerModel(const DramPowerParams& p = {}) : params(p) {}

    /**
     * Energy in joules for @p activity accumulated over @p elapsed
     * simulated time on a module with @p ranks ranks.
     */
    double energyJ(const DramActivity& activity, Tick elapsed,
                   std::uint32_t ranks) const;

  private:
    DramPowerParams params;
};

} // namespace hams

#endif // HAMS_ENERGY_DRAM_POWER_HH_
