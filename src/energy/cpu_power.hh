/**
 * @file
 * CPU energy model (McPAT-style aggregate, paper SSVI-A).
 *
 * The core burns active power while retiring instructions and a lower
 * stall power while waiting on memory; a static floor covers leakage
 * and uncore. This is deliberately coarse — the paper's Fig. 19 only
 * needs CPU energy to scale with how long each platform keeps the core
 * busy or stalled.
 */

#ifndef HAMS_ENERGY_CPU_POWER_HH_
#define HAMS_ENERGY_CPU_POWER_HH_

#include <cstdint>

#include "sim/types.hh"

namespace hams {

/** Tunable CPU energy constants (per core). */
struct CpuPowerParams
{
    double activeW = 1.8;  //!< executing instructions
    double stallW = 0.55;  //!< stalled on memory
    double staticW = 0.35; //!< leakage + uncore share
};

/** Computes CPU energy from active/stall time. */
class CpuPowerModel
{
  public:
    explicit CpuPowerModel(const CpuPowerParams& p = {}) : params(p) {}

    double
    energyJ(Tick active, Tick stalled, std::uint32_t cores = 1) const
    {
        double t_active = ticksToSeconds(active);
        double t_stall = ticksToSeconds(stalled);
        return cores * (params.activeW * t_active +
                        params.stallW * t_stall +
                        params.staticW * (t_active + t_stall));
    }

  private:
    CpuPowerParams params;
};

} // namespace hams

#endif // HAMS_ENERGY_CPU_POWER_HH_
