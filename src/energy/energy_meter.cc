#include "energy/energy_meter.hh"

namespace hams {

EnergyBreakdownJ
energyOf(const DeviceActivity& a, Tick elapsed)
{
    DramPowerModel dram;
    FlashPowerModel flash{a.media == FlashMedia::ZNand
                              ? FlashPowerParams::zNand()
                              : FlashPowerParams::vNand()};
    EnergyBreakdownJ e;
    if (a.memoryRanks)
        e.nvdimm = dram.energyJ(a.memory, elapsed, a.memoryRanks);
    if (a.bufferRanks)
        e.internalDram = dram.energyJ(a.buffer, elapsed, a.bufferRanks);
    if (a.dies)
        e.znand = flash.energyJ(a.flash, elapsed, a.dies);
    return e;
}

} // namespace hams
