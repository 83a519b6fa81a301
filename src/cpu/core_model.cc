#include "cpu/core_model.hh"

#include <utility>

#include "cpu/smp_model.hh"

namespace hams {

void
finalizeRunResult(RunResult& res, double freq_ghz,
                  const CpuPowerModel& cpu_power)
{
    if (res.simTime == 0)
        res.simTime = 1;

    double secs = ticksToSeconds(res.simTime);
    double cycles_total =
        static_cast<double>(res.simTime) * freq_ghz / 1000.0;
    res.ipc = static_cast<double>(res.instructions) / cycles_total;
    res.opsPerSec = static_cast<double>(res.opsCompleted) / secs;
    res.pagesPerSec = static_cast<double>(res.pagesTouched) / secs;
    res.bytesPerSec =
        static_cast<double>(res.memInstructions) * 64.0 / secs;
    res.cpuEnergyJ = cpu_power.energyJ(res.activeTime, res.stallTime, 1);
}

void
mergeRunResult(RunResult& into, const RunResult& from)
{
    mergeFields(into, from);
}

CoreModel::CoreModel(MemoryPlatform& platform, const CoreConfig& cfg)
    : platform(platform), cfg(cfg)
{
}

RunResult
CoreModel::run(WorkloadGenerator& gen, std::uint64_t instruction_budget)
{
    // One retire loop serves every driver: a single core is a 1-core
    // SmpModel run (solo rules in cpu/smp_model.hh).
    SmpModel smp(platform, SmpConfig{cfg});
    WorkloadGenerator* g = &gen;
    return std::move(smp.run(&g, 1, instruction_budget).perCore[0]);
}

} // namespace hams
