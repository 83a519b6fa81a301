#include "dram/memory_controller.hh"

namespace hams {

namespace {

/** Fixed pipeline latency through the controller logic. */
constexpr Tick frontendLatency = nanoseconds(10);
/** Extra latency for registered DIMMs (RDIMM buffer). */
constexpr Tick rdimmLatency = nanoseconds(1);

} // namespace

MemoryController::MemoryController(const Ddr4Timing& timing,
                                   std::uint64_t capacity)
    : dram(timing, capacity)
{
}

Tick
MemoryController::access(Addr addr, std::uint32_t size, MemOp op, Tick at)
{
    Tick issued = at + frontendLatency + rdimmLatency;
    return dram.access(addr, size, op, issued).ready;
}

Tick
MemoryController::estimate(std::uint32_t size) const
{
    const Ddr4Timing& t = dram.timing();
    std::uint64_t bursts =
        (size + Ddr4Timing::burstBytes - 1) / Ddr4Timing::burstBytes;
    return frontendLatency + rdimmLatency + t.tRCD + t.tCL + bursts * t.tBURST;
}

} // namespace hams
