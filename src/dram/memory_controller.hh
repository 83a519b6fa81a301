/**
 * @file
 * Channel-level memory controller.
 *
 * Adds the controller pipeline (queueing, command scheduling) in front of
 * a DramDevice and exposes a single access() entry point used by the MCH,
 * the HAMS controller and the NVMe-side DMA engines.
 */

#ifndef HAMS_DRAM_MEMORY_CONTROLLER_HH_
#define HAMS_DRAM_MEMORY_CONTROLLER_HH_

#include <cstdint>

#include "dram/dram_device.hh"
#include "mem/request.hh"
#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/**
 * A simple FR-FCFS-lite controller: requests pay a fixed front-end
 * pipeline cost and then contend for banks/bus inside the device model.
 */
class MemoryController
{
  public:
    MemoryController(const Ddr4Timing& timing, std::uint64_t capacity);

    /**
     * Issue an access at tick @p at.
     * @return the tick at which the last data beat arrives.
     */
    HAMS_HOT_PATH Tick access(Addr addr, std::uint32_t size, MemOp op, Tick at);

    /** Latency an access would see, without mutating state (estimate). */
    HAMS_HOT_PATH Tick estimate(std::uint32_t size) const;

    DramDevice& device() { return dram; }
    const DramDevice& device() const { return dram; }

    std::uint64_t capacity() const { return dram.capacity(); }

  private:
    DramDevice dram;
};

} // namespace hams

#endif // HAMS_DRAM_MEMORY_CONTROLLER_HH_
