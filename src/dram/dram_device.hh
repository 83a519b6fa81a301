/**
 * @file
 * Bank-accurate DDR4 device timing model.
 *
 * Uses resource reservation: each bank tracks its open row and the tick
 * at which it becomes free; the shared data bus tracks its own busy-until
 * time. An access computes its completion tick analytically, which lets
 * the DES schedule exactly one completion event per request instead of
 * one per DRAM command.
 */

#ifndef HAMS_DRAM_DRAM_DEVICE_HH_
#define HAMS_DRAM_DRAM_DEVICE_HH_

#include <cstdint>
#include <vector>

#include "dram/ddr4_timing.hh"
#include "mem/request.hh"
#include "sim/fields.hh"
#include "sim/types.hh"

namespace hams {

/** Operation counters consumed by the DRAM power model. */
#define HAMS_DRAM_ACTIVITY_FIELDS(X)                                       \
    X(sum, std::uint64_t, activates)                                       \
    X(sum, std::uint64_t, reads)  /* 64 B bursts read */                   \
    X(sum, std::uint64_t, writes) /* 64 B bursts written */                \
    X(sum, Tick, busyTime)        /* data bus occupancy */

struct DramActivity
{
    HAMS_FIELDS(DramActivity, HAMS_DRAM_ACTIVITY_FIELDS)
};

/** Result of one device access. */
struct DramAccessResult
{
    Tick ready = 0;     //!< tick at which the data transfer completes
    bool rowHit = false;
};

/**
 * One rank-group of DDR4 devices behind a single data bus.
 *
 * Capacity is split across ranks x banks; each bank keeps an open row
 * (page) and services row hits at tCL and misses at tRP+tRCD+tCL.
 */
class DramDevice
{
  public:
    DramDevice(const Ddr4Timing& timing, std::uint64_t capacity);

    /**
     * Access @p size bytes starting at @p addr beginning no earlier than
     * @p at. Multi-burst transfers pipeline on the data bus and may span
     * rows (each new row adds a precharge+activate).
     */
    DramAccessResult access(Addr addr, std::uint32_t size, MemOp op, Tick at);

    /** Earliest tick at which the data bus is free. */
    Tick busFreeAt() const { return busBusyUntil; }

    /**
     * Reserve the data bus for @p duration starting no earlier than
     * @p at, without touching any bank (used by the advanced-HAMS
     * register interface, whose bursts address the ULL-Flash registers
     * that share the channel rather than a DRAM row).
     * @return tick at which the reservation ends.
     */
    Tick occupyBus(Tick at, Tick duration);

    std::uint64_t capacity() const { return _capacity; }
    const Ddr4Timing& timing() const { return _timing; }
    const DramActivity& activity() const { return _activity; }

    /** Close all rows and clear busy state (used on power restore). */
    void reset();

  private:
    struct Bank
    {
        std::int64_t openRow = -1;
        Tick freeAt = 0;
    };

    /** Map an address to (bank index, row number). */
    void decode(Addr addr, std::uint32_t& bank, std::uint64_t& row) const;

    /**
     * Shift/mask decode for power-of-two row buffers and bank counts
     * (every stock speed grade): decode() runs per 64 B burst, so its
     * three divisions are hot. Zero rowShift means "fall back to div".
     */
    std::uint32_t rowShift = 0;
    std::uint32_t bankShift = 0;
    std::uint64_t bankMask = 0;

    /** Time one 64 B burst, updating bank and bus state. */
    Tick burst(Addr addr, MemOp op, Tick at);

    /** O(1) pipelined model for long transfers (> bulkThreshold bursts). */
    DramAccessResult bulkAccess(Addr first, std::uint64_t n_bursts, MemOp op,
                                Tick at);

    /** Transfers longer than this many bursts take the bulk fast path. */
    static constexpr std::uint64_t bulkThreshold = 32;

    Ddr4Timing _timing;
    std::uint64_t _capacity;
    std::vector<Bank> banks;
    Tick busBusyUntil = 0;
    DramActivity _activity;
    bool lastWasRowHit = false;
};

} // namespace hams

#endif // HAMS_DRAM_DRAM_DEVICE_HH_
