/**
 * @file
 * Memory access descriptors shared by every platform model.
 *
 * A MemAccess describes one CPU-visible load or store against the MoS
 * (Memory-over-Storage) address space. Each completed access carries a
 * LatencyBreakdown attributing where its time went; the bench harnesses
 * aggregate those into the paper's Fig. 17/18 stacked bars.
 */

#ifndef HAMS_MEM_REQUEST_HH_
#define HAMS_MEM_REQUEST_HH_

#include <cstdint>
#include <string>

#include "sim/fields.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace hams {

/** Direction of a memory access. */
enum class MemOp : std::uint8_t { Read, Write };

/** One CPU-visible access against a platform's address space. */
struct MemAccess
{
    Addr addr = 0;
    std::uint32_t size = 64;
    MemOp op = MemOp::Read;
};

/**
 * Where the latency of one access (or one run) was spent.
 *
 * Categories follow the paper's breakdowns:
 *  - os:      software stack time (page fault, context switch, fs, blk-mq)
 *  - nvdimm:  DRAM/NVDIMM array access time
 *  - dma:     interface/data-movement time (PCIe or DDR4 transfer, NVMe
 *             protocol handling)
 *  - ssd:     flash-side service time (FTL, channel, tR/tPROG)
 *  - cpu:     compute time (only used by run-level aggregation)
 */
#define HAMS_LATENCY_BREAKDOWN_FIELDS(X) \
    X(sum, Tick, os)                     \
    X(sum, Tick, nvdimm)                 \
    X(sum, Tick, dma)                    \
    X(sum, Tick, ssd)                    \
    X(sum, Tick, cpu)

struct LatencyBreakdown
{
    HAMS_FIELDS(LatencyBreakdown, HAMS_LATENCY_BREAKDOWN_FIELDS)

    Tick total() const { return os + nvdimm + dma + ssd + cpu; }

    LatencyBreakdown&
    operator+=(const LatencyBreakdown& o)
    {
        mergeFields(*this, o);
        return *this;
    }
};

/**
 * Completion callback of one access: (completion tick, attribution).
 *
 * An InlineFunction rather than std::function: completions fire on
 * every simulated access, and captures up to 48 bytes ride inline with
 * no heap allocation (hot-path discipline, ROADMAP.md).
 */
using AccessCb = InlineFunction<void(Tick, const LatencyBreakdown&)>;

class EventQueue;

/**
 * What an access that completed inline reports: {done, breakdown,
 * domain} — the immediate-completion fast path's stand-in for an
 * AccessCb invocation (contract in baselines/platform.hh). @c domain is
 * the event queue access() would have scheduled the completion on, so
 * a caller that cannot deliver inline schedules it there instead.
 */
struct InlineCompletion
{
    Tick done = 0;
    LatencyBreakdown bd;
    EventQueue* domain = nullptr;
};

/** Human-readable op name. */
inline const char*
memOpName(MemOp op)
{
    return op == MemOp::Read ? "read" : "write";
}

} // namespace hams

#endif // HAMS_MEM_REQUEST_HH_
