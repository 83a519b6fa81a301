/**
 * @file
 * Device-side NVMe controller.
 *
 * Reacts to doorbell rings: fetches 64 B submission entries over the
 * host link, drives the SSD, DMAs data between host memory (the PRP
 * target) and the device, posts completions and raises MSI. All timing
 * flows through the link and host-memory models, so the PCIe-vs-DDR4
 * datapath difference between baseline and advanced HAMS falls out of
 * which link/DMA target the controller is wired to.
 */

#ifndef HAMS_NVME_NVME_CONTROLLER_HH_
#define HAMS_NVME_NVME_CONTROLLER_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/request.hh"
#include "mem/sparse_memory.hh"
#include "nvme/queue_pair.hh"
#include "pcie/pcie_link.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "ssd/ssd.hh"

namespace hams {

/**
 * Interface through which device DMA reaches host memory. In the HAMS
 * designs the target is the NVDIMM: the paper's address manager forwards
 * PRP-directed requests straight to it.
 */
class DmaTarget
{
  public:
    virtual ~DmaTarget() = default;

    /** Timed access to host memory at @p addr. */
    virtual Tick dmaAccess(Addr addr, std::uint32_t size, MemOp op,
                           Tick at) = 0;

    /** Functional bytes behind the timed interface (may be null). */
    virtual SparseMemory* dmaData() = 0;
};

/**
 * Where one command's latency went, reported with its completion so the
 * HAMS controller can attribute memory stalls (paper Fig. 18).
 */
struct NvmeCmdTrace
{
    Tick protocol = 0; //!< fetch, decode, CQE, MSI
    Tick dma = 0;      //!< data movement over the link + host memory
    Tick media = 0;    //!< SSD-internal service (buffer/FTL/flash)
};

/**
 * The NVMe controller bound to one SSD.
 *
 * Completion callbacks fire as DES events at the MSI arrival tick;
 * callers (the OS model or the HAMS NVMe engine) pop the CQ there.
 */
class NvmeController
{
  public:
    /** (queue id, completion, original command, latency trace, MSI tick). */
    using CompletionHandler = std::function<void(
        std::uint16_t, const NvmeCompletion&, const NvmeCommand&,
        const NvmeCmdTrace&, Tick)>;

    NvmeController(EventQueue& eq, Ssd& ssd, PcieLink& link,
                   DmaTarget& host);

    /** Register an I/O queue pair. @return its queue id. */
    std::uint16_t attachQueue(QueuePair* qp);

    /** Install the host-side completion handler (MSI vector). */
    void onCompletion(CompletionHandler handler);

    /**
     * Host rang the SQ tail doorbell of @p qid at tick @p at: fetch and
     * execute every pending entry.
     */
    HAMS_HOT_PATH void ringDoorbell(std::uint16_t qid, Tick at);

    /** Number of commands fetched but not yet completed. */
    std::uint32_t outstanding() const { return _outstanding; }

    /**
     * Drop in-flight work (power failure).
     *
     * @p events_dropped must be true iff the owning event queue was
     * reset (its pending events discarded): then the pooled contexts
     * those events referenced are reclaimed here. When the queue keeps
     * running (false), the now-stale events release their own contexts
     * on firing, and reclaiming early would double-free them.
     *
     * The flag is deliberately not defaulted: every caller states
     * which side of the contract it is on, and an inconsistent claim
     * is fatal — `true` while the queue still holds pending events
     * would double-free contexts when those events fire, `false`
     * with an already-empty queue would strand every live context
     * forever.
     */
    HAMS_COLD_PATH void powerFail(bool events_dropped);

    Ssd& ssd() { return _ssd; }

    /** @name Pool introspection (tests/bench). */
    ///@{
    std::size_t cplContextsAllocated() const { return cplPool.totalObjects(); }
    std::size_t dataContextsAllocated() const
    {
        return dataPool.totalObjects();
    }
    ///@}

  private:
    HAMS_HOT_PATH void execute(std::uint16_t qid, const NvmeCommand& cmd,
                               Tick fetched);

    /**
     * Pooled context of one completion (CQE + MSI) event, so the event
     * callback captures only {this, ctx} and stays inside the inline
     * budget.
     */
    struct CplCtx
    {
        std::uint64_t epoch;
        std::uint16_t qid;
        QueuePair* qp;
        NvmeCompletion cqe;
        NvmeCommand cmd;
        NvmeCmdTrace trace;
        Tick msi;
    };

    /** Pooled context of one functional data-landing event. */
    struct DataCtx
    {
        std::uint64_t epoch;
        Addr prp;
        std::uint64_t slba;
        std::uint32_t blocks;
        std::uint64_t bytes;
        bool fua;
        std::vector<std::uint8_t> data; //!< reused; resize is a no-op
    };

    EventQueue& eq;
    Ssd& _ssd;
    PcieLink& link;
    DmaTarget& host;
    std::vector<QueuePair*> queues;
    CompletionHandler handler;
    std::uint32_t _outstanding = 0;
    std::uint64_t epoch = 0; //!< bumped on power failure to orphan events

    ObjectPool<CplCtx> cplPool;
    ObjectPool<DataCtx> dataPool;
    /** Doorbell fetch batch, reused across rings (swap-to-local). */
    std::vector<std::pair<NvmeCommand, Tick>> fetchScratch;
};

} // namespace hams

#endif // HAMS_NVME_NVME_CONTROLLER_HH_
