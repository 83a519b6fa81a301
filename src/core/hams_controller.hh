/**
 * @file
 * The HAMS cache logic: the address manager that turns an NVDIMM plus a
 * ULL-Flash into one large Memory-over-Storage address space (paper
 * SSIV/SSV).
 *
 * Responsibilities:
 *  - serve MMU requests against the direct-mapped NVDIMM cache (the tag
 *    travels with the data line, so a probe is one NVDIMM access);
 *  - on a miss, compose the eviction (dirty victim) and fill commands
 *    and hand them to the hardware NVMe engine;
 *  - hazard control: per-frame busy bit + wait queue, PRP-pool page
 *    cloning so in-flight DMA never observes a torn frame, and
 *    redundant-eviction suppression (paper Figs. 13/14);
 *  - persist mode (FUA on every I/O, single outstanding command) versus
 *    extend mode (full NVMe parallelism + journal-tag recovery);
 *  - power-failure recovery orchestration (paper Fig. 15).
 *
 * Hot-path discipline: the per-access machinery is allocation-free in
 * steady state. Each in-flight access rides a pooled Op context
 * (event callbacks capture just {this, op}); parked requests live in
 * per-frame intrusive lists drawn from a waiter arena; and the PRP
 * clone staging copy reuses pooled 128 KiB buffers.
 */

#ifndef HAMS_CORE_HAMS_CONTROLLER_HH_
#define HAMS_CORE_HAMS_CONTROLLER_HH_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/mos_tag_array.hh"
#include "sim/annotations.hh"
#include "core/nvme_engine.hh"
#include "core/pinned_region.hh"
#include "dram/nvdimm.hh"
#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/fields.hh"
#include "sim/pool.hh"

namespace hams {

/** Operating mode (paper SSVI-A platform list). */
enum class HamsMode : std::uint8_t {
    Persist, //!< FUA per I/O, at most one outstanding command
    Extend,  //!< parallel NVMe queues + journal-tag persistency control
};

/** How the controller protects the frame under DMA. */
enum class HazardPolicy : std::uint8_t {
    PrpClone,           //!< clone the page into the PRP pool (the paper)
    SerializeEvictFill, //!< no clone; fill waits for the eviction
    Unprotected,        //!< no clone, no ordering: demonstrates the hazard
};

/** Controller configuration. */
struct HamsControllerConfig
{
    std::uint32_t pageBytes = 128 * 1024; //!< MoS page (Table II)
    HamsMode mode = HamsMode::Extend;
    HazardPolicy hazard = HazardPolicy::PrpClone;
    /**
     * True when the platform carries real bytes end to end (functional
     * SSD). Timing-only runs skip the PRP-clone byte copy: the NVDIMM
     * store always exists for the pinned region, but with a
     * non-functional SSD nothing ever reads the cloned frame, so the
     * 2x page-size memcpy per dirty miss would be pure host-side
     * overhead. The clone's *timing* is charged either way.
     */
    bool functionalData = true;
};

/** Aggregate controller statistics. */
#define HAMS_CONTROLLER_STATS_FIELDS(X)                                    \
    X(sum, std::uint64_t, accesses)                                        \
    X(sum, std::uint64_t, hits)                                            \
    X(sum, std::uint64_t, misses)                                          \
    X(sum, std::uint64_t, fills)                                           \
    X(sum, std::uint64_t, cleanVictims)                                    \
    X(sum, std::uint64_t, dirtyEvictions)                                  \
    X(sum, std::uint64_t, prpClones)                                       \
    /* accesses parked on busy bit */                                      \
    X(sum, std::uint64_t, waitQueued)                                      \
    X(sum, std::uint64_t, redundantEvictionsAvoided)                       \
    /* misses serialised by persist */                                     \
    X(sum, std::uint64_t, persistGateWaits)                                \
    /* Contention depth (SMP runs). How hard cores pile on shared          \
     * structures: the deepest wait list any single frame ever grew        \
     * (concurrent accesses parked on one busy frame) and the deepest      \
     * the persist-mode gate queue ever got. Both stay 0/1-ish for a       \
     * single in-order core and grow with core count under contention. */ \
    X(max, std::uint64_t, waiterPeakDepth)                                 \
    X(max, std::uint64_t, gateQueuePeakDepth)                              \
    X(sum, std::uint64_t, replayedCommands)                                \
    /* Degraded-service mode (online recovery). Accesses admitted          \
     * while recovery is in flight; the subset that touched a frame the    \
     * restore cursor had not reached (parked until its priority restore   \
     * lands); and misses held until journal replay drained the SQ. */     \
    X(sum, std::uint64_t, degradedAccesses)                                \
    X(sum, std::uint64_t, restoreStalls)                                   \
    X(sum, std::uint64_t, recoveryGateWaits)                               \
    /* summed across accesses */                                           \
    X(sum, LatencyBreakdown, memoryDelay)

struct HamsStats
{
    HAMS_FIELDS(HamsStats, HAMS_CONTROLLER_STATS_FIELDS)
};

/**
 * The HAMS controller. Asynchronous: completion callbacks fire as DES
 * events. Byte payloads are optional; when supplied they flow through
 * the NVDIMM's functional store so integrity is checkable end to end.
 */
class HamsController
{
  public:
    using AccessCb = hams::AccessCb;

    HamsController(EventQueue& eq, Nvdimm& nvdimm, HamsNvmeEngine& engine,
                   PinnedRegion& pinned, std::uint64_t mos_capacity,
                   const HamsControllerConfig& cfg);

    /** Total byte-addressable MoS capacity exposed to the MMU. */
    std::uint64_t mosCapacity() const { return _mosCapacity; }

    std::uint32_t pageBytes() const { return cfg.pageBytes; }
    const MosTagArray& tagArray() const { return tags; }
    const HamsStats& stats() const { return _stats; }
    const HamsControllerConfig& config() const { return cfg; }

    /**
     * One MMU request. @p wdata (writes) and @p rdata (reads) may be
     * null for timing-only runs; @p rdata is filled at completion time.
     */
    HAMS_HOT_PATH void access(const MemAccess& acc, const std::uint8_t* wdata,
                std::uint8_t* rdata, Tick at, AccessCb cb);

    /** Timing-only convenience overload. */
    HAMS_HOT_PATH void
    access(const MemAccess& acc, Tick at, AccessCb cb)
    {
        access(acc, nullptr, nullptr, at, std::move(cb));
    }

    /**
     * Immediate-completion fast path (contract in baselines/
     * platform.hh): completes timing-only hits on an idle frame —
     * valid, tag match, no busy bit, hence no parked waiters — inline
     * in either mode, through access()'s own serveHit(). Anything that
     * needs I/O, and any access during recovery, returns false
     * untouched. Hits never touch the persist gate.
     *
     * Background GC in the ULL-Flash needs no special casing here: a
     * hit never touches the SSD, so a pending GC step cannot change
     * it, and misses — whose latency sees GC interference through the
     * FIL's channel/die accounting — always take the event path. On
     * true, out.domain is the controller's queue, where access() puts
     * its completion.
     */
    HAMS_HOT_PATH bool tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out);

    /** Drop volatile state (wait queue, persist gate) on power failure. */
    HAMS_COLD_PATH void onPowerFail();

    /**
     * @name Online recovery (paper Fig. 15, event-driven).
     *
     * beginRecovery() starts the journal scan + per-entry replay as
     * scheduled events and flips the controller into degraded-service
     * mode; @p done fires once replay has drained AND the NVDIMM
     * restore has completed. The caller must have put the NVDIMM into
     * its incremental restore (Nvdimm::beginRestore) first and wire
     * onFramesRestored()/onRestoreComplete() to its callbacks.
     *
     * Degraded-mode admission (enforced in access()):
     *  - hits on restored frames complete at normal latency;
     *  - an access to an unrestored frame is parked on the frame's
     *    pooled wait list and a priority restore is queued — it is
     *    NEVER served stale;
     *  - misses are additionally held on the recovery gate until every
     *    journalled entry has been re-pushed (the replay rebuilds the
     *    SQ in place, so foreground submits must not interleave).
     */
    ///@{
    HAMS_COLD_PATH void beginRecovery(Tick at, std::function<void(Tick)> done);

    /** NVDIMM restore-cursor progress: wake stalls the span unblocks. */
    HAMS_COLD_PATH void onFramesRestored(std::uint64_t first_frame,
                          std::uint64_t frame_count, Tick at);

    /** NVDIMM restore finished; recovery completes once replay drains. */
    HAMS_COLD_PATH void onRestoreComplete(Tick at);

    bool recovering() const { return _recovering; }

    /** True while replayed entries are issued but not all completed. */
    bool replayInFlight() const
    {
        return _recovering && rec.scanned && rec.total > 0 &&
               rec.issued > 0 && rec.completed < rec.total;
    }

    std::size_t recoveryReplayTotal() const { return rec.total; }
    std::size_t recoveryReplayCompleted() const { return rec.completed; }
    ///@}

    /** @name Pool introspection (tests/bench). */
    ///@{
    std::size_t stagingFramesAllocated() const
    {
        return staging.totalFrames();
    }
    std::size_t opContextsAllocated() const { return opPool.totalObjects(); }
    ///@}

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    /**
     * Pooled context of one in-flight access. All per-access state
     * lives here so event and completion callbacks capture only
     * {this, op} — 16 bytes, well inside the inline-callback budget.
     */
    struct Op
    {
        MemAccess acc;
        const std::uint8_t* wdata;
        std::uint8_t* rdata;
        std::uint64_t idx;    //!< cache frame (computed once in access())
        std::uint64_t newTag; //!< tag after the fill lands
        Tick reqAt;           //!< miss submit time (device-held check)
        Tick done;            //!< completion tick
        LatencyBreakdown bd;
        AccessCb cb;
    };

    /** One parked request in a per-frame intrusive wait list. */
    struct Waiter
    {
        MemAccess acc;
        const std::uint8_t* wdata;
        std::uint8_t* rdata;
        AccessCb cb;
        std::uint32_t next;
    };

    /** Persist-gate / eviction-chain thunk (inline capture). */
    using GateThunk = InlineFunction<void(Tick)>;

    /** NVDIMM byte address of cache frame @p idx. */
    HAMS_HOT_PATH Addr frameAddr(std::uint64_t idx) const
    {
        return Addr(idx) * cfg.pageBytes;
    }

    /** NVDIMM line @p acc touches once its page sits in frame @p idx. */
    HAMS_HOT_PATH Addr lineAddr(const MemAccess& acc, std::uint64_t idx) const
    {
        return frameAddr(idx) + acc.addr % cfg.pageBytes;
    }

    /** Capacity and page-crossing checks; returns the cache frame. */
    HAMS_HOT_PATH std::uint64_t frameOf(const MemAccess& acc) const;

    /** First LBA of the MoS page containing @p mos_addr. */
    HAMS_HOT_PATH std::uint64_t slbaOf(Addr mos_page_addr) const
    {
        return mos_page_addr / nvmeBlockSize;
    }

    HAMS_HOT_PATH std::uint32_t blocksPerPage() const
    {
        return cfg.pageBytes / nvmeBlockSize;
    }

    /** Build a pooled Op for a new request. */
    HAMS_HOT_PATH Op* makeOp(const MemAccess& acc, const std::uint8_t* wdata,
               std::uint8_t* rdata, std::uint64_t idx, AccessCb cb);

    HAMS_HOT_PATH void handleMiss(Op* op, Tick at);

    /** A recovery-gated miss re-decides hit/park/miss at drain time. */
    HAMS_COLD_PATH void retryMiss(Op* op, Tick at);

    /** Final NVDIMM access of a request, charged to @p bd and stats. */
    HAMS_HOT_PATH Tick serveLine(const MemAccess& acc, std::uint64_t idx,
                                 Tick at, LatencyBreakdown& bd);

    /** A hit: logic latency plus serveLine(). Event and inline paths. */
    HAMS_HOT_PATH Tick serveHit(const MemAccess& acc, std::uint64_t idx,
                                Tick at, LatencyBreakdown& bd);

    /** Move functional bytes and schedule @p op's completion at @p done. */
    HAMS_HOT_PATH void complete(Op* op, Tick done);

    /** Issue fill (and possibly eviction) for a missing page. */
    HAMS_HOT_PATH void startMissIo(Op* op, Tick at);

    /** Submit the demand fill of @p op. */
    HAMS_HOT_PATH void submitFill(Op* op, Tick t);

    /** Fill landed: install the tag, serve the line, wake waiters. */
    HAMS_HOT_PATH void onFillDone(Op* op, const NvmeCmdTrace& trace, Tick when);

    /** Persist-mode gate: run thunks one I/O at a time. */
    HAMS_HOT_PATH void gateSubmit(Tick at, GateThunk thunk);
    HAMS_HOT_PATH void gateRelease(Tick at);

    /** Park a request on frame @p idx's wait list. */
    HAMS_HOT_PATH void parkWaiter(const MemAccess& acc, const std::uint8_t* wdata,
                    std::uint8_t* rdata, std::uint64_t idx, AccessCb cb);

    /** Wake accesses parked on @p idx. */
    HAMS_HOT_PATH void drainWaiters(std::uint64_t idx, Tick at);

    /** @name Recovery replay chain (one entry at a time). */
    ///@{
    /** Journal scan + SQ compaction once the metadata span is back. */
    HAMS_COLD_PATH void startReplay(Tick at);

    /** Charge the per-entry replay cost (`replayEntryCost` in
     *  hams_controller.cc) and wait out the entry's target frame. */
    HAMS_COLD_PATH void scheduleNextReplayEntry(Tick at);

    HAMS_COLD_PATH void issueReplayEntry(Tick at);
    HAMS_COLD_PATH void onReplayEntryDone(const NvmeCommand& cmd, Tick when);
    HAMS_COLD_PATH void finishReplay(Tick at);

    /** Fire the recovery-done callback once replay AND restore ended. */
    HAMS_COLD_PATH void maybeFinishRecovery(Tick at);

    /** Misses must hold until the replay re-pushes rebuilt the SQ. */
    bool replayHolding() const
    {
        return _recovering && (!rec.scanned || rec.completed < rec.total);
    }
    ///@}

    EventQueue& eq;
    Nvdimm& nvdimm;
    HamsNvmeEngine& engine;
    PinnedRegion& pinned;
    HamsControllerConfig cfg;
    std::uint64_t _mosCapacity;
    MosTagArray tags;
    HamsStats _stats;

    ObjectPool<Op> opPool;
    FrameBufferPool staging; //!< PRP-clone staging copies (pageBytes each)

    /** Waiter arena + per-frame intrusive list heads/tails. */
    std::vector<Waiter> waiterPool;
    std::uint32_t waiterFreeHead = nil;
    std::vector<std::uint32_t> waitHead;
    std::vector<std::uint32_t> waitTail;
    std::vector<std::uint32_t> waitDepth; //!< current waiters per frame

    /** Persist-mode serialisation. */
    bool gateBusy = false;
    std::deque<GateThunk> gateQueue;

    /**
     * Online-recovery state. rec.entries is the journal scan snapshot
     * (also the compaction order: entry i occupies SQ slot i until its
     * re-push supersedes it); issued/completed drive the serial
     * per-entry replay chain. recoveryGate holds misses that arrived
     * while the replay still owned the SQ.
     */
    struct RecoveryState
    {
        std::vector<NvmeCommand> entries;
        std::size_t issued = 0;
        std::size_t completed = 0;
        std::size_t total = 0;
        bool scanned = false;
        std::function<void(Tick)> done;
    };
    RecoveryState rec;
    bool _recovering = false;
    bool restoreDone = false;
    std::deque<GateThunk> recoveryGate;
};

} // namespace hams

#endif // HAMS_CORE_HAMS_CONTROLLER_HH_
