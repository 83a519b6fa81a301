/**
 * @file
 * NVDIMM-N model: DRAM devices plus a supercapacitor-powered flash
 * backup path (JEDEC DDR4 NVDIMM-N design standard).
 *
 * During normal operation the module is indistinguishable from an
 * RDIMM. On power failure the on-DIMM controller isolates the DRAM via
 * multiplexers and streams its contents to the on-DIMM flash; on the
 * next boot it restores them. Both take tens of seconds for an 8 GB
 * module, which the model reproduces from the backup bandwidth.
 *
 * Restore is incremental (beginRestore()): the module restores
 * itself restoreFrameBytes at a time as events on the caller's queue,
 * tracking progress in a per-frame restored-bitmap. Accesses to
 * restored frames are legal mid-restore; an access to an unrestored
 * frame is a model bug (the caller must stall it) and is fatal.
 * requestRestoreSpan() jumps a frame ahead of the background cursor —
 * the on-demand path a stalled access rides. All restore work (cursor
 * batches and priority frames) serialises on the one on-DIMM flash
 * stream, so the total restore time is fullRestoreTicks() whatever
 * the order; only the order is demand-driven.
 */

#ifndef HAMS_DRAM_NVDIMM_HH_
#define HAMS_DRAM_NVDIMM_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "dram/memory_controller.hh"
#include "mem/sparse_memory.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace hams {

/** Configuration for an NVDIMM-N module. */
struct NvdimmConfig
{
    std::uint64_t capacity = 8ull << 30;
    /** On-DIMM backup flash streaming bandwidth (bytes/s). */
    double backupBandwidth = 400e6;
    /** Whether to allocate a functional backing store. */
    bool functionalData = true;
};

/**
 * A persistent DDR4 module. Exposes timing via the embedded controller
 * and data via an optional functional store; powerFail()/beginRestore()
 * drive the backup/restore state machine.
 */
class Nvdimm
{
  public:
    enum class State { Operational, BackingUp, Protected, Restoring };

    /** Restored-frame announcement: (first frame, frame count, tick). */
    using RestoreNotify =
        InlineFunction<void(std::uint64_t, std::uint64_t, Tick)>;
    /** Restore-complete announcement. */
    using RestoreDone = InlineFunction<void(Tick)>;

    /** Incremental-restore granule (restored-bitmap frame size). */
    static constexpr std::uint32_t restoreFrameBytes = 1u << 20;

    explicit Nvdimm(const NvdimmConfig& cfg);

    /**
     * Timed access; legal while Operational, or while Restoring if the
     * touched span is already restored (the caller stalls accesses to
     * unrestored frames — serving them would return stale bytes).
     */
    HAMS_HOT_PATH Tick access(Addr addr, std::uint32_t size, MemOp op, Tick at);

    /** @name Functional data plane (null if functionalData=false). */
    ///@{
    SparseMemory* data() { return store.get(); }
    const SparseMemory* data() const { return store.get(); }
    ///@}

    /**
     * Simulate loss of host power. The supercap keeps the module alive
     * while DRAM contents stream to the on-DIMM flash. Legal while
     * Operational (full backup) or Restoring (second failure
     * mid-restore: only the restored prefix may carry fresh writes, so
     * the re-backup cost is proportional to the frames restored; the
     * unrestored remainder is still safe in the on-DIMM flash).
     * @return time the backup takes.
     */
    HAMS_COLD_PATH Tick powerFail();

    /** @name Incremental restore engine. */
    ///@{
    /**
     * Begin an event-driven restore on @p eq. The background cursor
     * claims a few frames at a time; each batch commits at the
     * tick the on-DIMM stream finishes it, fires @p notify, and chains
     * the next claim. When every frame is restored the module flips to
     * Operational and @p done fires. Fatal with context unless
     * Protected — in particular a double restore (already
     * Operational) is a caller bug, mirroring the component-level
     * powerFail contract.
     */
    HAMS_COLD_PATH void beginRestore(EventQueue& eq, Tick at, RestoreNotify notify,
                      RestoreDone done);

    /**
     * Priority restore: queue every unclaimed frame covering
     * [@p addr, @p addr + @p size) on the restore stream ahead of the
     * background cursor. Returns the tick by which the whole span is
     * restored (>= @p at; == @p at when already Operational). Frames
     * already claimed or committed keep their existing schedule.
     */
    HAMS_HOT_PATH Tick requestRestoreSpan(Addr addr, std::uint64_t size, Tick at);

    /** True when [@p addr, @p addr + @p size) is safe to access. */
    HAMS_HOT_PATH bool spanRestored(Addr addr, std::uint64_t size) const;

    std::uint64_t restoreFrames() const { return framesTotal; }
    std::uint64_t framesRestored() const { return framesDone; }
    std::uint64_t restoreCursorFrame() const { return claimCursor; }
    /** Priority-restore requests that jumped the cursor. */
    std::uint64_t priorityRestores() const { return _priorityRestores; }
    /** Cost of restoring every frame (the RTO restore floor). */
    Tick fullRestoreTicks() const { return Tick(framesTotal) * tpf; }
    ///@}

    State state() const { return _state; }
    const char* stateName() const;
    bool contentsPreserved() const { return preserved; }
    std::uint64_t capacity() const { return cfg.capacity; }
    MemoryController& controller() { return ctrl; }
    const MemoryController& controller() const { return ctrl; }

  private:
    /** Claim and schedule the next background cursor batch. */
    HAMS_COLD_PATH void scheduleCursorBatch(Tick at);

    /** A restore span finished streaming: mark it and move on. */
    HAMS_COLD_PATH void commitFrames(std::uint32_t gen, std::uint64_t first,
                      std::uint64_t count, bool chain_cursor);

    void setRestored(std::uint64_t frame)
    {
        restoredBits[frame >> 6] |= 1ull << (frame & 63);
    }

    bool isRestored(std::uint64_t frame) const
    {
        return (restoredBits[frame >> 6] >> (frame & 63)) & 1;
    }

    NvdimmConfig cfg;
    MemoryController ctrl;
    std::unique_ptr<SparseMemory> store;
    State _state = State::Operational;
    bool preserved = false;

    /**
     * Restore-engine bookkeeping (mirrors the on-DIMM controller's
     * progress registers; pre-sized in the constructor so the restore
     * path never allocates). frameAvail holds maxTick for unclaimed
     * frames and the stream-commit tick once claimed; busyUntil is the
     * tail of the single on-DIMM flash stream all restore work shares.
     * restoreGen invalidates in-flight commit events across a power
     * failure (belt and braces on top of the queue reset).
     */
    std::vector<std::uint64_t> restoredBits;
    std::vector<Tick> frameAvail;
    std::uint64_t framesTotal = 0;
    std::uint64_t framesDone = 0;
    std::uint64_t claimCursor = 0;
    Tick busyUntil = 0;
    Tick tpf = 0; //!< stream time per restore frame
    std::uint32_t restoreGen = 0;
    std::uint64_t _priorityRestores = 0;
    EventQueue* restoreEq = nullptr;
    RestoreNotify notifyCb;
    RestoreDone doneCb;
};

} // namespace hams

#endif // HAMS_DRAM_NVDIMM_HH_
