/**
 * @file
 * HamsSystem: the public face of the library.
 *
 * Assembles NVDIMM + ULL-Flash + link + NVMe controller + pinned region
 * + NVMe engine + HAMS cache logic into one platform, in any of the four
 * paper variants:
 *
 *   hams-LP  loose (PCIe) topology, persist mode
 *   hams-LE  loose (PCIe) topology, extend mode
 *   hams-TP  tight (DDR4 register interface) topology, persist mode
 *   hams-TE  tight topology, extend mode
 *
 * The tight topology unboxes the ULL-Flash: no PCIe encapsulation, no
 * SSD-internal DRAM, DMA straight into the NVDIMM over the shared DDR4
 * channel guarded by the lock register.
 *
 * ## Recovery-path contract (online recovery)
 *
 * Recovery after powerFail() is an event-driven subsystem, not a
 * stop-the-world wall. beginRecovery() starts it and returns at once;
 * recover() is the blocking wrapper that pumps the queue to completion.
 *
 * **Restore bitmap.** The NVDIMM restores itself incrementally
 * (Nvdimm::beginRestore): a per-frame restored-bitmap tracks which
 * restoreFrameBytes-sized frames have streamed back from the on-DIMM
 * flash. A background cursor claims batches in address order; priority
 * restores (Nvdimm::requestRestoreSpan) jump demand-touched frames
 * ahead of the cursor. All restore work serialises on the single
 * on-DIMM stream, so total restore time equals the full-restore RTO —
 * only the order is demand-driven. The NVMe metadata span (SQ/CQ/MSI)
 * is priority-restored first so the journal scan can run early.
 *
 * **Degraded-mode admission.** While recovery is in flight the
 * controller serves traffic degraded: hits on restored frames complete
 * at normal latency; an access to an unrestored frame parks on the
 * frame's pooled wait list behind a priority restore and is never
 * served stale; misses additionally hold on the recovery gate until
 * journal replay has drained (replay rebuilds the SQ in place, slot by
 * slot, and foreground submits must not interleave with its pushes).
 * Replay itself is charged per entry (`replayEntryCost` in
 * hams_controller.cc plus the entry's own restore/IO wait), so RTO
 * scales with the journalled dirty-state size, not just capacity.
 *
 * **Second-failure semantics.** powerFail() during recovery is legal
 * at any event boundary. The NVDIMM re-backs-up only the restored
 * prefix (the remainder is still safe in its on-DIMM flash); the
 * journal — compacted by the replay preparation, with not-yet-replayed
 * entries still tagged — is rescanned by the next beginRecovery(), so
 * a second (or Nth) failure mid-restore or mid-replay loses nothing.
 */

#ifndef HAMS_CORE_HAMS_SYSTEM_HH_
#define HAMS_CORE_HAMS_SYSTEM_HH_

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/platform.hh"
#include "core/hams_controller.hh"
#include "core/nvme_engine.hh"
#include "core/pinned_region.hh"
#include "core/register_interface.hh"
#include "dram/nvdimm.hh"
#include "nvme/nvme_controller.hh"
#include "pcie/pcie_link.hh"
#include "ssd/ssd.hh"

namespace hams {

/** Where the ULL-Flash sits (paper SSIV-C). */
enum class HamsTopology : std::uint8_t {
    Loose, //!< storage box behind PCIe (baseline HAMS)
    Tight, //!< on the DDR4 channel (advanced HAMS)
};

/** Top-level configuration. */
struct HamsSystemConfig
{
    HamsMode mode = HamsMode::Extend;
    HamsTopology topology = HamsTopology::Loose;
    HazardPolicy hazard = HazardPolicy::PrpClone;
    std::uint32_t mosPageBytes = 128 * 1024;
    NvdimmConfig nvdimm;                 //!< 8 GiB DDR4-2133 default
    std::uint64_t ssdRawBytes = 16ull << 30;
    /**
     * ULL-Flash FTL knobs (watermarks, background GC).
     * With backgroundGc the device's garbage collector runs as events
     * on the system queue and contends with miss/eviction traffic.
     */
    FtlConfig ftl;
    std::uint16_t queueEntries = 1024;
    std::uint64_t pinnedBytes = 512ull << 20;
    bool functionalData = true;

    /** The canonical four variants. */
    static HamsSystemConfig loosePersist();
    static HamsSystemConfig looseExtend();
    static HamsSystemConfig tightPersist();
    static HamsSystemConfig tightExtend();
};

/**
 * A fully wired HAMS machine implementing MemoryPlatform.
 */
class HamsSystem : public MemoryPlatform
{
  public:
    explicit HamsSystem(const HamsSystemConfig& cfg);
    ~HamsSystem() override;

    /** @name MemoryPlatform. */
    ///@{
    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return ctrl->mosCapacity(); }
    EventQueue& eventQueue() override { return eq; }
    void access(const MemAccess& acc, Tick at, AccessCb cb) override;
    bool
    tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out) override
    {
        return ctrl->tryAccess(acc, at, out);
    }
    bool persistent() const override { return true; }
    DeviceActivity deviceActivity() const override;
    ///@}

    /** @name Synchronous data-plane helpers (own the event loop). */
    ///@{
    /** Write bytes into the MoS space; returns the completion tick. */
    Tick write(Addr addr, const void* src, std::uint64_t size);

    /** Read bytes back; returns the completion tick. */
    Tick read(Addr addr, void* dst, std::uint64_t size);
    ///@}

    /** @name Power-failure injection. */
    ///@{
    /**
     * Cut power: all in-flight work vanishes, the NVDIMM backs itself
     * up, the ULL-Flash supercap drains its buffer.
     *
     * Idempotent before recover(): a second failure during the
     * failure handling finds the NVDIMM already Protected and the
     * device state already resolved, and changes nothing.
     *
     * @param max_drain_frames fault-injection hook (see
     *        Ssd::powerFail): a second failure cuts the supercap
     *        drain short after this many frames. Default: full drain.
     * @return ticks the ULL-Flash supercap drain took (0 without a
     *         device buffer) — the shutdown-side cost the recovery
     *         bench reports next to the restore-side RTO.
     */
    Tick powerFail(std::uint64_t max_drain_frames = ~std::uint64_t(0));

    /**
     * Boot and run the paper's Fig. 15 recovery (journal scan + replay)
     * to completion: pumps the event queue until the recovery-complete
     * event fires, with a bounded-progress check instead of a dead-man
     * loop — a wedged recovery fatals with the replay/restore cursor
     * state (queue depth, frames restored, entries replayed).
     * @return tick at which the MoS space is fully recovered.
     */
    Tick recover();

    /**
     * Online recovery: start the incremental NVDIMM restore and the
     * per-entry journal replay as events and return immediately. The
     * MoS space is serviceable (degraded) right away — see the
     * recovery-path contract above; @p done fires when restore and
     * replay have both finished. Idempotent on an Operational system
     * (fires @p done at once); fatal if recovery is already in flight.
     */
    void beginRecovery(std::function<void(Tick)> done);

    bool recovering() const { return _recovering; }
    ///@}

    /** @name Introspection. */
    ///@{
    const HamsStats& stats() const { return ctrl->stats(); }
    const NvmeEngineStats& engineStats() const { return engine->stats(); }
    const HamsSystemConfig& config() const { return cfg; }
    HamsController& controller() { return *ctrl; }
    HamsNvmeEngine& nvmeEngine() { return *engine; }
    NvmeController& nvmeController() { return *nvmeCtrl; }
    Ssd& ullFlash() { return *ssd; }
    Nvdimm& nvdimmModule() { return *nvdimm; }
    PinnedRegion& pinnedRegion() { return *pinned; }
    RegisterInterface* registerInterface() { return regIf.get(); }
    ///@}

  private:
    /** DMA adapter: PRP-directed device requests go to the NVDIMM. */
    class NvdimmTarget;

    /** write()/read(): one MoS-page chunk at a time, each run to
     *  completion; @p in is set for a write, @p out for a read. */
    Tick pump(MemOp op, Addr addr, const std::uint8_t* in,
              std::uint8_t* out, std::uint64_t size);

    HamsSystemConfig cfg;
    std::string _name;
    EventQueue eq;
    std::unique_ptr<Nvdimm> nvdimm;
    std::unique_ptr<Ssd> ssd;
    std::unique_ptr<PcieLink> link;
    std::unique_ptr<RegisterInterface> regIf;
    std::unique_ptr<NvdimmTarget> dmaTarget;
    std::unique_ptr<NvmeController> nvmeCtrl;
    std::unique_ptr<PinnedRegion> pinned;
    std::unique_ptr<HamsNvmeEngine> engine;
    std::unique_ptr<HamsController> ctrl;
    bool _recovering = false;
};

} // namespace hams

#endif // HAMS_CORE_HAMS_SYSTEM_HH_
