#include "core/hams_system.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "ssd/device_configs.hh"

namespace hams {

HamsSystemConfig
HamsSystemConfig::loosePersist()
{
    HamsSystemConfig c;
    c.mode = HamsMode::Persist;
    c.topology = HamsTopology::Loose;
    return c;
}

HamsSystemConfig
HamsSystemConfig::looseExtend()
{
    HamsSystemConfig c;
    c.mode = HamsMode::Extend;
    c.topology = HamsTopology::Loose;
    return c;
}

HamsSystemConfig
HamsSystemConfig::tightPersist()
{
    HamsSystemConfig c;
    c.mode = HamsMode::Persist;
    c.topology = HamsTopology::Tight;
    return c;
}

HamsSystemConfig
HamsSystemConfig::tightExtend()
{
    HamsSystemConfig c;
    c.mode = HamsMode::Extend;
    c.topology = HamsTopology::Tight;
    return c;
}

/**
 * DMA adapter routing PRP-directed device accesses to the NVDIMM. In
 * the tight topology each bulk DMA brackets the access with the lock
 * register so the NVMe controller and the cache logic never drive the
 * shared channel simultaneously.
 */
class HamsSystem::NvdimmTarget : public DmaTarget
{
  public:
    /** MCH forwarding latency for PRP-directed NVMe requests. */
    static constexpr Tick mchForwardLatency = nanoseconds(20);

    NvdimmTarget(Nvdimm& nvdimm, RegisterInterface* reg_if)
        : nvdimm(nvdimm), regIf(reg_if)
    {
    }

    Tick
    dmaAccess(Addr addr, std::uint32_t size, MemOp op, Tick at) override
    {
        Tick t = at + mchForwardLatency;
        // Queue-entry traffic (SQE/CQE) is latency-only: it rides the
        // command path and must not queue behind bulk page DMA.
        if (size <= 64)
            return t + nanoseconds(60);
        if (regIf) {
            t = regIf->acquireLock(t);
            Tick done = nvdimm.access(addr, size, op, t);
            regIf->releaseLock(done);
            return done;
        }
        return nvdimm.access(addr, size, op, t);
    }

    SparseMemory* dmaData() override { return nvdimm.data(); }

  private:
    Nvdimm& nvdimm;
    RegisterInterface* regIf;
};

namespace {

/** The tight topology has no PCIe: transfers ride the DDR4 channel the
 *  NVDIMM access itself already pays for, so the "link" is just the
 *  register-latch latency. */
LinkConfig
onChannelLink()
{
    LinkConfig c;
    c.bandwidth = 1e12; // not the bottleneck: DDR4 occupancy is charged
    c.maxPayload = 4096;
    c.headerBytes = 0;
    c.propagation = nanoseconds(15);
    c.fullDuplex = true;
    return c;
}

std::string
variantName(const HamsSystemConfig& cfg)
{
    std::string n = "hams-";
    n += cfg.topology == HamsTopology::Loose ? 'L' : 'T';
    n += cfg.mode == HamsMode::Persist ? 'P' : 'E';
    return n;
}

} // namespace

HamsSystem::HamsSystem(const HamsSystemConfig& cfg)
    : cfg(cfg), _name(variantName(cfg))
{
    if (!cfg.nvdimm.functionalData)
        fatal("HamsSystemConfig::nvdimm.functionalData is false, but the "
              "pinned region keeps its data in the NVDIMM's data plane");
    nvdimm = std::make_unique<Nvdimm>(cfg.nvdimm);

    // Advanced HAMS removes the SSD-internal DRAM and adds supercaps;
    // baseline HAMS keeps the stock device but (per SSIV-B) also gains
    // supercaps so extend mode can trust the buffer.
    bool with_buffer = cfg.topology == HamsTopology::Loose;
    SsdConfig scfg = ullFlashConfig(cfg.ssdRawBytes, cfg.functionalData,
                                    /*with_supercap=*/true, with_buffer);
    scfg.ftl = cfg.ftl;
    ssd = std::make_unique<Ssd>(scfg, &eq);

    link = std::make_unique<PcieLink>(cfg.topology == HamsTopology::Loose
                                          ? ullFlashLink()
                                          : onChannelLink());

    if (cfg.topology == HamsTopology::Tight)
        regIf = std::make_unique<RegisterInterface>(*nvdimm);

    dmaTarget = std::make_unique<NvdimmTarget>(*nvdimm, regIf.get());
    nvmeCtrl = std::make_unique<NvmeController>(eq, *ssd, *link,
                                                *dmaTarget);

    PinnedRegionConfig pcfg;
    pcfg.size = cfg.pinnedBytes;
    pcfg.queueEntries = cfg.queueEntries;
    pcfg.prpFrameBytes = cfg.mosPageBytes;
    pinned = std::make_unique<PinnedRegion>(*nvdimm, pcfg);

    engine = std::make_unique<HamsNvmeEngine>(eq, *nvmeCtrl, *pinned,
                                              regIf.get());

    HamsControllerConfig ccfg;
    ccfg.pageBytes = cfg.mosPageBytes;
    ccfg.mode = cfg.mode;
    ccfg.hazard = cfg.hazard;
    ccfg.functionalData = cfg.functionalData;
    std::uint64_t mos_capacity =
        ssd->capacityBytes() / cfg.mosPageBytes * cfg.mosPageBytes;
    ctrl = std::make_unique<HamsController>(eq, *nvdimm, *engine, *pinned,
                                            mos_capacity, ccfg);

    inform(_name, ": MoS pool ", mos_capacity >> 20, " MiB, NVDIMM cache ",
           pinned->cacheBytes() >> 20, " MiB, page ",
           cfg.mosPageBytes >> 10, " KiB");
}

HamsSystem::~HamsSystem() = default;

void
HamsSystem::access(const MemAccess& acc, Tick at, AccessCb cb)
{
    ctrl->access(acc, at, std::move(cb));
}

Tick
HamsSystem::write(Addr addr, const void* src, std::uint64_t size)
{
    return pump(MemOp::Write, addr, static_cast<const std::uint8_t*>(src),
                nullptr, size);
}

Tick
HamsSystem::read(Addr addr, void* dst, std::uint64_t size)
{
    return pump(MemOp::Read, addr, nullptr, static_cast<std::uint8_t*>(dst),
                size);
}

Tick
HamsSystem::pump(MemOp op, Addr addr, const std::uint8_t* in,
                 std::uint8_t* out, std::uint64_t size)
{
    Tick t = eq.now();
    for (std::uint64_t off = 0; off < size;) {
        std::uint64_t in_page =
            cfg.mosPageBytes - (addr + off) % cfg.mosPageBytes;
        auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(size - off, in_page));
        bool done = false;
        Tick when = 0;
        MemAccess acc{addr + off, chunk, op};
        ctrl->access(acc, in ? in + off : nullptr, out ? out + off : nullptr,
                     t, [&](Tick w, const LatencyBreakdown&) {
                         done = true;
                         when = w;
                     });
        while (!done && eq.step()) {
        }
        if (!done)
            panic(op == MemOp::Write ? "HamsSystem::write never completed"
                                     : "HamsSystem::read never completed");
        t = when;
        off += chunk;
    }
    return t;
}

Tick
HamsSystem::powerFail(std::uint64_t max_drain_frames)
{
    // In-flight events evaporate with the power.
    eq.reset(false);
    nvmeCtrl->powerFail(/*events_dropped=*/true);
    engine->onPowerFail();
    ctrl->onPowerFail();
    Tick drain = ssd->powerFail(max_drain_frames);
    // A second failure during the failure handling itself finds the
    // NVDIMM already isolated and backed up (Protected): nothing left
    // to do for it, and the component-level state machine would
    // rightly reject the call. A failure *during recovery* finds it
    // Restoring: it re-backs-up the restored prefix.
    if (nvdimm->state() == Nvdimm::State::Operational ||
        nvdimm->state() == Nvdimm::State::Restoring)
        nvdimm->powerFail();
    link->reset();
    _recovering = false;
    return drain;
}

void
HamsSystem::beginRecovery(std::function<void(Tick)> done)
{
    if (_recovering)
        fatal("beginRecovery while a recovery is already in flight");
    Tick at = eq.now();
    if (nvdimm->state() == Nvdimm::State::Operational) {
        // Nothing failed (or recovery already completed): idempotent.
        if (done)
            done(at);
        return;
    }
    _recovering = true;
    ssd->powerRestore();
    nvdimm->beginRestore(
        eq, at,
        [this](std::uint64_t first, std::uint64_t count, Tick when) {
            ctrl->onFramesRestored(first, count, when);
        },
        [this](Tick when) { ctrl->onRestoreComplete(when); });
    ctrl->beginRecovery(at, [this, done = std::move(done)](Tick when) {
        _recovering = false;
        if (done)
            done(when);
    });
}

Tick
HamsSystem::recover()
{
    bool done = false;
    Tick when = eq.now();
    beginRecovery([&](Tick t) {
        done = true;
        when = t;
    });

    // Pump to completion with a bounded-progress check: every window
    // of events, something must have moved — the restore cursor, the
    // replay chain, or simulated time. A wedged recovery dumps its
    // cursor state instead of spinning forever.
    constexpr std::uint64_t window = 1u << 16;
    std::uint64_t steps = 0;
    std::uint64_t last_frames = ~std::uint64_t(0);
    std::uint64_t last_replayed = ~std::uint64_t(0);
    Tick last_now = maxTick;
    while (!done && eq.step()) {
        if (++steps < window)
            continue;
        steps = 0;
        std::uint64_t frames = nvdimm->framesRestored();
        std::uint64_t replayed = ctrl->recoveryReplayCompleted();
        if (frames == last_frames && replayed == last_replayed &&
            eq.now() == last_now)
            fatal("HAMS recovery stalled: no progress over ", window,
                  " events (queue depth ", eq.pending(),
                  ", frames restored ", frames, "/",
                  nvdimm->restoreFrames(), ", cursor at ",
                  nvdimm->restoreCursorFrame(), ", replay ", replayed,
                  "/", ctrl->recoveryReplayTotal(), " entries)");
        last_frames = frames;
        last_replayed = replayed;
        last_now = eq.now();
    }
    if (!done)
        fatal("HAMS recovery queue drained incomplete (frames restored ",
              nvdimm->framesRestored(), "/", nvdimm->restoreFrames(),
              ", cursor at ", nvdimm->restoreCursorFrame(), ", replay ",
              ctrl->recoveryReplayCompleted(), "/",
              ctrl->recoveryReplayTotal(), " entries)");
    return when;
}

DeviceActivity
HamsSystem::deviceActivity() const
{
    return {nvdimm->controller().device().activity(), 2,
            ssd->bufferActivity(), ssd->config().hasBuffer ? 1u : 0u,
            ssd->flashActivity(), ssd->config().geom.dies(),
            FlashMedia::ZNand};
}

} // namespace hams
