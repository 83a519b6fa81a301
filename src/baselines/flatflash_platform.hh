/**
 * @file
 * FlatFlash baseline (Abulila et al., ASPLOS'19), as configured in the
 * paper's evaluation:
 *
 *  - flatflash-P exposes the ULL-Flash as a byte-addressable device over
 *    MMIO: every cache-line access crosses PCIe to the SSD-internal
 *    DRAM (and to flash on an internal miss). No NVMe queueing, so no
 *    device parallelism, but full persistence. A 64 B access costs
 *    ~4.8 us, over 40x DRAM (paper SSVI-B).
 *  - flatflash-M additionally promotes hot pages into 8 GB of host
 *    DRAM, trading persistence for speed.
 */

#ifndef HAMS_BASELINES_FLATFLASH_PLATFORM_HH_
#define HAMS_BASELINES_FLATFLASH_PLATFORM_HH_

#include <memory>
#include <string>

#include "baselines/platform.hh"
#include "dram/memory_controller.hh"
#include "pcie/pcie_link.hh"
#include "sim/direct_table.hh"
#include "ssd/dram_buffer.hh"
#include "ssd/ssd.hh"

namespace hams {

/** FlatFlash configuration. */
struct FlatFlashConfig
{
    /** True = flatflash-M (host-side page promotion). */
    bool hostCaching = false;
    std::uint64_t hostDramBytes = 8ull << 30;
    std::uint64_t ssdRawBytes = 16ull << 30;
    /** MMIO round-trip processing beyond raw link latency. */
    Tick mmioOverhead = microseconds(1.0);
    /** Promote a page after this many touches (flatflash-M). */
    std::uint32_t promoteThreshold = 2;
};

/** FlatFlash platform (both -P and -M flavours). */
class FlatFlashPlatform : public MemoryPlatform
{
  public:
    explicit FlatFlashPlatform(const FlatFlashConfig& cfg);
    ~FlatFlashPlatform() override;

    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return _capacity; }
    EventQueue& eventQueue() override { return eq; }
    HAMS_HOT_PATH bool tryAccess(const MemAccess& acc, Tick at,
                                 InlineCompletion& out) override;
    /** Host-cached pages make -M non-persistent (paper SSVII). */
    bool persistent() const override { return !cfg.hostCaching; }
    DeviceActivity deviceActivity() const override;

    std::uint64_t promotions() const { return _promotions; }
    std::uint64_t hostHits() const { return _hostHits; }

  private:
    FlatFlashConfig cfg;
    std::string _name;
    std::uint64_t _capacity;
    EventQueue eq;
    std::unique_ptr<Ssd> ssd;
    std::unique_ptr<PcieLink> link;
    std::unique_ptr<MemoryController> hostDram;
    std::unique_ptr<DramBuffer> hostCacheTags;
    /** Pages resident in the SSD-internal DRAM (MMIO serving cache). */
    std::unique_ptr<DramBuffer> internalTags;
    /** Per-page touch counters for -M's promotion policy,
     *  direct-indexed by page (sim/direct_table.hh). */
    DirectTable<std::uint32_t> touches;
    std::uint64_t _promotions = 0;
    std::uint64_t _hostHits = 0;
};

} // namespace hams

#endif // HAMS_BASELINES_FLATFLASH_PLATFORM_HH_
