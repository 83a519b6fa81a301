/**
 * @file
 * The MMF (memory-mapped file) software baseline: the paper's `mmap`
 * platform (SSII-B, SSIII-B).
 *
 * NVDIMM/DRAM capacity is expanded over an SSD through the Linux mmap
 * path: a page-cache hit is a plain DRAM access, while a miss takes a
 * page fault through the whole storage stack — fault handling and
 * context switches, filesystem + blk-mq + NVMe driver, the device
 * itself, and the copy into the newly allocated page. The paper
 * measures this software path at 15-20 us, ~6x the Z-NAND access
 * itself, and that ratio is what this model reproduces.
 */

#ifndef HAMS_BASELINES_MMAP_PLATFORM_HH_
#define HAMS_BASELINES_MMAP_PLATFORM_HH_

#include <memory>
#include <string>

#include "baselines/platform.hh"
#include "dram/memory_controller.hh"
#include "nvme/nvme_types.hh"
#include "pcie/pcie_link.hh"
#include "sim/annotations.hh"
#include "ssd/dram_buffer.hh"
#include "ssd/ssd.hh"

namespace hams {

/** Which SSD backs the mapping. */
enum class MmapBackend : std::uint8_t { UllFlash, NvmeSsd, SataSsd };

/** Configuration of the MMF baseline. */
struct MmapConfig
{
    MmapBackend backend = MmapBackend::UllFlash;
    std::uint64_t dramBytes = 8ull << 30;
    /** Page-cache budget (the rest is kernel/app memory). */
    std::uint64_t pageCacheBytes = 7ull << 30;
    std::uint64_t ssdRawBytes = 16ull << 30;
    /** Backing-SSD internal DRAM buffer override: ~0 (default) keeps
     *  the backend's stock size, 0 removes the buffer, anything else
     *  resizes it. GC studies shrink it so write traffic actually
     *  reaches the flash. */
    std::uint64_t ssdBufferBytes = ~std::uint64_t(0);

    /**
     * Background writeback starts at this dirty fraction of the page
     * cache, 0.3: the model's fixed analogue of Linux's
     * vm.dirty_background_ratio, and the value every committed mmap
     * figure row was measured at.
     */
    static constexpr double dirtyWatermark = 0.3;

    /**
     * Backing-SSD FTL knobs. With backgroundGc the device collects
     * garbage on its own timeline (events on the platform queue); the
     * caller's inline delivery rule orders completions against those
     * events (see tryAccess()).
     */
    FtlConfig ftl;
};

/**
 * The mmap/MMF platform.
 */
class MmapPlatform : public MemoryPlatform
{
  public:
    explicit MmapPlatform(const MmapConfig& cfg);
    ~MmapPlatform() override;

    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return _capacity; }
    EventQueue& eventQueue() override { return eq; }
    HAMS_HOT_PATH bool tryAccess(const MemAccess& acc, Tick at,
                   InlineCompletion& out) override;
    bool persistent() const override { return true; } //!< via msync
    void flush(Tick at, AccessCb cb) override;
    DeviceActivity deviceActivity() const override;

    /** @name Introspection. */
    ///@{
    std::uint64_t pageFaults() const { return _pageFaults; }
    std::uint64_t pageCacheHits() const { return _hits; }
    std::uint64_t writebacks() const { return _writebacks; }
    Ssd& backingSsd() { return *ssd; }
    ///@}

  private:
    /** Write one dirty page back (timing on SSD + link resources). */
    HAMS_HOT_PATH Tick writebackPage(std::uint64_t page, Tick at);

    HAMS_HOT_PATH void maybeStartWriteback(Tick at);

    MmapConfig cfg;
    std::string _name;
    std::uint64_t _capacity;
    EventQueue eq;
    std::unique_ptr<MemoryController> dram;
    std::unique_ptr<Ssd> ssd;
    std::unique_ptr<PcieLink> link;
    /** Page-cache bookkeeping (LRU + dirty bits); timing goes to dram. */
    std::unique_ptr<DramBuffer> cacheTags;
    std::uint64_t _pageFaults = 0;
    std::uint64_t _hits = 0;
    std::uint64_t _writebacks = 0;
    /**
     * Dirty pages as the writeback watermark sees them. Not
     * cacheTags->dirtyCount(): a dirty page displaced by a fault stays
     * counted here until its reclaim writeback runs, which is part of
     * the modelled watermark trigger.
     */
    std::uint64_t dirtyCount = 0;
    std::uint64_t lastFaultPage = ~0ull;
    std::uint32_t seqStreak = 0;
};

} // namespace hams

#endif // HAMS_BASELINES_MMAP_PLATFORM_HH_
