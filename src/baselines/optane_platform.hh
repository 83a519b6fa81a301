/**
 * @file
 * Optane DC PMM baseline (Izraelevitz et al. measurements, paper
 * SSVI-A/SSVII).
 *
 *  - optane-P: App Direct mode. Every access reaches the 3D-XPoint
 *    media; the internal 256 B block means small requests waste
 *    bandwidth (a 64 B read still moves 256 B internally), and the
 *    small fixed XPBuffer absorbs write bursts but throttles sustained
 *    writes.
 *  - optane-M: Memory mode. 8 GB DRAM caches the PMM; faster but not
 *    persistent.
 */

#ifndef HAMS_BASELINES_OPTANE_PLATFORM_HH_
#define HAMS_BASELINES_OPTANE_PLATFORM_HH_

#include <memory>
#include <string>

#include "baselines/platform.hh"
#include "dram/memory_controller.hh"
#include "sim/annotations.hh"
#include "ssd/dram_buffer.hh"

namespace hams {

/** Optane DC PMM configuration (512 GB DIMM class). */
struct OptaneConfig
{
    /** True = optane-M (Memory mode with DRAM cache). */
    bool memoryMode = false;
    std::uint64_t pmmBytes = 512ull << 30;
    std::uint64_t dramCacheBytes = 8ull << 30;
};

/** The Optane platform (both -P and -M). */
class OptanePlatform : public MemoryPlatform
{
  public:
    explicit OptanePlatform(const OptaneConfig& cfg);
    ~OptanePlatform() override;

    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return cfg.pmmBytes; }
    EventQueue& eventQueue() override { return eq; }
    HAMS_HOT_PATH bool tryAccess(const MemAccess& acc, Tick at,
                   InlineCompletion& out) override;
    bool persistent() const override { return !cfg.memoryMode; }
    DeviceActivity deviceActivity() const override;

  private:
    /** Media access with 256 B amplification and bandwidth occupancy. */
    HAMS_HOT_PATH Tick mediaAccess(std::uint32_t size, MemOp op, Tick at,
                     LatencyBreakdown& bd);

    OptaneConfig cfg;
    std::string _name;
    EventQueue eq;
    std::unique_ptr<MemoryController> dramCache;
    std::unique_ptr<DramBuffer> cacheTags;
    Tick mediaBusyUntil = 0;
    std::uint64_t xpBufferFill = 0; //!< bytes buffered, drains over time
    Tick lastDrain = 0;
};

} // namespace hams

#endif // HAMS_BASELINES_OPTANE_PLATFORM_HH_
