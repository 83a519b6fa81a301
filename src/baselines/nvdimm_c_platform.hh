/**
 * @file
 * NVDIMM-C baseline (Lee et al., HPCA'20).
 *
 * The flash archive shares the DDR4 channel with the DRAM it backs, and
 * DRAM<->flash migrations are only permitted during DRAM refresh
 * windows so the two controllers never contend for the channel. That
 * makes a single page fetch cheap (~3 us of flash time) but the
 * *transfer* wait for a refresh window, so a miss can take up to ~48 us
 * under load (paper SSVI-B).
 */

#ifndef HAMS_BASELINES_NVDIMM_C_PLATFORM_HH_
#define HAMS_BASELINES_NVDIMM_C_PLATFORM_HH_

#include <memory>
#include <string>

#include "baselines/platform.hh"
#include "dram/memory_controller.hh"
#include "sim/annotations.hh"
#include "ssd/dram_buffer.hh"
#include "ssd/ssd.hh"

namespace hams {

/** NVDIMM-C configuration. */
struct NvdimmCConfig
{
    std::uint64_t dramBytes = 8ull << 30;
    std::uint64_t flashRawBytes = 16ull << 30;
};

/** The NVDIMM-C platform. */
class NvdimmCPlatform : public MemoryPlatform
{
  public:
    explicit NvdimmCPlatform(const NvdimmCConfig& cfg);
    ~NvdimmCPlatform() override;

    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return _capacity; }
    EventQueue& eventQueue() override { return eq; }
    HAMS_HOT_PATH bool tryAccess(const MemAccess& acc, Tick at,
                   InlineCompletion& out) override;
    bool persistent() const override { return true; }
    DeviceActivity deviceActivity() const override;

    std::uint64_t migrations() const { return _migrations; }

    /** Refresh interval granting one migration window. */
    static constexpr Tick refreshInterval = microseconds(7.8);

  private:
    /** Earliest refresh window at or after @p t; consumes the slot. */
    HAMS_HOT_PATH Tick claimWindow(Tick t);

    NvdimmCConfig cfg;
    std::string _name = "nvdimm-C";
    std::uint64_t _capacity;
    EventQueue eq;
    std::unique_ptr<MemoryController> dram;
    std::unique_ptr<Ssd> flash;
    std::unique_ptr<DramBuffer> cacheTags;
    Tick nextWindowFree = 0;
    std::uint64_t _migrations = 0;
};

} // namespace hams

#endif // HAMS_BASELINES_NVDIMM_C_PLATFORM_HH_
