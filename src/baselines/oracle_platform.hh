/**
 * @file
 * Oracle platform: a 512 GB NVDIMM big enough to hold every dataset, so
 * every access is a DRAM hit. The upper bound in the paper's Fig. 16.
 */

#ifndef HAMS_BASELINES_ORACLE_PLATFORM_HH_
#define HAMS_BASELINES_ORACLE_PLATFORM_HH_

#include <memory>
#include <string>

#include "baselines/platform.hh"
#include "dram/memory_controller.hh"
#include "sim/annotations.hh"

namespace hams {

/** Oracle configuration. */
struct OracleConfig
{
    std::uint64_t capacityBytes = 512ull << 30;
};

/** The all-NVDIMM oracle. */
class OraclePlatform : public MemoryPlatform
{
  public:
    explicit OraclePlatform(const OracleConfig& cfg = {});
    ~OraclePlatform() override;

    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return cfg.capacityBytes; }
    EventQueue& eventQueue() override { return eq; }
    HAMS_HOT_PATH bool tryAccess(const MemAccess& acc, Tick at,
                   InlineCompletion& out) override;
    bool persistent() const override { return true; }
    DeviceActivity deviceActivity() const override;

  private:
    OracleConfig cfg;
    std::string _name = "oracle";
    EventQueue eq;
    std::unique_ptr<MemoryController> dram;
};

} // namespace hams

#endif // HAMS_BASELINES_ORACLE_PLATFORM_HH_
