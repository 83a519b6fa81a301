#include "baselines/oracle_platform.hh"

#include "sim/logging.hh"

namespace hams {

OraclePlatform::OraclePlatform(const OracleConfig& cfg) : cfg(cfg)
{
    dram = std::make_unique<MemoryController>(
        Ddr4Timing::speedGrade(paperDdr4Mts), cfg.capacityBytes);
}

OraclePlatform::~OraclePlatform() = default;

bool
OraclePlatform::tryAccess(const MemAccess& acc, Tick at,
                          InlineCompletion& out)
{
    if (acc.addr + acc.size > cfg.capacityBytes)
        fatal("oracle access beyond capacity");
    out.done = dram->access(acc.addr, acc.size, acc.op, at);
    out.bd = LatencyBreakdown{};
    out.bd.nvdimm = out.done - at;
    out.domain = &eq;
    return true;
}

DeviceActivity
OraclePlatform::deviceActivity() const
{
    return {dram->device().activity(), 8};
}

} // namespace hams
