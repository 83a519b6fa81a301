#include "baselines/oracle_platform.hh"

#include "sim/logging.hh"

namespace hams {

OraclePlatform::OraclePlatform(const OracleConfig& cfg) : cfg(cfg)
{
    dram = std::make_unique<MemoryController>(
        Ddr4Timing::speedGrade(paperDdr4Mts), cfg.capacityBytes);
}

OraclePlatform::~OraclePlatform() = default;

Tick
OraclePlatform::serve(const MemAccess& acc, Tick at, LatencyBreakdown& bd)
{
    if (acc.addr + acc.size > cfg.capacityBytes)
        fatal("oracle access beyond capacity");
    Tick done = dram->access(acc.addr, acc.size, acc.op, at);
    bd.nvdimm = done - at;
    return done;
}

void
OraclePlatform::access(const MemAccess& acc, Tick at, AccessCb cb)
{
    LatencyBreakdown bd;
    Tick done = serve(acc, at, bd);
    scheduleCompletion(eq, done, bd, std::move(cb));
}

bool
OraclePlatform::tryAccess(const MemAccess& acc, Tick at,
                          InlineCompletion& out)
{
    out.bd = LatencyBreakdown{};
    out.done = serve(acc, at, out.bd);
    out.domain = &eq;
    return true;
}

DeviceActivity
OraclePlatform::deviceActivity() const
{
    return {dram->device().activity(), 8};
}

} // namespace hams
