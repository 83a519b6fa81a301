/**
 * @file
 * In-order core model (paper Table II: ARM v8 class at 2 GHz with
 * 64 KB L1D and 2 MB L2).
 *
 * The core retires compute instructions at a base CPI, filters memory
 * instructions through the L1/L2 tag caches, and blocks on the platform
 * for misses — the behaviour that produces the paper's IPC collapse
 * when a slow platform sits under the MMU (Fig. 7b) and the execution
 * breakdowns of Figs. 17/18.
 */

#ifndef HAMS_CPU_CORE_MODEL_HH_
#define HAMS_CPU_CORE_MODEL_HH_

#include <cstdint>
#include <string>

#include "baselines/platform.hh"
#include "cpu/cache_model.hh"
#include "energy/cpu_power.hh"
#include "sim/annotations.hh"
#include "sim/fields.hh"
#include "workload/workload.hh"

namespace hams {

/** Core configuration. */
struct CoreConfig
{
    static constexpr double freqGhz = 2.0;
    static constexpr double baseCpi = 1.0;
    CacheConfig l1{64 * 1024, 64, 4, nanoseconds(1)};
    CacheConfig l2{2 * 1024 * 1024, 64, 8, nanoseconds(5)};
    /**
     * Use MemoryPlatform::tryAccess to complete accesses inline where
     * that keeps the event-path issue order (the inline rule in
     * cpu/smp_model.hh). Simulated-time outputs are bit-identical
     * either way (tests/test_fastpath.cc asserts it); off exists for
     * that differential test and for before/after benchmarking.
     */
    bool inlineFastPath = true;
};

/** Everything a run produces. */
#define HAMS_RUN_RESULT_FIELDS(X)                                          \
    X(keep, std::string, workload)                                         \
    X(keep, std::string, platform)                                         \
    X(max, Tick, simTime)                                                  \
    X(sum, std::uint64_t, instructions)                                    \
    X(sum, std::uint64_t, memInstructions)                                 \
    X(sum, std::uint64_t, platformAccesses)                                \
    X(sum, std::uint64_t, l1Hits)                                          \
    X(sum, std::uint64_t, l2Hits)                                          \
    X(sum, std::uint64_t, opsCompleted)                                    \
    X(sum, std::uint64_t, pagesTouched)                                    \
    X(sum, Tick, activeTime)                                               \
    X(sum, Tick, stallTime)                                                \
    /* platform-attributed stall time */                                   \
    X(sum, LatencyBreakdown, stallBreakdown)                               \
    X(sum, Tick, flushTime)                                                \
    /* Derived by finalizeRunResult. */                                    \
    X(keep, double, ipc)                                                   \
    X(keep, double, opsPerSec)                                             \
    X(keep, double, pagesPerSec)                                           \
    X(keep, double, bytesPerSec)                                           \
    /* CPU energy (memory-side energy comes from the platform). */         \
    X(keep, double, cpuEnergyJ)

struct RunResult
{
    HAMS_FIELDS(RunResult, HAMS_RUN_RESULT_FIELDS)
};

/**
 * Fill @p res's derived rate/energy fields from its raw counters.
 * Used by SmpModel (cpu/smp_model.hh) for every per-core result and
 * the combined view; for the combined view the counters are sums and
 * simTime the max core time, making ipc/opsPerSec aggregate
 * (cross-core) rates.
 */
void finalizeRunResult(RunResult& res, double freq_ghz,
                       const CpuPowerModel& cpu_power);

/**
 * Merge @p from into @p into (mergeFields, rules in sim/fields.hh):
 * event counters sum, simTime takes the max, and labels and the
 * derived rate/energy fields keep @p into's values — call
 * finalizeRunResult afterwards to rebuild the rates as aggregate
 * cross-entity rates. Used for per-core views (SmpModel::run) and
 * per-shard views (bench scale-out tables).
 */
void mergeRunResult(RunResult& into, const RunResult& from);

/**
 * Drives a WorkloadGenerator against a MemoryPlatform on one core.
 */
class CoreModel
{
  public:
    CoreModel(MemoryPlatform& platform, const CoreConfig& cfg = {});

    /**
     * Execute @p instruction_budget instructions (compute + memory) and
     * return aggregate metrics.
     *
     * A thin wrapper: this is a 1-core SmpModel run (cpu/smp_model.hh)
     * returning perCore[0], so one retire loop serves single- and
     * multi-core callers. Its solo-only rules (advanceTo after an
     * inline completion, no end-of-run resync) are documented there.
     */
    HAMS_HOT_PATH RunResult run(WorkloadGenerator& gen, std::uint64_t instruction_budget);

  private:
    MemoryPlatform& platform;
    CoreConfig cfg;
};

} // namespace hams

#endif // HAMS_CPU_CORE_MODEL_HH_
