/**
 * @file
 * Scale-out sweep: N cores driving M full device stacks behind one
 * range-sharded ShardedPlatform (baselines/sharded_platform.hh) — the
 * multi-device deployment the paper's single-device evaluation stops
 * short of, over the same HAMS configurations.
 *
 * Grid: {hams-TE, hams-TP} x {rndRd, update} x M ∈ {1, 2, 4, 8}
 * devices x {1, 4} cores per device (N = M x cores-per-device <= 32).
 * Every shard carries the full single-device geometry and its cores'
 * traffic stays inside the shard's range (weak scaling, shard-friendly
 * placement), so scaling_efficiency compares the M-device aggregate
 * against M perfectly-scaled copies of the matching 1-device cell.
 * The cost of cross-shard ordering gets its own columns: barriers, the
 * skew the slowest shard adds, and the fence release charge (update
 * carries SQLite-style durability barriers; rndRd never flushes).
 *
 * Gates, checked in the binary (harness.hh; a failure exits 1):
 *  - m1_identical: every M = 1 grid configuration rerun through a
 *    1-shard ShardedPlatform is bit-identical to the bare platform;
 *  - rerun_identical: the M = 4 hams-TE cells rerun from scratch
 *    reproduce the sweep's results bit for bit;
 *  - shard-friendly rndRd traffic holds >= 0.7 weak-scaling
 *    efficiency at 4 devices;
 *  - every multi-device update cell pays for cross-shard flush
 *    barriers (barriers and fence cost both nonzero).
 * Both identity verdicts also land at the top of the JSON.
 *
 * Deterministic: fixed-seed shard/core workload streams on fresh
 * platforms per cell — reruns at any HAMS_BENCH_THREADS are
 * byte-identical. Results land in BENCH_scaleout.json
 * (HAMS_BENCH_JSON overrides; HAMS_BENCH_SCALE enlarges the runs).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness.hh"

namespace {

using namespace hams;

/** One BENCH_scaleout.json row. */
#define HAMS_SCALEOUT_ROW_FIELDS(X)                                        \
    X(keep, std::uint32_t, devices)                                        \
    X(keep, std::uint32_t, cores)                                          \
    /* M devices (and M x the cores) vs M perfectly scaled 1-device        \
     * cells */                                                            \
    X(keep, double, scalingEfficiency)                                     \
    X(keep, RunResult, combined)                                           \
    X(keep, ShardedStats, sharded)                                         \
    X(keep, double, flushSkewNsPerBarrier)                                 \
    X(keep, double, fenceNsPerBarrier)

struct ScaleoutRow
{
    HAMS_FIELDS(ScaleoutRow, HAMS_SCALEOUT_ROW_FIELDS)
};

#define HAMS_SCALEOUT_SUMMARY_FIELDS(X)                                    \
    X(keep, bool, m1Identical)                                             \
    X(keep, bool, rerunIdentical)

struct ScaleoutSummary
{
    HAMS_FIELDS(ScaleoutSummary, HAMS_SCALEOUT_SUMMARY_FIELDS)
};

} // namespace

int
main()
{
    using namespace hams::bench;

    banner("scaleout",
           "N-core x M-device sharded-platform scaling (ShardedPlatform)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string> platforms = {"hams-TE", "hams-TP"};
    const std::vector<std::string> workloads = {"rndRd", "update"};
    const std::vector<std::uint32_t> cpds = {1, 4}; // cores per device
    const std::vector<std::uint32_t> devices = {1, 2, 4, 8};

    std::vector<SweepCell> cells;
    std::vector<std::string> names;
    for (const auto& p : platforms)
        for (const auto& w : workloads)
            for (std::uint32_t cpd : cpds)
                for (std::uint32_t m : devices) {
                    cells.push_back({p, w, geom, cpd * m, m});
                    names.push_back("scaleout/" + p + "/" + w + "/d" +
                                    std::to_string(m) + "/c" +
                                    std::to_string(cpd));
                }
    std::vector<SmpCellResult> results = runSweep(cells);

    std::printf("\n%-8s %-8s %4s %4s %6s %14s %8s %9s %11s %11s\n",
                "platform", "workload", "dev", "c/d", "cores",
                "ops/s(agg)", "scale", "barriers", "skew-ns/f",
                "fence-ns/f");

    BenchReport report;
    ScaleoutSummary summary{true, true};
    double base_ops = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell& c = cells[i];
        const SmpCellResult& cell = results[i];
        const RunResult& comb = cell.smp.combined;
        std::uint32_t m = c.devices;
        if (m == 1)
            base_ops = comb.opsPerSec;
        ScaleoutRow row{m, c.cores,
                        base_ops > 0 ? comb.opsPerSec / (base_ops * m) : 0,
                        comb, cell.sharded};
        if (std::uint64_t barriers = cell.sharded.flushBarriers) {
            row.flushSkewNsPerBarrier =
                static_cast<double>(cell.sharded.flushSkewTicks) /
                (1000.0 * barriers);
            row.fenceNsPerBarrier =
                static_cast<double>(cell.sharded.fenceTicks) /
                (1000.0 * barriers);
        }

        std::printf("%-8s %-8s %4u %4u %6u %14.0f %7.2f %9llu %11.1f "
                    "%11.1f\n",
                    c.platform.c_str(), c.workload.c_str(), m, c.cores / m,
                    c.cores, comb.opsPerSec, row.scalingEfficiency,
                    static_cast<unsigned long long>(
                        cell.sharded.flushBarriers),
                    row.flushSkewNsPerBarrier, row.fenceNsPerBarrier);
        report.row(names[i], row);

        if (c.workload == "rndRd" && m == 4)
            report.check(row.scalingEfficiency >= 0.7, names[i],
                         "weak-scaling efficiency >= 0.7 at 4 devices");
        if (c.workload == "update" && m > 1)
            report.check(cell.sharded.flushBarriers > 0 &&
                             row.fenceNsPerBarrier > 0,
                         names[i], "cross-shard flush barriers charged");

        // Twin runs on fresh platforms must reproduce the sweep bit for
        // bit: every M = 1 configuration through a 1-shard
        // ShardedPlatform (a pure pass-through) against the bare
        // platform the sweep ran, and the M = 4 hams-TE cells at 4
        // cores per device from scratch.
        bool m1 = m == 1;
        if (!m1 && !(m == 4 && c.platform == "hams-TE" && c.cores == 16))
            continue;
        auto sp = makeShardedPlatform(c.platform, geom, m);
        SmpResult twin = runOn(*sp, c.workload, geom, c.cores);
        std::string d = firstDifference(twin.combined, comb);
        if (!d.empty())
            d = "combined." + d;
        else if (!(twin == cell.smp))
            d = "perCore";
        bool& verdict = m1 ? summary.m1Identical : summary.rerunIdentical;
        verdict &= report.check(d.empty(), names[i],
                                std::string(m1 ? "1-shard twin" : "rerun") +
                                    " identical (first difference: " + d +
                                    ")");
    }
    report.summary(summary);

    std::printf("\nm1_identical=%s rerun_identical=%s\n",
                summary.m1Identical ? "yes" : "NO",
                summary.rerunIdentical ? "yes" : "NO");
    return report.finish(jsonOutPath("BENCH_scaleout.json"));
}
