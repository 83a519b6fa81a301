/**
 * @file
 * Multi-core scaling sweep: N in-order cores sharing one platform
 * (cpu/smp_model.hh), the shape of the paper's Table II host (8-core
 * ARM v8) that the single-core figure harnesses cannot reach.
 *
 * N ∈ {1, 2, 4, 8} cores × {hams-TE, hams-TP, mmap, optane-P} ×
 * {rndRd, update}: aggregate throughput, scaling efficiency vs the
 * 1-core run, and — for the HAMS variants — the contention counters
 * that only exist under overlapping outstanding accesses: accesses
 * parked on busy frames (waitQueued), the deepest per-frame wait list
 * (waiterPeakDepth) and the persist-gate queue (persistGateWaits /
 * gateQueuePeakDepth).
 *
 * Deterministic: every cell is a fixed-seed sharded workload on a
 * fresh platform, so reruns — at any HAMS_BENCH_THREADS setting —
 * produce byte-identical tables. Results land in BENCH_multicore.json
 * (HAMS_BENCH_JSON overrides; HAMS_BENCH_SCALE enlarges the runs).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness.hh"

namespace {

using namespace hams;

/** One BENCH_multicore.json row. */
#define HAMS_MULTICORE_ROW_FIELDS(X)                                       \
    X(keep, std::uint32_t, cores)                                          \
    /* aggregate throughput over a perfectly scaled 1-core run */          \
    X(keep, double, scalingEfficiency)                                     \
    X(keep, RunResult, combined)                                           \
    /* contention counters; zero on the non-HAMS platforms */              \
    X(keep, HamsStats, hams)

struct MulticoreRow
{
    HAMS_FIELDS(MulticoreRow, HAMS_MULTICORE_ROW_FIELDS)
};

} // namespace

int
main()
{
    using namespace hams::bench;

    banner("multicore",
           "N-core shared-platform scaling (SmpModel, Table II host)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::uint32_t> core_counts = {1, 2, 4, 8};
    const std::vector<std::string> platforms = {"hams-TE", "hams-TP",
                                                "mmap", "optane-P"};
    const std::vector<std::string> workloads = {"rndRd", "update"};

    std::vector<SweepCell> cells;
    for (const auto& p : platforms)
        for (const auto& w : workloads)
            for (std::uint32_t n : core_counts)
                cells.push_back({p, w, geom, n});
    std::vector<SmpCellResult> results = runSweep(cells);

    std::printf("\n%-10s %-8s %5s %14s %8s %10s %9s %10s %9s\n",
                "platform", "workload", "cores", "ops/s(agg)", "scale",
                "waitQd", "waitPeak", "gateWaits", "gatePeak");

    BenchReport report;
    std::size_t cursor = 0;
    for (const auto& p : platforms) {
        for (const auto& w : workloads) {
            double base_ops = 0;
            for (std::uint32_t n : core_counts) {
                const SmpCellResult& cell = results[cursor++];
                const RunResult& comb = cell.smp.combined;
                if (n == 1)
                    base_ops = comb.opsPerSec;
                MulticoreRow row{
                    n, base_ops > 0 ? comb.opsPerSec / (base_ops * n) : 0,
                    comb, cell.hams};

                std::printf("%-10s %-8s %5u %14.0f %7.2f %10llu %9llu "
                            "%10llu %9llu\n",
                            p.c_str(), w.c_str(), n, comb.opsPerSec,
                            row.scalingEfficiency,
                            static_cast<unsigned long long>(
                                row.hams.waitQueued),
                            static_cast<unsigned long long>(
                                row.hams.waiterPeakDepth),
                            static_cast<unsigned long long>(
                                row.hams.persistGateWaits),
                            static_cast<unsigned long long>(
                                row.hams.gateQueuePeakDepth));
                report.row("multicore/" + p + "/" + w + "/n" +
                               std::to_string(n),
                           row);
            }
        }
    }

    std::printf("\n");
    return report.finish(jsonOutPath("BENCH_multicore.json"));
}
