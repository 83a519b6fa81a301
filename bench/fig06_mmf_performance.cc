/**
 * @file
 * Fig. 6 reproduction: MMF-based system performance with real devices.
 *
 *  (a) mmap-benchmark bandwidth (MB/s) over SATA / NVMe / ULL backends
 *      (paper: ULL 399% over SATA, 118% over NVMe; seq >> rnd)
 *  (b) SQLite per-op latency (us) over the same backends
 *      (paper: ULL beats SATA by 95% and NVMe by 72%)
 *
 * All (backend × workload) cells are independent, so they run through
 * the parallel sweep runner; the printed tables are byte-identical to
 * serial execution.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 6", "MMF (mmap) system performance across SSD backends");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string> backends = {"mmap-sata", "mmap-nvme",
                                               "mmap"};
    const std::vector<std::string> labels = {"SATA-SSD", "NVMe-SSD",
                                             "ULL-Flash"};

    // Row-major cells mirroring the table layout: (workload, backend).
    std::vector<SweepCell> cells;
    for (const auto& wl : microWorkloadNames())
        for (const auto& b : backends)
            cells.push_back({b, wl, geom});
    for (const auto& wl : sqliteWorkloadNames())
        for (const auto& b : backends)
            cells.push_back({b, wl, geom});
    std::vector<SmpCellResult> results = runSweep(cells);
    std::size_t cursor = 0;

    // ---- (a) microbenchmark bandwidth ----
    std::printf("\n(a) mmap-benchmark bandwidth (MB/s)\n");
    std::printf("%-10s", "workload");
    for (const auto& l : labels)
        std::printf(" %12s", l.c_str());
    std::printf("\n");

    std::vector<double> ull_sum(3, 0);
    for (const auto& wl : microWorkloadNames()) {
        std::printf("%-10s", wl.c_str());
        for (std::size_t i = 0; i < backends.size(); ++i) {
            const RunResult& r = results[cursor++].smp.combined;
            double mbs = r.pagesPerSec * 4096.0 / 1e6;
            ull_sum[i] += mbs;
            std::printf(" %12.1f", mbs);
        }
        std::printf("\n");
    }
    std::printf("geomean-ish ULL gain: %.0f%% over SATA, %.0f%% over "
                "NVMe (paper: 399%% / 118%%)\n",
                100.0 * (ull_sum[2] / ull_sum[0] - 1.0),
                100.0 * (ull_sum[2] / ull_sum[1] - 1.0));

    // ---- (b) SQLite latency per op ----
    std::printf("\n(b) SQLite latency per op (us)\n");
    std::printf("%-10s", "workload");
    for (const auto& l : labels)
        std::printf(" %12s", l.c_str());
    std::printf("\n");

    std::vector<double> lat_sum(3, 0);
    for (const auto& wl : sqliteWorkloadNames()) {
        std::printf("%-10s", wl.c_str());
        for (std::size_t i = 0; i < backends.size(); ++i) {
            const RunResult& r = results[cursor++].smp.combined;
            double us = r.opsPerSec > 0 ? 1e6 / r.opsPerSec : 0;
            lat_sum[i] += us;
            std::printf(" %12.1f", us);
        }
        std::printf("\n");
    }
    std::printf("avg latency reduction by ULL: %.0f%% vs SATA, %.0f%% vs "
                "NVMe (paper: 95%% / 72%%)\n",
                100.0 * (1.0 - lat_sum[2] / lat_sum[0]),
                100.0 * (1.0 - lat_sum[2] / lat_sum[1]));
    return 0;
}
