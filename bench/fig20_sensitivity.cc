/**
 * @file
 * Fig. 20 reproduction: sensitivity studies.
 *
 *  (a) SQLite performance vs MoS page size (4 KB .. 1 MB on hams-TE;
 *      paper: 128 KB wins overall, 4 KB hurts sequential workloads,
 *      1 MB hurts random ones)
 *  (b) large-footprint stress (dataset >> NVDIMM; paper: 44 GB dataset,
 *      hams-TE lands within 24% of oracle and 181% above mmap)
 *
 * Both sweeps fan out through the parallel sweep runner; output is
 * byte-identical to serial execution.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 20", "page-size sweep and large-footprint stress");
    BenchGeometry geom = BenchGeometry::scaled();

    // ---- (a) page-size sweep on hams-TE ----
    const std::vector<std::uint32_t> page_sizes = {
        4096, 16384, 65536, 131072, 262144, 1048576};

    std::printf("\n(a) SQLite performance (ops/s) vs MoS page size, "
                "hams-TE\n");
    std::printf("%-10s", "workload");
    for (auto ps : page_sizes)
        std::printf(" %8uK", ps / 1024);
    std::printf("\n");

    // Every (workload × page size) cell is independent: parallel sweep.
    std::vector<SweepCell> page_cells;
    for (const auto& wl : sqliteWorkloadNames()) {
        for (std::size_t i = 0; i < page_sizes.size(); ++i) {
            BenchGeometry g = geom;
            g.mosPageBytes = page_sizes[i];
            page_cells.push_back({"hams-TE", wl, g});
        }
    }
    std::vector<SmpCellResult> page_results = runSweep(page_cells);
    std::size_t cursor = 0;

    std::vector<double> page_score(page_sizes.size(), 0);
    for (const auto& wl : sqliteWorkloadNames()) {
        std::printf("%-10s", wl.c_str());
        std::vector<double> row;
        for (std::size_t i = 0; i < page_sizes.size(); ++i) {
            const RunResult& r = page_results[cursor++].smp.combined;
            row.push_back(r.opsPerSec);
            std::printf(" %9.0f", r.opsPerSec);
        }
        // Score relative to the row max so every workload votes equally.
        double best = *std::max_element(row.begin(), row.end());
        for (std::size_t i = 0; i < row.size(); ++i)
            page_score[i] += best > 0 ? row[i] / best : 0;
        std::printf("\n");
    }
    std::size_t winner = 0;
    for (std::size_t i = 1; i < page_sizes.size(); ++i)
        if (page_score[i] > page_score[winner])
            winner = i;
    std::printf("best page size overall: %u KiB (paper: 128 KiB)\n",
                page_sizes[winner] / 1024);

    // ---- (b) large memory footprint ----
    std::printf("\n(b) large-footprint stress (dataset %.0fx the host "
                "memory; paper: 44 GB vs 8 GB)\n",
                5.5);
    BenchGeometry big = geom;
    big.datasetBytes = geom.hostMemBytes * 11 / 2; // 5.5x, like 44/8 GB
    big.ssdRawBytes = std::max<std::uint64_t>(geom.ssdRawBytes,
                                              big.datasetBytes * 2);

    std::printf("%-10s %12s %12s %12s %14s %14s\n", "workload", "mmap",
                "hams-TE", "oracle", "TE/mmap", "TE/oracle");
    std::vector<SweepCell> big_cells;
    for (const auto& wl : sqliteWorkloadNames()) {
        big_cells.push_back({"mmap", wl, big});
        big_cells.push_back({"hams-TE", wl, big});
        big_cells.push_back({"oracle", wl, big});
    }
    std::vector<SmpCellResult> big_results = runSweep(big_cells);

    double te_over_mmap = 0, te_over_oracle = 0;
    int n = 0;
    cursor = 0;
    for (const auto& wl : sqliteWorkloadNames()) {
        const RunResult& rm = big_results[cursor++].smp.combined;
        const RunResult& rt = big_results[cursor++].smp.combined;
        const RunResult& ro = big_results[cursor++].smp.combined;
        std::printf("%-10s %12.0f %12.0f %12.0f %13.2fx %13.2fx\n",
                    wl.c_str(), rm.opsPerSec, rt.opsPerSec, ro.opsPerSec,
                    rt.opsPerSec / rm.opsPerSec,
                    rt.opsPerSec / ro.opsPerSec);
        te_over_mmap += rt.opsPerSec / rm.opsPerSec;
        te_over_oracle += rt.opsPerSec / ro.opsPerSec;
        ++n;
    }
    std::printf("\naverages: hams-TE = %.2fx mmap (paper 2.81x), "
                "%.2fx oracle (paper 0.76x)\n",
                te_over_mmap / n, te_over_oracle / n);
    return 0;
}
