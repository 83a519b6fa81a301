/**
 * @file
 * Fig. 16 reproduction: application-level performance of all eleven
 * platforms over the twelve Table III workloads.
 *
 *  (a) microbenchmark + Rodinia workloads in K pages/s
 *  (b) SQLite workloads in ops/s
 *
 * Headline paper ratios to compare against: hams-TE beats mmap by 2.54x
 * (micro/graph) and 1.37x (SQLite); flatflash-M > flatflash-P by 136%;
 * hams-LE > flatflash-M by ~26%; optane-M > optane-P by ~142%; hams-TE
 * within 14% of the oracle.
 *
 * The 11×12 grid runs through the parallel sweep runner: every cell is
 * an independent platform+workload pair, and the printed tables are
 * byte-identical to serial execution.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 16", "application performance, 11 platforms x 12 "
                      "workloads");
    BenchGeometry geom = BenchGeometry::scaled();

    std::vector<std::string> fig_a;
    for (const auto& n : microWorkloadNames())
        fig_a.push_back(n);
    for (const auto& n : rodiniaWorkloadNames())
        fig_a.push_back(n);
    const std::vector<std::string>& fig_b = sqliteWorkloadNames();

    std::vector<SweepCell> cells;
    for (const auto& platform : allPlatformNames())
        for (const auto& wl : allWorkloadNames())
            cells.push_back({platform, wl, geom});
    std::vector<SmpCellResult> table = runSweep(cells);

    std::map<std::string, std::map<std::string, RunResult>> results;
    for (std::size_t i = 0; i < cells.size(); ++i)
        results[cells[i].platform][cells[i].workload] = table[i].smp.combined;

    // ---- (a) K pages/s ----
    std::printf("\n(a) micro + Rodinia performance (K pages/s)\n");
    std::printf("%-12s", "platform");
    for (const auto& wl : fig_a)
        std::printf(" %8s", wl.c_str());
    std::printf(" %8s\n", "avg");
    std::map<std::string, double> avg_a;
    for (const auto& platform : allPlatformNames()) {
        std::printf("%-12s", platform.c_str());
        double sum = 0;
        for (const auto& wl : fig_a) {
            double v = results[platform][wl].pagesPerSec / 1e3;
            sum += v;
            std::printf(" %8.1f", v);
        }
        avg_a[platform] = sum / fig_a.size();
        std::printf(" %8.1f\n", avg_a[platform]);
    }

    // ---- (b) SQLite ops/s ----
    std::printf("\n(b) SQLite performance (ops/s)\n");
    std::printf("%-12s", "platform");
    for (const auto& wl : fig_b)
        std::printf(" %9s", wl.c_str());
    std::printf(" %9s\n", "avg");
    std::map<std::string, double> avg_b;
    for (const auto& platform : allPlatformNames()) {
        std::printf("%-12s", platform.c_str());
        double sum = 0;
        for (const auto& wl : fig_b) {
            double v = results[platform][wl].opsPerSec;
            sum += v;
            std::printf(" %9.0f", v);
        }
        avg_b[platform] = sum / fig_b.size();
        std::printf(" %9.0f\n", avg_b[platform]);
    }

    // ---- headline ratios ----
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    std::printf("\nheadline ratios (measured vs paper):\n");
    std::printf("  hams-TE / mmap   micro+graph: %5.2fx   (paper 2.54x)\n",
                ratio(avg_a["hams-TE"], avg_a["mmap"]));
    std::printf("  hams-TE / mmap   SQLite     : %5.2fx   (paper 1.37x)\n",
                ratio(avg_b["hams-TE"], avg_b["mmap"]));
    std::printf("  flatflash-M / flatflash-P   : %5.2fx   (paper 2.36x)\n",
                ratio(avg_a["flatflash-M"] + avg_b["flatflash-M"],
                      avg_a["flatflash-P"] + avg_b["flatflash-P"]));
    std::printf("  hams-LE / flatflash-M       : %5.2fx   (paper 1.26x)\n",
                ratio(avg_a["hams-LE"] + avg_b["hams-LE"],
                      avg_a["flatflash-M"] + avg_b["flatflash-M"]));
    std::printf("  optane-M / optane-P         : %5.2fx   (paper 2.42x)\n",
                ratio(avg_a["optane-M"] + avg_b["optane-M"],
                      avg_a["optane-P"] + avg_b["optane-P"]));
    std::printf("  hams-TE / oracle            : %5.2fx   (paper 0.86x)\n",
                ratio(avg_a["hams-TE"] + avg_b["hams-TE"],
                      avg_a["oracle"] + avg_b["oracle"]));
    return 0;
}
