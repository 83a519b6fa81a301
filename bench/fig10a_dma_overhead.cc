/**
 * @file
 * Fig. 10a reproduction: the share of data-movement (interface/DMA)
 * latency in baseline HAMS's average memory access time — the paper
 * measures ~39% (up to 47%), which motivates the advanced integration.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 10a", "DMA/interface share of AMAT in baseline HAMS");
    BenchGeometry geom = BenchGeometry::scaled();

    std::vector<std::string> workloads;
    for (const auto& n : microWorkloadNames())
        workloads.push_back(n);
    for (const auto& n : sqliteWorkloadNames())
        workloads.push_back(n);

    std::printf("\n%-10s %14s %14s %10s\n", "workload", "stall-total(ms)",
                "dma(ms)", "dma-share");
    double share_sum = 0;
    double share_max = 0;
    for (const auto& wl : workloads) {
        auto hams_l = makePlatform("hams-LE", geom);
        RunResult r = runOn(*hams_l, wl, geom).combined;
        double total = ticksToSeconds(r.stallBreakdown.os +
                                      r.stallBreakdown.nvdimm +
                                      r.stallBreakdown.dma +
                                      r.stallBreakdown.ssd) * 1e3;
        double dma = ticksToSeconds(r.stallBreakdown.dma) * 1e3;
        double share = total > 0 ? dma / total : 0;
        share_sum += share;
        share_max = std::max(share_max, share);
        std::printf("%-10s %14.3f %14.3f %9.1f%%\n", wl.c_str(), total,
                    dma, 100.0 * share);
    }
    std::printf("\naverage DMA share: %.1f%%, max %.1f%% "
                "(paper: ~39%% average, up to 47%%)\n",
                100.0 * share_sum / workloads.size(), 100.0 * share_max);
    return 0;
}
