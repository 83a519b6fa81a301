/**
 * @file
 * Fig. 18 reproduction: memory access delay breakdown
 * (NVDIMM / DMA / SSD) for the four HAMS variants, normalized to
 * hams-LP, plus the NVDIMM hit rate.
 *
 * Paper findings to compare: ~94% NVDIMM hit rate; NVDIMM time is ~79%
 * of hams-LP's delay; hams-T reduces stalls ~16% vs hams-L; persist
 * mode costs ~34% more delay than extend; NVMe-DMA is ~18% of hams-L
 * delay on data-intensive workloads.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "core/hams_system.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 18", "memory delay breakdown (normalized to hams-LP)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string> platforms = {"hams-LP", "hams-LE",
                                                "hams-TP", "hams-TE"};

    std::printf("\n%-10s", "workload");
    for (const auto& p : platforms)
        std::printf("  %-6s(nvd/dma/ssd)", p.c_str());
    std::printf("  %8s\n", "hit-rate");

    double lp_total_sum = 0, lp_nvdimm_sum = 0, lp_dma_sum = 0;
    double le_sum = 0, te_sum = 0, lp_sum = 0, tp_sum = 0;
    double hit_sum = 0;
    int n = 0;

    for (const auto& wl : allWorkloadNames()) {
        std::printf("%-10s", wl.c_str());
        double lp_total = 0;
        double hit_rate = 0;
        for (const auto& platform : platforms) {
            auto p = makePlatform(platform, geom);
            RunResult r = runOn(*p, wl, geom).combined;

            // Per-access delay so slower platforms (fewer completed
            // accesses in the fixed budget) compare fairly.
            double per = r.platformAccesses
                             ? 1.0 / static_cast<double>(r.platformAccesses)
                             : 0.0;
            double nvd = static_cast<double>(r.stallBreakdown.nvdimm) * per;
            double dma = static_cast<double>(r.stallBreakdown.dma) * per;
            double ssd = static_cast<double>(r.stallBreakdown.ssd) * per;
            double total = nvd + dma + ssd;
            if (platform == "hams-LP") {
                lp_total = total;
                lp_total_sum += total;
                lp_nvdimm_sum += nvd;
                lp_dma_sum += dma;
                lp_sum += total;
            }
            if (platform == "hams-LE")
                le_sum += total;
            if (platform == "hams-TP")
                tp_sum += total;
            if (platform == "hams-TE")
                te_sum += total;

            auto* hs = dynamic_cast<HamsSystem*>(p.get());
            if (platform == "hams-TE" && hs) {
                const HamsStats& st = hs->stats();
                hit_rate = st.accesses
                               ? 100.0 * st.hits /
                                     double(st.hits + st.misses)
                               : 0;
            }
            double norm = lp_total > 0 ? lp_total : 1;
            std::printf("  %5.2f/%5.2f/%5.2f", nvd / norm, dma / norm,
                        ssd / norm);
        }
        hit_sum += hit_rate;
        ++n;
        std::printf("  %7.1f%%\n", hit_rate);
    }

    std::printf("\naggregates (measured vs paper):\n");
    std::printf("  NVDIMM share of hams-LP delay: %5.1f%%  (paper 79%%)\n",
                100.0 * lp_nvdimm_sum / lp_total_sum);
    std::printf("  DMA share of hams-L delay    : %5.1f%%  (paper ~18%% "
                "data-intensive)\n",
                100.0 * lp_dma_sum / lp_total_sum);
    std::printf("  hams-T vs hams-L stalls      : %+5.1f%%  (paper -16%%)\n",
                100.0 * ((tp_sum + te_sum) / (lp_sum + le_sum) - 1.0));
    std::printf("  persist vs extend delay      : %+5.1f%%  (paper +34%%)\n",
                100.0 * ((lp_sum + tp_sum) / (le_sum + te_sum) - 1.0));
    std::printf("  NVDIMM hit rate (hams-TE avg): %5.1f%%  (paper 94%%)\n",
                hit_sum / n);
    return 0;
}
