/**
 * @file
 * Fig. 17 reproduction: system-level execution-time breakdown
 * (OS / SSD / app), normalized to mmap, for mmap and the four HAMS
 * variants.
 *
 * Per the paper's methodology, HAMS's storage-access time is *included
 * in app* (it surfaces as load/store latency), while mmap's OS and SSD
 * components are explicit — which is why the HAMS bars show no OS/SSD
 * segment at all.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 17", "execution time breakdown (normalized to mmap)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string> platforms = {"mmap", "hams-LP",
                                                "hams-LE", "hams-TP",
                                                "hams-TE"};

    std::printf("\n%-10s", "workload");
    for (const auto& p : platforms)
        std::printf("  %-8s(os/ssd/app)", p == "mmap" ? "MM" : p.c_str());
    std::printf("\n");

    for (const auto& wl : allWorkloadNames()) {
        std::printf("%-10s", wl.c_str());
        double mmap_total = 0;
        for (const auto& platform : platforms) {
            auto p = makePlatform(platform, geom);
            RunResult r = runOn(*p, wl, geom).combined;

            double os, ssd, app;
            double total = static_cast<double>(r.simTime);
            if (platform == "mmap") {
                os = static_cast<double>(r.stallBreakdown.os) +
                     static_cast<double>(r.flushTime);
                ssd = static_cast<double>(r.stallBreakdown.ssd +
                                          r.stallBreakdown.dma);
                app = total - os - ssd;
                mmap_total = total;
            } else {
                // HAMS: storage access is part of the LD/ST latency.
                os = 0;
                ssd = 0;
                app = total;
            }
            double norm = mmap_total > 0 ? mmap_total : total;
            std::printf("  %5.2f/%5.2f/%5.2f", os / norm, ssd / norm,
                        app / norm);
        }
        std::printf("\n");
    }

    std::printf("\npaper shape: mmap dominated by OS+SSD stalls that "
                "cannot be hidden; every HAMS\nvariant's bar is pure app "
                "time, and hams-TE's app time is as short as mmap's\n");
    return 0;
}
