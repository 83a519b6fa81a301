/**
 * @file
 * Fig. 19 reproduction: system energy breakdown (CPU / NVDIMM /
 * SSD-internal DRAM / Z-NAND) normalized to mmap, for mmap and the four
 * HAMS variants.
 *
 * Paper findings: hams-LP/LE/TP/TE cut system energy by 31/41/34/45%
 * vs mmap; mmap's CPU+memory energy is ~89% higher because the longer
 * runtime burns idle power; hams-T spends ~8% more NVDIMM energy than
 * hams-L (direct DMA routes everything through the NVDIMM) but deletes
 * the internal-DRAM component entirely.
 *
 * The table prints each cell's total; the four-way split of every
 * (workload, platform) cell lands in BENCH_energy.json (HAMS_BENCH_JSON
 * overrides; HAMS_BENCH_SCALE enlarges the runs). Gate: internal_dram
 * is exactly 0 on every hams-TP/TE cell and > 0 on every mmap and
 * hams-LP/LE cell.
 */

#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "harness.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 19", "energy breakdown (normalized to mmap)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string> platforms = {"mmap", "hams-LP",
                                                "hams-LE", "hams-TP",
                                                "hams-TE"};

    std::printf("\n%-10s", "workload");
    for (const auto& p : platforms)
        std::printf("  %-7s", p == "mmap" ? "MM" : p.c_str());
    std::printf("   (each: system energy normalized to mmap)\n");

    std::map<std::string, double> total_sum;
    std::map<std::string, double> nvdimm_sum;
    BenchReport report;

    for (const auto& wl : allWorkloadNames()) {
        std::printf("%-10s", wl.c_str());
        double mmap_total = 0;
        for (const auto& platform : platforms) {
            auto p = makePlatform(platform, geom);
            RunResult r = runOn(*p, wl, geom).combined;
            // Durability point: dirty data must reach persistent media
            // everywhere. HAMS completes instantly (the NVDIMM is the
            // persistence domain); mmap pays the msync writeback — the
            // flush traffic the paper charges mmap for.
            bool flushed = false;
            Tick end = 0;
            p->flush(p->eventQueue().now(),
                     [&](Tick t, const LatencyBreakdown&) {
                         flushed = true;
                         end = t;
                     });
            while (!flushed && p->eventQueue().step()) {
            }
            Tick elapsed = std::max<Tick>(r.simTime,
                                          end > r.simTime ? end : r.simTime);
            EnergyBreakdownJ e = p->memoryEnergy(elapsed);
            e.cpu = r.cpuEnergyJ;
            std::string cell = "energy/" + wl + "/" + platform;
            report.row(cell, e);
            if (platform == "hams-TP" || platform == "hams-TE")
                report.check(e.internalDram == 0.0, cell,
                             "hams-T must have no internal DRAM");
            else
                report.check(e.internalDram > 0.0, cell,
                             "internal DRAM must draw energy");

            if (platform == "mmap")
                mmap_total = e.total();
            double norm = mmap_total > 0 ? mmap_total : 1;
            total_sum[platform] += e.total() / norm;
            nvdimm_sum[platform] += e.nvdimm;
            std::printf("  %.2f", e.total() / norm);
        }
        std::printf("\n");
    }

    double n = static_cast<double>(allWorkloadNames().size());
    std::printf("\nsystem energy vs mmap (measured vs paper):\n");
    std::printf("  hams-LP: %+5.1f%%   (paper -31%%)\n",
                100.0 * (total_sum["hams-LP"] / n - 1.0));
    std::printf("  hams-LE: %+5.1f%%   (paper -41%%)\n",
                100.0 * (total_sum["hams-LE"] / n - 1.0));
    std::printf("  hams-TP: %+5.1f%%   (paper -34%%)\n",
                100.0 * (total_sum["hams-TP"] / n - 1.0));
    std::printf("  hams-TE: %+5.1f%%   (paper -45%%)\n",
                100.0 * (total_sum["hams-TE"] / n - 1.0));
    std::printf("  hams-T NVDIMM energy vs hams-L: %+5.1f%%  "
                "(paper +8%%)\n",
                100.0 * ((nvdimm_sum["hams-TP"] + nvdimm_sum["hams-TE"]) /
                             (nvdimm_sum["hams-LP"] +
                              nvdimm_sum["hams-LE"]) -
                         1.0));
    return report.finish(jsonOutPath("BENCH_energy.json"));
}
