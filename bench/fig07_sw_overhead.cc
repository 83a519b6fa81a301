/**
 * @file
 * Fig. 7 reproduction: why neither the software stack nor naive
 * hardware bypass suffices.
 *
 *  (a) execution-time breakdown of the ULL-backed MMF system
 *      (mmap+I/O-stack vs SSD vs CPU; paper: software is 69% of time,
 *      the SSD only 13%) plus degradation vs an all-NVDIMM system
 *  (b) IPC of bypass strategies: NVDIMM, raw ULL as memory, ULL with a
 *      small page buffer (paper: 0.06 vs 0.001 vs 0.003 on the
 *      microbenchmarks)
 */

#include <cstdio>
#include <vector>

#include "baselines/flatflash_platform.hh"
#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 7", "software overheads and naive-bypass IPC");
    BenchGeometry geom = BenchGeometry::scaled();

    std::vector<std::string> workloads;
    for (const auto& n : microWorkloadNames())
        workloads.push_back(n);
    for (const auto& n : sqliteWorkloadNames())
        workloads.push_back(n);

    // ---- (a) execution breakdown on mmap+ULL ----
    std::printf("\n(a) mmap execution breakdown (fractions) and "
                "degradation vs NVDIMM\n");
    std::printf("%-10s %8s %8s %8s %8s %10s\n", "workload", "os",
                "ssd", "dma", "cpu", "perf-deg%");
    // The all-NVDIMM oracle cells are also (b)'s NVDIMM column.
    std::vector<RunResult> oracle_runs;
    for (const auto& wl : workloads) {
        auto mmap = makePlatform("mmap", geom);
        RunResult r = runOn(*mmap, wl, geom).combined;
        auto oracle = makePlatform("oracle", geom);
        const RunResult& o =
            oracle_runs.emplace_back(runOn(*oracle, wl, geom).combined);

        double total = static_cast<double>(r.simTime);
        double os = (r.stallBreakdown.os +
                     static_cast<double>(r.flushTime)) / total;
        double ssd = r.stallBreakdown.ssd / total;
        double dma = r.stallBreakdown.dma / total;
        double cpu = 1.0 - os - ssd - dma;
        double deg = 100.0 * (1.0 - r.opsPerSec / o.opsPerSec);
        std::printf("%-10s %8.2f %8.2f %8.2f %8.2f %9.1f%%\n",
                    wl.c_str(), os, ssd, dma, cpu, deg);
    }
    std::printf("paper: mmap+I/O stack ~69%% of execution, SSD ~13%%; "
                "selects are ~83%% CPU\n");

    // ---- (b) IPC of bypass strategies ----
    auto make_ull_direct = [&](bool buffered) {
        FlatFlashConfig c;
        c.hostCaching = buffered;
        // A small page buffer, not a full host cache (paper's ULL-buff).
        c.hostDramBytes = 8ull << 20;
        c.ssdRawBytes = geom.ssdRawBytes;
        c.mmioOverhead = microseconds(0.4); // raw load/store bypass
        c.promoteThreshold = 1;
        return std::make_unique<FlatFlashPlatform>(c);
    };

    std::printf("\n(b) IPC of bypass strategies\n");
    std::printf("%-10s %12s %12s %12s\n", "workload", "NVDIMM", "ULL",
                "ULL-buff");
    double sum_nv = 0, sum_ull = 0, sum_buf = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const std::string& wl = workloads[i];
        const RunResult& rn = oracle_runs[i];
        auto ull = make_ull_direct(false);
        RunResult ru = runOn(*ull, wl, geom).combined;
        auto ull_buf = make_ull_direct(true);
        RunResult rb = runOn(*ull_buf, wl, geom).combined;
        std::printf("%-10s %12.4f %12.4f %12.4f\n", wl.c_str(), rn.ipc,
                    ru.ipc, rb.ipc);
        sum_nv += rn.ipc;
        sum_ull += ru.ipc;
        sum_buf += rb.ipc;
    }
    std::printf("average: NVDIMM %.4f, ULL %.4f, ULL-buff %.4f "
                "(paper micro: 0.06 / 0.001 / 0.003)\n",
                sum_nv / workloads.size(), sum_ull / workloads.size(),
                sum_buf / workloads.size());
    return 0;
}
