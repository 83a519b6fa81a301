/**
 * @file
 * Platform explorer: run one Table III workload on a chosen set of
 * platforms and print a side-by-side comparison — a command-line
 * microscope over the paper's Fig. 16.
 *
 * Usage: platform_explorer [workload] [instruction-budget]
 *        (defaults: rndRd 400000)
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/flatflash_platform.hh"
#include "baselines/mmap_platform.hh"
#include "baselines/nvdimm_c_platform.hh"
#include "baselines/optane_platform.hh"
#include "baselines/oracle_platform.hh"
#include "core/hams_system.hh"
#include "sim/logging.hh"
#include "cpu/core_model.hh"
#include "workload/workload.hh"

namespace {

using namespace hams;

constexpr std::uint64_t datasetBytes = 96ull << 20;
constexpr std::uint64_t dramBytes = 48ull << 20; // half the dataset, like the paper
constexpr std::uint64_t ssdBytes = 1ull << 30;

std::unique_ptr<MemoryPlatform>
makePlatform(const std::string& name)
{
    if (name == "mmap") {
        MmapConfig c;
        c.dramBytes = dramBytes;
        c.pageCacheBytes = dramBytes * 3 / 4;
        c.ssdRawBytes = ssdBytes;
        return std::make_unique<MmapPlatform>(c);
    }
    if (name == "flatflash-P" || name == "flatflash-M") {
        FlatFlashConfig c;
        c.hostCaching = name == "flatflash-M";
        c.hostDramBytes = dramBytes;
        c.ssdRawBytes = ssdBytes;
        return std::make_unique<FlatFlashPlatform>(c);
    }
    if (name == "nvdimm-C") {
        NvdimmCConfig c;
        c.dramBytes = dramBytes;
        c.flashRawBytes = ssdBytes;
        return std::make_unique<NvdimmCPlatform>(c);
    }
    if (name == "optane-P" || name == "optane-M") {
        OptaneConfig c;
        c.memoryMode = name == "optane-M";
        c.dramCacheBytes = dramBytes;
        return std::make_unique<OptanePlatform>(c);
    }
    if (name == "oracle")
        return std::make_unique<OraclePlatform>(OracleConfig{2ull << 30});

    HamsSystemConfig c;
    if (name == "hams-LP")
        c = HamsSystemConfig::loosePersist();
    else if (name == "hams-LE")
        c = HamsSystemConfig::looseExtend();
    else if (name == "hams-TP")
        c = HamsSystemConfig::tightPersist();
    else if (name == "hams-TE")
        c = HamsSystemConfig::tightExtend();
    else
        return nullptr;
    c.nvdimm.capacity = dramBytes + (32ull << 20);
    c.ssdRawBytes = ssdBytes;
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false; // timing-only exploration
    return std::make_unique<HamsSystem>(c);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace hams;
    setQuiet(true);

    std::string workload = argc > 1 ? argv[1] : "rndRd";
    std::uint64_t budget = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                    : 400000;

    const std::vector<std::string> platforms = {
        "mmap",     "flatflash-P", "flatflash-M", "nvdimm-C",
        "optane-P", "optane-M",    "hams-LP",     "hams-LE",
        "hams-TP",  "hams-TE",     "oracle"};

    std::printf("workload=%s budget=%llu instructions "
                "(dataset %llu MiB, host memory %llu MiB)\n\n",
                workload.c_str(),
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(datasetBytes >> 20),
                static_cast<unsigned long long>(dramBytes >> 20));
    std::printf("%-12s %12s %12s %10s %10s %10s\n", "platform",
                "Kpages/s", "ops/s", "IPC", "stall%", "persist");

    for (const auto& name : platforms) {
        auto platform = makePlatform(name);
        if (!platform) {
            std::printf("%-12s unknown platform\n", name.c_str());
            continue;
        }
        auto gen = makeWorkload(workload, datasetBytes);
        CoreModel core(*platform);
        RunResult r = core.run(*gen, budget);
        double stall_pct =
            100.0 * r.stallTime / double(r.stallTime + r.activeTime);
        std::printf("%-12s %12.1f %12.0f %10.4f %9.1f%% %10s\n",
                    name.c_str(), r.pagesPerSec / 1e3, r.opsPerSec, r.ipc,
                    stall_pct, platform->persistent() ? "yes" : "no");
    }
    return 0;
}
