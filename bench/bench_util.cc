#include "bench_util.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "baselines/flatflash_platform.hh"
#include "baselines/mmap_platform.hh"
#include "baselines/nvdimm_c_platform.hh"
#include "baselines/optane_platform.hh"
#include "baselines/oracle_platform.hh"
#include "core/hams_system.hh"
#include "sim/alloc_hook.hh"
#include "sim/logging.hh"

namespace hams::bench {

namespace {

/**
 * The environment variable @p name as a positive decimal integer of at
 * most @p max, or @p unset when the variable is not set. Anything else
 * (empty, signed, zero, trailing characters, too large) is fatal, so a
 * typo cannot silently run a different experiment.
 */
std::uint64_t
positiveEnv(const char* name, std::uint64_t unset, std::uint64_t max)
{
    const char* env = std::getenv(name);
    if (!env)
        return unset;
    const char* end = env + std::strlen(env);
    std::uint64_t v = 0;
    auto [ptr, ec] = std::from_chars(env, end, v);
    if (ec == std::errc::result_out_of_range ||
        (ec == std::errc() && ptr == end && v > max))
        fatal(name, "='", env, "' is larger than ", max);
    if (ec != std::errc() || ptr != end || v == 0)
        fatal(name, "='", env, "' is not a positive decimal integer");
    return v;
}

} // namespace

std::uint64_t
scale()
{
    // BenchGeometry::scaled() multiplies each field by the scale.
    const BenchGeometry g;
    std::uint64_t largest = std::max({g.datasetBytes, g.hostMemBytes,
                                      g.ssdRawBytes, g.instructionBudget});
    return positiveEnv("HAMS_BENCH_SCALE", 1,
                       std::numeric_limits<std::uint64_t>::max() / largest);
}

std::size_t
benchThreads()
{
    std::size_t workers = std::thread::hardware_concurrency();
    return static_cast<std::size_t>(positiveEnv(
        "HAMS_BENCH_THREADS", workers == 0 ? 1 : workers,
        std::numeric_limits<std::size_t>::max()));
}

BenchGeometry
BenchGeometry::scaled()
{
    BenchGeometry g;
    std::uint64_t s = scale();
    g.datasetBytes *= s;
    g.hostMemBytes *= s;
    g.ssdRawBytes *= s;
    g.instructionBudget *= s;
    return g;
}

std::uint64_t
BenchGeometry::datasetBytesFor(const std::string& workload) const
{
    // Ratios against the 8 GB NVDIMM of Table III.
    double ratio = 2.0; // micro: 16 GB
    for (const auto& n : sqliteWorkloadNames())
        if (n == workload)
            ratio = 11.0 / 8.0;
    if (workload == "BFS")
        ratio = 9.0 / 8.0;
    else if (workload == "KMN")
        ratio = 5.0 / 8.0;
    else if (workload == "NN")
        ratio = 7.0 / 8.0;
    auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(hostMemBytes) * ratio);
    return (bytes + (1 << 20) - 1) >> 20 << 20; // whole MiB
}

const std::vector<std::string>&
allPlatformNames()
{
    static const std::vector<std::string> names = {
        "mmap",     "flatflash-P", "flatflash-M", "nvdimm-C",
        "optane-P", "optane-M",    "hams-LP",     "hams-LE",
        "hams-TP",  "hams-TE",     "oracle"};
    return names;
}

std::unique_ptr<MemoryPlatform>
makePlatform(const std::string& name, const BenchGeometry& geom)
{
    setQuiet(true);

    if (name == "mmap" || name == "mmap-nvme" || name == "mmap-sata") {
        MmapConfig c;
        c.backend = name == "mmap-nvme"
                        ? MmapBackend::NvmeSsd
                        : (name == "mmap-sata" ? MmapBackend::SataSsd
                                               : MmapBackend::UllFlash);
        c.dramBytes = geom.hostMemBytes;
        c.pageCacheBytes = geom.hostMemBytes * 3 / 4;
        c.ssdRawBytes = geom.ssdRawBytes;
        return std::make_unique<MmapPlatform>(c);
    }
    if (name == "flatflash-P" || name == "flatflash-M") {
        FlatFlashConfig c;
        c.hostCaching = name == "flatflash-M";
        c.hostDramBytes = geom.hostMemBytes;
        c.ssdRawBytes = geom.ssdRawBytes;
        return std::make_unique<FlatFlashPlatform>(c);
    }
    if (name == "nvdimm-C") {
        NvdimmCConfig c;
        c.dramBytes = geom.hostMemBytes;
        c.flashRawBytes = geom.ssdRawBytes;
        return std::make_unique<NvdimmCPlatform>(c);
    }
    if (name == "optane-P" || name == "optane-M") {
        OptaneConfig c;
        c.memoryMode = name == "optane-M";
        c.dramCacheBytes = geom.hostMemBytes;
        c.pmmBytes = geom.ssdRawBytes;
        return std::make_unique<OptanePlatform>(c);
    }
    if (name == "oracle") {
        OracleConfig c;
        c.capacityBytes = geom.ssdRawBytes;
        return std::make_unique<OraclePlatform>(c);
    }

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

    // The NVDIMM provides the MoS cache plus the pinned region, so the
    // cache matches the other platforms' host memory.
    c.pinnedBytes = 32ull << 20;
    c.nvdimm.capacity = geom.hostMemBytes + c.pinnedBytes;
    c.ssdRawBytes = geom.ssdRawBytes;
    c.mosPageBytes = geom.mosPageBytes;
    c.queueEntries = 1024;
    c.functionalData = false; // timing-only runs
    return std::make_unique<HamsSystem>(c);
}

SmpResult
runOn(MemoryPlatform& platform, const std::string& workload,
      const BenchGeometry& geom, std::uint32_t cores)
{
    auto* sharded = dynamic_cast<ShardedPlatform*>(&platform);
    std::uint32_t m = sharded ? sharded->shardCount() : 1;
    if (cores == 0 || cores % m != 0)
        throw std::runtime_error(std::to_string(cores) +
                                 " cores not a positive multiple of " +
                                 std::to_string(m) + " devices");

    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::uint32_t shard = c % m;
        gens.push_back(makeShardCoreWorkload(
            workload, geom.datasetBytesFor(workload), c / m, cores / m,
            shard, sharded ? sharded->rangeBase(shard) : 0));
        raw.push_back(gens.back().get());
    }

    // Compute-heavy workloads need a larger budget to issue a
    // comparable number of memory operations (the paper runs 213 G
    // instructions of SQLite vs 67 G of microbenchmark).
    std::uint64_t budget = geom.instructionBudget;
    if (gens[0]->spec().family == "sqlite")
        budget *= 16;

    // Warm up caches/FTL state (the paper preconditions the devices and
    // warm-up phases before measuring), then measure on the continuing
    // streams.
    SmpModel smp(platform);
    smp.run(raw, budget / 2);
    return smp.run(raw, budget);
}

/**
 * Run @p count independent cells through @p body (serial or across the
 * HAMS_BENCH_THREADS pool), annotating any failure with @p label(i) so
 * the thrown error names the exact cell that died — a bare what()
 * rethrown from a worker is useless in a 100-cell sweep. With several
 * concurrent failures the lowest-index cell is reported, keeping the
 * error deterministic at any thread count. Throwing (instead of
 * returning partial data) is what guarantees callers can never print a
 * table with default-constructed holes. Exported (bench_util.hh) for
 * harnesses with custom cell types (fig_gc).
 */
void
runCells(std::size_t count,
         const std::function<std::string(std::size_t)>& label,
         const std::function<void(std::size_t)>& body)
{
    std::size_t workers = std::min(benchThreads(), count);

    auto annotate = [&](std::size_t i, const char* what) {
        return "sweep cell [" + label(i) + "]: " + what;
    };

    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) {
            try {
                body(i);
            } catch (const std::exception& e) {
                throw std::runtime_error(annotate(i, e.what()));
            }
        }
        return;
    }

    // Self-scheduling workers: each claims the next unclaimed cell.
    // Results land by input index, so completion order cannot change
    // the table. Errors land by index too, and after a failure only
    // cells BELOW the lowest failing index so far keep running — any
    // of them could fail with a lower index — so the reported failure
    // is always the lowest-index one regardless of which worker
    // tripped first, without paying for the cells behind it.
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> minFailed{count};
    std::vector<std::string> errors(count);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                std::size_t i = next.fetch_add(1);
                if (i >= count)
                    return;
                if (i > minFailed.load())
                    continue;
                try {
                    body(i);
                } catch (const std::exception& e) {
                    errors[i] = annotate(i, e.what());
                    std::size_t cur = minFailed.load();
                    while (i < cur &&
                           !minFailed.compare_exchange_weak(cur, i)) {
                    }
                }
            }
        });
    }
    for (auto& t : pool)
        t.join();
    if (minFailed.load() < count)
        throw std::runtime_error(errors[minFailed.load()]);
}

std::unique_ptr<ShardedPlatform>
makeShardedPlatform(const std::string& name, const BenchGeometry& geom,
                    std::uint32_t devices)
{
    std::vector<std::unique_ptr<MemoryPlatform>> shards;
    for (std::uint32_t s = 0; s < devices; ++s) {
        auto shard = makePlatform(name, geom);
        if (!shard)
            return nullptr;
        shards.push_back(std::move(shard));
    }
    return std::make_unique<ShardedPlatform>(std::move(shards));
}

std::vector<SmpCellResult>
runSweep(const std::vector<SweepCell>& cells)
{
    // Quiet the platform-construction banners (workers re-set the
    // atomic flag harmlessly via makePlatform).
    setQuiet(true);

    std::vector<SmpCellResult> results(cells.size());
    runCells(
        cells.size(),
        [&](std::size_t i) {
            const SweepCell& c = cells[i];
            std::string label = c.platform + " x " + c.workload + " x " +
                                std::to_string(c.cores) + "-core";
            if (c.devices > 1)
                label += " x " + std::to_string(c.devices) + "-dev";
            return label;
        },
        [&](std::size_t i) {
            const SweepCell& c = cells[i];
            SmpCellResult& r = results[i];
            std::unique_ptr<MemoryPlatform> platform =
                c.devices > 1
                    ? makeShardedPlatform(c.platform, c.geom, c.devices)
                    : makePlatform(c.platform, c.geom);
            if (!platform)
                throw std::runtime_error("unknown platform '" + c.platform +
                                         "'");
            r.smp = runOn(*platform, c.workload, c.geom, c.cores);
            if (auto* sp = dynamic_cast<ShardedPlatform*>(platform.get())) {
                r.sharded = sp->shardedStats();
                r.hasHamsStats = sp->aggregatedHamsStats(r.hams) > 0;
            } else if (auto* hams =
                           dynamic_cast<HamsSystem*>(platform.get())) {
                r.hasHamsStats = true;
                r.hams = hams->stats();
            }
        });
    return results;
}

void
runClosedLoop(MemoryPlatform& platform, std::uint32_t queue_depth,
              std::uint64_t completions,
              const std::function<MemAccess()>& next_access,
              const std::function<void(std::uint64_t, Tick, Tick)>& on_done)
{
    struct Slot
    {
        Tick nextIssue = 0;
        Tick issued = 0;
        Tick done = 0;
        bool inflight = false;
        bool arrived = false;
    };
    // Shared with the completion callbacks: accesses still in flight at
    // return keep their slots alive until they fire.
    auto slots = std::make_shared<std::vector<Slot>>(queue_depth);
    DomainConductor& eq = platform.conductor();
    std::uint64_t n = 0;

    // Report completed slots; returns whether any were pending.
    auto harvest = [&]() -> bool {
        bool any = false;
        for (Slot& s : *slots) {
            if (!s.arrived)
                continue;
            on_done(n++, s.issued, s.done);
            s.nextIssue = s.done;
            s.inflight = false;
            s.arrived = false;
            any = true;
        }
        return any;
    };

    while (n < completions) {
        Slot* next = nullptr;
        for (Slot& s : *slots)
            if (!s.inflight && (!next || s.nextIssue < next->nextIssue))
                next = &s;
        if (!next) {
            // Everything in flight: wait for one completion.
            bool stepped = true;
            while (!harvest() && (stepped = eq.step())) {
            }
            if (!stepped)
                throw std::runtime_error("access never completed");
            continue;
        }
        while (eq.nextTick() < next->nextIssue && eq.step()) {
        }
        if (harvest())
            continue;
        next->inflight = true;
        next->issued = next->nextIssue;
        std::size_t i = static_cast<std::size_t>(next - slots->data());
        platform.access(next_access(), next->issued,
                        [slots, i](Tick w, const LatencyBreakdown&) {
                            (*slots)[i].arrived = true;
                            (*slots)[i].done = w;
                        });
    }
}

Ssd&
backingSsdOf(MemoryPlatform& platform)
{
    if (auto* h = dynamic_cast<HamsSystem*>(&platform))
        return h->ullFlash();
    if (auto* m = dynamic_cast<MmapPlatform*>(&platform))
        return m->backingSsd();
    panic("platform without a backing SSD");
}

void
prefill(Ssd& ssd, std::uint64_t pages)
{
    PageFtl& ftl = ssd.pageFtl();
    Tick t = 0;
    std::uint32_t page_size = ssd.config().geom.pageSize;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
        t = ftl.writePage(lpn, page_size, t);
    ssd.flashLayer().reset();
    ftl.onFlashReset(); // handles died with the FIL's registry
}

std::string
jsonOutPath(const std::string& fallback)
{
    const char* env = std::getenv("HAMS_BENCH_JSON");
    return env && *env ? std::string(env) : fallback;
}

std::uint64_t
threadAllocCallsNow()
{
    return alloc_hook::threadNewCalls();
}

void
banner(const std::string& figure, const std::string& what)
{
    std::printf("================================================="
                "=============================\n");
    std::printf("%s — %s\n", figure.c_str(), what.c_str());
    std::printf("scale=%llu (set HAMS_BENCH_SCALE to enlarge)\n",
                static_cast<unsigned long long>(scale()));
    std::printf("================================================="
                "=============================\n");
}

} // namespace hams::bench
