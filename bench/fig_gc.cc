/**
 * @file
 * Sustained-random-write GC sweep: the classic SSD "GC cliff" that
 * synchronous collection makes invisible (ISSUE 4 / paper SSII-C).
 *
 * {hams-TE, hams-TP, mmap} × fill levels {25%, 50%, 70%} × GC mode
 * {sync, bg, paced, quality}: the device is pre-filled to the given
 * fraction of its logical space (then the flash busy-state is reset,
 * so the data is *laid out* but the device starts idle), and a closed
 * loop of random 64 B writes over a window 3x the host cache then
 * drives misses, dirty evictions and — as free blocks drain — garbage
 * collection. The paced mode enables the adaptive pacer on top of the
 * background engine (FtlConfig::gcAdaptivePacing); quality adds the
 * victim-quality gate (FtlConfig::gcVictimQuality), which defers
 * near-full victims while the pool has runway. Dedicated GC
 * relocation streams (gcStreamBlocks) stay off here by design: this
 * sweep's uniform random traffic has no cold data to quarantine, so a
 * stream block only ties up per-unit capacity — tests/test_gc.cc
 * demonstrates the occupancy headroom streams buy on skewed churn.
 *
 * Per cell: steady-state throughput, foreground p50/p99 latency, GC
 * overlap counters (host ops issued while a GC machine was active,
 * background flash ops, suspensions), the end-of-run free-block
 * level — which must match between the sync and bg rows for the p99
 * comparison to be apples-to-apples — plus the pacer columns: the
 * average free level's position inside the [reserve, high] watermark
 * band, foreground stall ticks, write amplification (1 + GC programs
 * per host program) and the deepest pacer level reached.
 *
 * Deterministic: fixed seeds, one fresh platform per cell; reruns —
 * at any HAMS_BENCH_THREADS setting — produce byte-identical tables.
 * Results land in BENCH_gc.json (HAMS_BENCH_JSON overrides,
 * HAMS_BENCH_SCALE enlarges the runs).
 */

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "bench_util.hh"
#include "core/hams_system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"

namespace {

using namespace hams;
using namespace hams::bench;

/** GC personality of one cell. */
enum class GcMode { Sync, Bg, Paced, Quality };

const char*
modeName(GcMode m)
{
    switch (m) {
      case GcMode::Sync: return "sync";
      case GcMode::Bg: return "bg";
      case GcMode::Paced: return "paced";
      case GcMode::Quality: return "quality";
    }
    return "?";
}

struct GcCell
{
    std::string platform; //!< hams-TE | hams-TP | mmap
    double fill;          //!< prefilled fraction of logical capacity
    GcMode mode = GcMode::Sync;
};

struct GcResult
{
    double opsPerSec = 0;
    double p50us = 0;
    double p99us = 0;
    double p999us = 0; //!< the GC cliff lives out here
    double maxus = 0;
    FtlStats ftl;
    FlashActivity flash;
    std::uint32_t minFree = 0;
    double avgFree = 0;          //!< end-of-run per-unit average
    double avgFreeSustained = 0; //!< sampled at every measured completion
    /** Sustained free level's position in the [reserve, high] band. */
    double bandOccupancy = 0;
    double writeAmp = 0; //!< 1 + GC relocations per host program
};

std::unique_ptr<MemoryPlatform>
buildPlatform(const GcCell& cell, const BenchGeometry& geom)
{
    setQuiet(true);
    FtlConfig ftl;
    ftl.backgroundGc = cell.mode != GcMode::Sync;
    if (cell.mode == GcMode::Paced || cell.mode == GcMode::Quality)
        ftl.gcAdaptivePacing = true;
    if (cell.mode == GcMode::Quality)
        ftl.gcVictimQuality = true;

    if (cell.platform == "mmap") {
        MmapConfig c;
        c.backend = MmapBackend::UllFlash;
        c.dramBytes = geom.hostMemBytes;
        c.pageCacheBytes = geom.hostMemBytes * 3 / 4;
        c.ssdRawBytes = geom.ssdRawBytes;
        // A stock-sized internal buffer would absorb the whole write
        // stream; shrink it so traffic reaches the FTL.
        c.ssdBufferBytes = 4ull << 20;
        c.ftl = ftl;
        return std::make_unique<MmapPlatform>(c);
    }

    HamsSystemConfig c = cell.platform == "hams-TP"
                             ? HamsSystemConfig::tightPersist()
                             : HamsSystemConfig::tightExtend();
    c.pinnedBytes = 32ull << 20;
    c.nvdimm.capacity = geom.hostMemBytes + c.pinnedBytes;
    c.ssdRawBytes = geom.ssdRawBytes;
    c.mosPageBytes = geom.mosPageBytes;
    c.functionalData = false; // timing-only
    c.ftl = ftl;
    return std::make_unique<HamsSystem>(c);
}

Ssd&
backingSsdOf(MemoryPlatform& p)
{
    if (auto* h = dynamic_cast<HamsSystem*>(&p))
        return h->ullFlash();
    if (auto* m = dynamic_cast<MmapPlatform*>(&p))
        return m->backingSsd();
    panic("fig_gc: platform without a backing SSD");
}

/**
 * Lay data out on @p frac of the logical space, then clear the flash
 * busy-state: the device starts the measured phase idle but full.
 */
void
prefill(Ssd& ssd, double frac)
{
    PageFtl& ftl = ssd.pageFtl();
    auto pages = static_cast<std::uint64_t>(
        static_cast<double>(ftl.logicalPages()) * frac);
    Tick t = 0;
    std::uint32_t page_size = ssd.config().geom.pageSize;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
        t = ftl.writePage(lpn, page_size, t);
    ssd.flashLayer().reset();
    ftl.onFlashReset(); // handles died with the FIL's registry
}

/** Outstanding accesses: sustained write pressure, not lock-step — a
 *  GC burst then delays every in-flight and arriving access, exactly
 *  the tail a QD-1 loop hides (the single triggering access would
 *  absorb the whole burst). */
constexpr std::uint32_t queueDepth = 8;

GcResult
runCell(const GcCell& cell, const BenchGeometry& geom,
        std::uint64_t warmup, std::uint64_t measured)
{
    GcResult res;
    auto platform = buildPlatform(cell, geom);
    Ssd& ssd = backingSsdOf(*platform);
    prefill(ssd, cell.fill);

    // Sustained random 64 B writes over a window 3x the host cache:
    // ~2/3 of accesses miss and evict a dirty page to the device.
    std::uint64_t window =
        std::min<std::uint64_t>(3 * geom.hostMemBytes,
                                platform->capacity());
    Rng rng(99);

    std::vector<Tick> lat;
    lat.reserve(measured);
    Tick measure_start = 0;
    Tick last_done = 0;
    PageFtl& sampled_ftl = ssd.pageFtl();
    double free_sum = 0;
    std::uint64_t free_samples = 0;
    // Measured-phase baselines: prefill and warmup writes run with
    // almost no GC and would dilute the write-amplification ratio.
    std::uint64_t base_writes = 0;
    std::uint64_t base_relocs = 0;

    runClosedLoop(
        *platform, queueDepth, warmup + measured,
        [&] {
            Addr addr = rng.below(window) & ~Addr(63);
            return MemAccess{addr, 64, MemOp::Write};
        },
        [&](std::uint64_t n, Tick issued, Tick done) {
            if (n == warmup) {
                measure_start = issued;
                base_writes = sampled_ftl.stats().hostWrites;
                base_relocs = sampled_ftl.stats().gcRelocations;
            }
            if (n < warmup || lat.size() >= measured)
                return;
            lat.push_back(done - issued);
            last_done = std::max(last_done, done);
            // Sample the device-wide free level at every measured
            // completion: "sustained" free level, not just the
            // end-of-run snapshot, is what the pacer equalizes.
            double sum = 0;
            for (std::uint64_t pu = 0; pu < sampled_ftl.parallelUnits();
                 ++pu)
                sum += sampled_ftl.freeBlocksOf(pu);
            free_sum +=
                sum / static_cast<double>(sampled_ftl.parallelUnits());
            ++free_samples;
        });

    std::sort(lat.begin(), lat.end());
    res.p50us = static_cast<double>(lat[lat.size() / 2]) * 1e-6;
    res.p99us =
        static_cast<double>(lat[(lat.size() - 1) * 99 / 100]) * 1e-6;
    res.p999us =
        static_cast<double>(lat[(lat.size() - 1) * 999 / 1000]) * 1e-6;
    res.maxus = static_cast<double>(lat.back()) * 1e-6;
    res.opsPerSec = static_cast<double>(lat.size()) /
                    ticksToSeconds(last_done - measure_start);
    res.ftl = ssd.ftlStats();
    res.flash = ssd.flashActivity();
    PageFtl& ftl = ssd.pageFtl();
    res.minFree = ftl.minFreeBlocks();
    double sum = 0;
    for (std::uint64_t pu = 0; pu < ftl.parallelUnits(); ++pu)
        sum += ftl.freeBlocksOf(pu);
    res.avgFree = sum / static_cast<double>(ftl.parallelUnits());
    res.avgFreeSustained =
        free_samples > 0 ? free_sum / static_cast<double>(free_samples)
                         : res.avgFree;
    const FtlConfig& fcfg = ftl.config();
    res.bandOccupancy =
        (res.avgFreeSustained - fcfg.gcReserveBlocks) /
        static_cast<double>(fcfg.gcHighWater - fcfg.gcReserveBlocks);
    // gcRelocations counts relocation programs in both GC
    // personalities (gcPrograms only covers background-priority ops);
    // measured-phase deltas, so the GC-free prefill/warmup writes do
    // not dilute the ratio.
    std::uint64_t meas_writes = res.ftl.hostWrites - base_writes;
    res.writeAmp =
        meas_writes > 0
            ? 1.0 + static_cast<double>(res.ftl.gcRelocations -
                                        base_relocs) /
                        static_cast<double>(meas_writes)
            : 1.0;
    return res;
}

} // namespace

int
main()
{
    banner("gc", "sustained-random-write GC interference sweep "
                 "(background vs synchronous collection)");
    BenchGeometry geom = BenchGeometry::scaled();
    std::uint64_t warmup = 3000 * scale();
    std::uint64_t measured = 6000 * scale();

    const std::vector<std::string> platforms = {"hams-TE", "hams-TP",
                                                "mmap"};
    const std::vector<double> fills = {0.25, 0.50, 0.70};

    std::vector<GcCell> cells;
    for (const auto& p : platforms)
        for (double f : fills)
            for (GcMode m : {GcMode::Sync, GcMode::Bg, GcMode::Paced,
                             GcMode::Quality})
                cells.push_back({p, f, m});

    // Cells own their platform, queue and seed: embarrassingly
    // parallel through the shared sweep runner, results reported in
    // input order (byte-identical at any HAMS_BENCH_THREADS).
    std::vector<GcResult> results(cells.size());
    try {
        runCells(
            cells.size(),
            [&](std::size_t i) {
                return cells[i].platform + " fill " +
                       std::to_string(cells[i].fill) + " " +
                       modeName(cells[i].mode);
            },
            [&](std::size_t i) {
                // mmap's per-access device volume is far smaller (4 KiB
                // writeback pages vs 128 KiB MoS evictions): give it
                // proportionally more accesses so the sweep reaches the
                // same free-block pressure.
                std::uint64_t mult = cells[i].platform == "mmap" ? 12 : 1;
                results[i] = runCell(cells[i], geom, warmup * mult,
                                     measured * mult);
            });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::printf("\n%-8s %5s %6s %10s %9s %9s %10s %10s %7s %8s %8s %7s "
                "%8s %6s %6s %5s\n",
                "platform", "fill", "mode", "ops/s", "p50(us)",
                "p99(us)", "p99.9(us)", "max(us)", "erases", "reloc",
                "overlap", "susp", "minFree", "band", "WA", "pace");

    std::string out = jsonOutPath("BENCH_gc.json");
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "could not write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const GcCell& c = cells[i];
        const GcResult& r = results[i];
        const char* mode = modeName(c.mode);
        std::printf("%-8s %5.2f %6s %10.0f %9.1f %9.1f %10.1f %10.1f "
                    "%7llu %8llu %8llu %7llu %8u %6.2f %6.2f %5u\n",
                    c.platform.c_str(), c.fill, mode, r.opsPerSec,
                    r.p50us, r.p99us, r.p999us, r.maxus,
                    static_cast<unsigned long long>(r.ftl.erases),
                    static_cast<unsigned long long>(r.ftl.gcRelocations),
                    static_cast<unsigned long long>(
                        r.ftl.gcForegroundOverlap),
                    static_cast<unsigned long long>(r.flash.suspensions),
                    r.minFree, r.bandOccupancy, r.writeAmp,
                    r.ftl.paceLevelMax);
        std::fprintf(
            f,
            "    {\"name\": \"gc/%s/fill%02d/%s\", "
            "\"ops_per_sec\": %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, "
            "\"p999_us\": %.3f, \"max_us\": %.3f, "
            "\"gc_runs\": %llu, \"erases\": %llu, "
            "\"gc_relocations\": %llu, "
            "\"gc_batches\": %llu, \"gc_write_stalls\": %llu, "
            "\"gc_stall_ticks\": %llu, \"gc_foreground_overlap\": %llu, "
            "\"gc_reads\": %llu, \"gc_programs\": %llu, "
            "\"gc_erases\": %llu, \"suspensions\": %llu, "
            "\"min_free_blocks\": %u, \"avg_free_blocks\": %.2f, "
            "\"avg_free_sustained\": %.3f, "
            "\"band_occupancy\": %.3f, \"write_amp\": %.3f, "
            "\"gc_stream_blocks\": %llu, \"gc_quality_deferrals\": %llu, "
            "\"pace_level_max\": %u}%s\n",
            c.platform.c_str(), static_cast<int>(c.fill * 100), mode,
            r.opsPerSec, r.p50us, r.p99us, r.p999us, r.maxus,
            static_cast<unsigned long long>(r.ftl.gcRuns),
            static_cast<unsigned long long>(r.ftl.erases),
            static_cast<unsigned long long>(r.ftl.gcRelocations),
            static_cast<unsigned long long>(r.ftl.gcBatches),
            static_cast<unsigned long long>(r.ftl.gcWriteStalls),
            static_cast<unsigned long long>(r.ftl.gcStallTicks),
            static_cast<unsigned long long>(r.ftl.gcForegroundOverlap),
            static_cast<unsigned long long>(r.flash.gcReads),
            static_cast<unsigned long long>(r.flash.gcPrograms),
            static_cast<unsigned long long>(r.flash.gcErases),
            static_cast<unsigned long long>(r.flash.suspensions),
            r.minFree, r.avgFree, r.avgFreeSustained, r.bandOccupancy,
            r.writeAmp,
            static_cast<unsigned long long>(r.ftl.gcStreamBlocks),
            static_cast<unsigned long long>(r.ftl.gcQualityDeferrals),
            r.ftl.paceLevelMax, i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    // Side-by-side tails: the background engine removes the sync GC
    // cliff; the pacer + GC streams hold the free level up the band
    // without giving the tail back; the victim-quality gate then
    // shaves write amplification on top of the paced engine.
    std::printf("\nforeground tail, sync vs background vs paced vs "
                "quality-gated GC:\n");
    std::printf("%-8s %5s %12s %12s %12s %8s %14s %14s\n", "platform",
                "fill", "sync p99", "bg p99", "paced p99", "ops b/p",
                "avgFree s/b/p", "WA b/p/q");
    for (std::size_t i = 0; i + 3 < cells.size(); i += 4) {
        const GcResult& s = results[i];
        const GcResult& b = results[i + 1];
        const GcResult& p = results[i + 2];
        const GcResult& q = results[i + 3];
        double ratio = b.opsPerSec > 0 ? p.opsPerSec / b.opsPerSec : 0;
        std::printf("%-8s %5.2f %10.1fus %10.1fus %10.1fus %7.2fx "
                    "%4.1f/%.1f/%.1f %4.2f/%.2f/%.2f\n",
                    cells[i].platform.c_str(), cells[i].fill, s.p99us,
                    b.p99us, p.p99us, ratio, s.avgFreeSustained,
                    b.avgFreeSustained, p.avgFreeSustained, b.writeAmp,
                    p.writeAmp, q.writeAmp);
    }
    std::printf("\nResults written to %s\n", out.c_str());
    return 0;
}
