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
 * near-full victims while the pool has runway. GC relocations share
 * the unit's active block with foreground writes.
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
 * Gate, checked in the binary (harness.hh; a failure exits 1): the
 * pacer engages (pace_level_max > 0) in at least one paced cell.
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
#include "harness.hh"
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

/** One cell's result and BENCH_gc.json row. */
#define HAMS_GC_RESULT_FIELDS(X)                                           \
    X(keep, double, opsPerSec)                                             \
    X(keep, double, p50Us)                                                 \
    X(keep, double, p99Us)                                                 \
    /* the GC cliff lives out here */                                      \
    X(keep, double, p999Us)                                                \
    X(keep, double, maxUs)                                                 \
    X(keep, FtlStats, ftl)                                                 \
    /* background (GC) flash ops and suspensions (FlashActivity) */        \
    X(keep, std::uint64_t, gcReads)                                        \
    X(keep, std::uint64_t, gcPrograms)                                     \
    X(keep, std::uint64_t, gcErases)                                       \
    X(keep, std::uint64_t, suspensions)                                    \
    X(keep, std::uint32_t, minFreeBlocks)                                  \
    /* end-of-run per-unit average */                                      \
    X(keep, double, avgFreeBlocks)                                         \
    /* sampled at every measured completion */                             \
    X(keep, double, avgFreeSustained)                                      \
    /* sustained free level's position in the [reserve, high] band */      \
    X(keep, double, bandOccupancy)                                         \
    /* 1 + GC relocations per host program */                              \
    X(keep, double, writeAmp)

struct GcResult
{
    HAMS_FIELDS(GcResult, HAMS_GC_RESULT_FIELDS)
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
    prefill(ssd, static_cast<std::uint64_t>(
                     static_cast<double>(ssd.pageFtl().logicalPages()) *
                     cell.fill));

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
    res.p50Us = static_cast<double>(lat[lat.size() / 2]) * 1e-6;
    res.p99Us =
        static_cast<double>(lat[(lat.size() - 1) * 99 / 100]) * 1e-6;
    res.p999Us =
        static_cast<double>(lat[(lat.size() - 1) * 999 / 1000]) * 1e-6;
    res.maxUs = static_cast<double>(lat.back()) * 1e-6;
    res.opsPerSec = static_cast<double>(lat.size()) /
                    ticksToSeconds(last_done - measure_start);
    res.ftl = ssd.ftlStats();
    FlashActivity flash = ssd.flashActivity();
    res.gcReads = flash.gcReads;
    res.gcPrograms = flash.gcPrograms;
    res.gcErases = flash.gcErases;
    res.suspensions = flash.suspensions;
    PageFtl& ftl = ssd.pageFtl();
    res.minFreeBlocks = ftl.minFreeBlocks();
    double sum = 0;
    for (std::uint64_t pu = 0; pu < ftl.parallelUnits(); ++pu)
        sum += ftl.freeBlocksOf(pu);
    res.avgFreeBlocks = sum / static_cast<double>(ftl.parallelUnits());
    res.avgFreeSustained =
        free_samples > 0 ? free_sum / static_cast<double>(free_samples)
                         : res.avgFreeBlocks;
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
    std::vector<std::string> names;
    for (const auto& p : platforms)
        for (double f : fills)
            for (GcMode m : {GcMode::Sync, GcMode::Bg, GcMode::Paced,
                             GcMode::Quality}) {
                cells.push_back({p, f, m});
                names.push_back("gc/" + p + "/fill" +
                                std::to_string(static_cast<int>(f * 100)) +
                                "/" + modeName(m));
            }

    // Cells own their platform, queue and seed: embarrassingly
    // parallel through the shared sweep runner, results reported in
    // input order (byte-identical at any HAMS_BENCH_THREADS).
    std::vector<GcResult> results(cells.size());
    try {
        runCells(
            cells.size(), [&](std::size_t i) { return names[i]; },
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

    BenchReport report;
    bool pacer_engaged = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const GcCell& c = cells[i];
        const GcResult& r = results[i];
        std::printf("%-8s %5.2f %6s %10.0f %9.1f %9.1f %10.1f %10.1f "
                    "%7llu %8llu %8llu %7llu %8u %6.2f %6.2f %5u\n",
                    c.platform.c_str(), c.fill, modeName(c.mode),
                    r.opsPerSec, r.p50Us, r.p99Us, r.p999Us, r.maxUs,
                    static_cast<unsigned long long>(r.ftl.erases),
                    static_cast<unsigned long long>(r.ftl.gcRelocations),
                    static_cast<unsigned long long>(
                        r.ftl.gcForegroundOverlap),
                    static_cast<unsigned long long>(r.suspensions),
                    r.minFreeBlocks, r.bandOccupancy, r.writeAmp,
                    r.ftl.paceLevelMax);
        report.row(names[i], r);
        if (c.mode == GcMode::Paced && r.ftl.paceLevelMax > 0)
            pacer_engaged = true;
    }
    report.check(pacer_engaged, "gc/*/paced",
                 "pacer engaged (pace_level_max > 0) in a paced cell");

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
                    cells[i].platform.c_str(), cells[i].fill, s.p99Us,
                    b.p99Us, p.p99Us, ratio, s.avgFreeSustained,
                    b.avgFreeSustained, p.avgFreeSustained, b.writeAmp,
                    p.writeAmp, q.writeAmp);
    }
    std::printf("\n");
    return report.finish(jsonOutPath("BENCH_gc.json"));
}
