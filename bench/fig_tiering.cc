/**
 * @file
 * Hotness-aware tiering sweep on the mmap platform: zipfian skew vs a
 * skew-oblivious page cache at equal DRAM.
 *
 * Zipf θ ∈ {0.6, 0.8, 0.99, 1.2} × tiering mode {off, inert, tier}: a
 * closed loop of 64 B accesses whose 4 KiB pages are drawn from a Gray
 * et al. zipfian generator over a window larger than the cache. Every
 * mode of a θ group runs with the *same* DRAM budget and FTL knobs —
 * the only difference is the TieringConfig:
 *
 *  - off:   tiering.enabled = false — the pre-PR skew-oblivious LRU.
 *  - inert: tracker allocated and fed, every consumer knob off. Its
 *           simulated outputs must be bit-identical to off (the
 *           tracker observes, never acts).
 *  - tier:  hot-frame pinning (cold-first eviction) and background
 *           promotion/demotion both on.
 *
 * Gates, checked in the binary (harness.hh; a failure exits 1):
 *  - every cell runs twice on a fresh platform and the two results are
 *    bit-identical (rerun_identical), at any HAMS_BENCH_THREADS;
 *  - inert cells' simulated outputs equal off's (inert_identical);
 *  - the headline: at high skew (θ >= 0.99) the tiering page cache
 *    holds at least the skew-oblivious one's ops/s — LRU wastes
 *    residency on zipf-tail one-hit-wonders that the cold-first
 *    selector evicts first;
 *  - the migration engine moves a frame in some tier cell.
 *
 * Results land in BENCH_tiering.json (HAMS_BENCH_JSON overrides,
 * HAMS_BENCH_SCALE enlarges the runs).
 */

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "bench_util.hh"
#include "harness.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"
#include "workload/workload.hh"

namespace {

using namespace hams;
using namespace hams::bench;

enum class TierMode { Off, Inert, Tier };

const char*
modeName(TierMode m)
{
    switch (m) {
      case TierMode::Off: return "off";
      case TierMode::Inert: return "inert";
      case TierMode::Tier: return "tier";
    }
    return "?";
}

struct TierCell
{
    double theta = 0;
    TierMode mode = TierMode::Off;
};

/**
 * A run's observable outputs — timing, cache and device traffic: what
 * the inert gate compares and the fingerprint covers. The consumers'
 * own action counters (promotions, rerouted writes) stay out, so a
 * knob that acts without moving any of these reads as inert.
 */
#define HAMS_TIER_OUTPUT_FIELDS(X)                                         \
    /* sum of measured access latencies */                                 \
    X(keep, Tick, latencySum)                                              \
    X(keep, Tick, measureStart)                                            \
    X(keep, Tick, lastDone)                                                \
    /* page-cache hits / page faults */                                    \
    X(keep, std::uint64_t, hits)                                           \
    X(keep, std::uint64_t, misses)                                         \
    X(keep, std::uint64_t, hostReads)                                      \
    X(keep, std::uint64_t, hostWrites)                                     \
    X(keep, std::uint64_t, gcRelocations)                                  \
    X(keep, std::uint64_t, erases)                                         \
    X(keep, std::uint64_t, bufferHits)                                     \
    X(keep, std::uint64_t, bufferMisses)

struct TierOutputs
{
    HAMS_FIELDS(TierOutputs, HAMS_TIER_OUTPUT_FIELDS)
};

/** One run's result and BENCH_tiering.json row. */
#define HAMS_TIER_RESULT_FIELDS(X)                                         \
    X(keep, double, opsPerSec)                                             \
    X(keep, double, hitRate)                                               \
    /* tracker-hot frames at end of run */                                 \
    X(keep, std::uint64_t, hotFrames)                                      \
    X(keep, TieringStats, tier)                                            \
    X(keep, TierOutputs, sim)                                              \
    /* fingerprint(sim) */                                                 \
    X(keep, std::uint64_t, fingerprint)                                    \
    X(keep, bool, rerunIdentical)                                          \
    X(keep, bool, inertIdentical)

struct TierResult
{
    HAMS_FIELDS(TierResult, HAMS_TIER_RESULT_FIELDS)
};

TieringConfig
tieringFor(TierMode mode)
{
    TieringConfig t;
    // Knobs scaled to the sweep: a long epoch + low threshold makes
    // hotness frequency-biased over the (scaled-down) run, so the hot
    // set grows to the same order as the contested cache.
    t.epochAccesses = 16384;
    t.hotThreshold = 2;
    if (mode == TierMode::Off)
        return t;
    t.enabled = true;
    if (mode == TierMode::Inert)
        return t; // observe only: every consumer stays off
    t.pinHotFrames = true;
    t.pinScanLimit = 64;
    t.migration = true;
    t.migScanFrames = 512;
    // The closed loop keeps the device busy every ~10-20 us of
    // simulated time, so the stock 50 us quiet window would never
    // open; shrink it so background steps interleave with the load.
    t.migIdleDelay = microseconds(2);
    return t;
}

std::unique_ptr<MmapPlatform>
buildPlatform(const TierCell& cell, const BenchGeometry& geom)
{
    setQuiet(true);
    // Stock FTL knobs in every mode: these runs never collect garbage
    // (gc_relocations and erases read 0 on every cell), so no GC knob
    // moves an output here.
    MmapConfig c;
    c.backend = MmapBackend::UllFlash;
    c.dramBytes = geom.hostMemBytes;
    // Page cache well under the zipf window so residency is the
    // contested resource the two policies fight over: LRU wastes
    // frames on zipf-tail one-hit-wonders streaming through.
    c.pageCacheBytes = geom.hostMemBytes / 16;
    c.ssdRawBytes = geom.ssdRawBytes;
    c.ssdBufferBytes = 4ull << 20;
    c.tiering = tieringFor(cell.mode);
    return std::make_unique<MmapPlatform>(c);
}

constexpr std::uint32_t queueDepth = 4;

TierResult
runOnce(const TierCell& cell, const BenchGeometry& geom,
        std::uint64_t warmup, std::uint64_t measured)
{
    TierResult res;
    auto platform = buildPlatform(cell, geom);
    Ssd& ssd = platform->backingSsd();

    std::uint64_t window =
        std::min<std::uint64_t>(2 * geom.datasetBytes,
                                platform->capacity());
    std::uint64_t frames = window / 4096;

    // Lay the window out on flash first: faults read real pages and
    // the migration engine has mapped frames to promote.
    prefill(ssd, window / ssd.config().geom.pageSize);
    ZipfGenerator zipf(frames, cell.theta);
    Rng rng(1234);

    TierOutputs& sim = res.sim;
    std::uint64_t lat_n = 0;

    runClosedLoop(
        *platform, queueDepth, warmup + measured,
        [&] {
            // One uniform draw for the page, one for the line, one for
            // the op: the stream is identical across modes and reruns.
            Addr addr = zipf.next(rng) * 4096 + rng.below(64) * 64;
            bool is_read = rng.uniform() < 0.8;
            return MemAccess{addr, 64, is_read ? MemOp::Read : MemOp::Write};
        },
        [&](std::uint64_t n, Tick issued, Tick done) {
            if (n == warmup)
                sim.measureStart = issued;
            if (n >= warmup && lat_n < measured) {
                sim.latencySum += done - issued;
                sim.lastDone = std::max(sim.lastDone, done);
                ++lat_n;
            }
        });

    sim.hits = platform->pageCacheHits();
    sim.misses = platform->pageFaults();
    if (const HotnessTracker* tracker = platform->hotnessTracker())
        for (std::uint64_t f = 0; f < tracker->frames(); ++f)
            res.hotFrames += tracker->isHotFrame(f) ? 1 : 0;

    sim.bufferHits = ssd.stats().bufferHits;
    sim.bufferMisses = ssd.stats().bufferMisses;
    const FtlStats& ftl = ssd.ftlStats();
    sim.hostReads = ftl.hostReads;
    sim.hostWrites = ftl.hostWrites;
    sim.gcRelocations = ftl.gcRelocations;
    sim.erases = ftl.erases;
    res.tier = ssd.tieringStats();
    res.hitRate = sim.hits + sim.misses > 0
                      ? static_cast<double>(sim.hits) /
                            static_cast<double>(sim.hits + sim.misses)
                      : 0;
    res.opsPerSec = static_cast<double>(lat_n) /
                    ticksToSeconds(sim.lastDone - sim.measureStart);
    res.fingerprint = fingerprint(sim);
    return res;
}

} // namespace

int
main()
{
    banner("tiering", "hotness-aware tiering vs skew-oblivious cache "
                      "(zipf sweep at equal DRAM)");
    BenchGeometry geom = BenchGeometry::scaled();
    std::uint64_t warmup = 4000 * scale();
    std::uint64_t measured = 20000 * scale();

    const std::vector<double> thetas = {0.6, 0.8, 0.99, 1.2};

    std::vector<TierCell> cells;
    std::vector<std::string> names;
    for (double t : thetas)
        for (TierMode m : {TierMode::Off, TierMode::Inert, TierMode::Tier}) {
            cells.push_back({t, m});
            char theta[16];
            std::snprintf(theta, sizeof(theta), "%.2f", t);
            names.push_back(std::string("tiering/mmap/theta") + theta +
                            "/" + modeName(m));
        }

    // Two complete runs per cell on fresh platforms: the tiering
    // machinery must be deterministic, so the results match exactly.
    std::vector<TierResult> results(cells.size());
    std::vector<TierResult> rerun(cells.size());
    try {
        runCells(
            cells.size(), [&](std::size_t i) { return names[i]; },
            [&](std::size_t i) {
                results[i] = runOnce(cells[i], geom, warmup, measured);
                rerun[i] = runOnce(cells[i], geom, warmup, measured);
            });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::printf("\n%5s %6s %10s %7s %9s %7s %7s %8s %6s\n", "theta",
                "mode", "ops/s", "hit%", "hot", "promo", "demo", "rerun",
                "inert");

    BenchReport report;
    bool migrated = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const TierCell& c = cells[i];
        TierResult& r = results[i];
        // Mode order within a theta group is off, inert, tier — the
        // off row anchors the two comparisons.
        const TierResult& off = results[i - i % 3];
        r.rerunIdentical =
            report.same(r, rerun[i], names[i], "rerun identical");
        r.inertIdentical =
            c.mode != TierMode::Inert ||
            report.same(r.sim, off.sim, names[i],
                        "inert outputs identical to off");
        if (c.mode == TierMode::Tier)
            migrated |= r.tier.promotions + r.tier.demotions > 0;
        std::printf("%5.2f %6s %10.0f %6.2f%% %9llu %7llu %7llu %8s %6s\n",
                    c.theta, modeName(c.mode), r.opsPerSec,
                    r.hitRate * 100,
                    static_cast<unsigned long long>(r.hotFrames),
                    static_cast<unsigned long long>(r.tier.promotions),
                    static_cast<unsigned long long>(r.tier.demotions),
                    r.rerunIdentical ? "ok" : "DIFF",
                    c.mode == TierMode::Inert
                        ? (r.inertIdentical ? "ok" : "DIFF")
                        : "-");
        report.row(names[i], r);
    }
    report.check(migrated, "tiering/mmap/*/tier",
                 "migration engine moved a frame");

    // Headline: at high skew the tiering page cache must beat (or at
    // worst match) the skew-oblivious one at equal DRAM.
    std::printf("\ntiering vs skew-oblivious cache (ops/s, equal "
                "DRAM):\n");
    std::printf("%5s %12s %12s %8s\n", "theta", "off", "tier", "ratio");
    for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
        const TierResult& off = results[i];
        const TierResult& tier = results[i + 2];
        double ratio =
            off.opsPerSec > 0 ? tier.opsPerSec / off.opsPerSec : 0;
        std::printf("%5.2f %12.0f %12.0f %7.2fx\n", cells[i].theta,
                    off.opsPerSec, tier.opsPerSec, ratio);
        if (cells[i].theta >= 0.99)
            report.check(tier.opsPerSec >= off.opsPerSec, names[i + 2],
                         "tiering holds the skew-oblivious ops/s at "
                         "high skew");
    }

    std::printf("\n");
    return report.finish(jsonOutPath("BENCH_tiering.json"));
}
