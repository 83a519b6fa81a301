/**
 * @file
 * Hotness-aware tiering sweep: zipfian skew vs a skew-oblivious cache
 * at equal DRAM (ISSUE 10).
 *
 * {mmap, hams-TE} × zipf θ ∈ {0.6, 0.8, 0.99, 1.2} × tiering mode
 * {off, inert, tier}: a closed loop of 64 B accesses whose 4 KiB pages
 * are drawn from a Gray et al. zipfian generator over a window larger
 * than the cache. Every mode of a (platform, θ) group runs with the
 * *same* DRAM budget and FTL knobs — the only difference is the
 * TieringConfig:
 *
 *  - off:   tiering.enabled = false — the pre-PR skew-oblivious LRU.
 *  - inert: tracker allocated and fed, every consumer knob off. Must
 *           be bit-identical to off (the tracker observes, never
 *           acts); the harness checks the fingerprints and the CI gate
 *           fails on any divergence.
 *  - tier:  hot-frame pinning (cold-first eviction), background
 *           promotion/demotion and cold-write FTL placement all on.
 *
 * Every cell runs twice on a fresh platform; the integer-state
 * fingerprints must match (rerun_identical), at any
 * HAMS_BENCH_THREADS. The headline comparison: at high skew
 * (θ >= 0.99) the tiering cache must beat the skew-oblivious one on
 * the platform whose cache the knobs steer (mmap's page cache) — LRU
 * wastes residency on zipf-tail one-hit-wonders that the cold-first
 * selector evicts first. Results land in BENCH_tiering.json
 * (HAMS_BENCH_JSON overrides, HAMS_BENCH_SCALE enlarges the runs).
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
    std::string platform; //!< mmap | hams-TE
    double theta = 0;
    TierMode mode = TierMode::Off;
};

struct TierResult
{
    double opsPerSec = 0;
    double hitRate = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0; //!< page faults (mmap) / MoS misses (hams)
    TieringStats tier;
    std::uint64_t tierColdWrites = 0;
    std::uint64_t hotFrames = 0; //!< tracker-hot frames at end of run
    /** Mix of every integer observable; rerun/inert comparisons are
     *  exact equality on this, never on derived doubles. */
    std::uint64_t fingerprint = 0;
    bool rerunIdentical = false;
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
    t.coldWritePlacement = true;
    return t;
}

std::unique_ptr<MemoryPlatform>
buildPlatform(const TierCell& cell, const BenchGeometry& geom)
{
    setQuiet(true);
    // Identical FTL knobs in every mode: streams exist so cold-write
    // placement has somewhere to route, background GC runs the same
    // engine with or without tiering.
    FtlConfig ftl;
    ftl.backgroundGc = true;
    ftl.gcStreamBlocks = 1;

    if (cell.platform == "mmap") {
        MmapConfig c;
        c.backend = MmapBackend::UllFlash;
        c.dramBytes = geom.hostMemBytes;
        // Page cache well under the zipf window so residency is the
        // contested resource the two policies fight over: LRU wastes
        // frames on zipf-tail one-hit-wonders streaming through.
        c.pageCacheBytes = geom.hostMemBytes / 16;
        c.ssdRawBytes = geom.ssdRawBytes;
        c.ssdBufferBytes = 4ull << 20;
        c.ftl = ftl;
        c.tiering = tieringFor(cell.mode);
        return std::make_unique<MmapPlatform>(c);
    }

    HamsSystemConfig c = HamsSystemConfig::tightExtend();
    c.pinnedBytes = 32ull << 20;
    c.nvdimm.capacity = geom.hostMemBytes + c.pinnedBytes;
    c.ssdRawBytes = geom.ssdRawBytes;
    c.mosPageBytes = geom.mosPageBytes;
    c.functionalData = false;
    c.ftl = ftl;
    c.tiering = tieringFor(cell.mode);
    return std::make_unique<HamsSystem>(c);
}

Ssd&
backingSsdOf(MemoryPlatform& p)
{
    if (auto* h = dynamic_cast<HamsSystem*>(&p))
        return h->ullFlash();
    if (auto* m = dynamic_cast<MmapPlatform*>(&p))
        return m->backingSsd();
    panic("fig_tiering: platform without a backing SSD");
}

constexpr std::uint32_t queueDepth = 4;

std::uint64_t
mix64(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xBF58476D1CE4E5B9ull;
    return h ^ (h >> 31);
}

TierResult
runOnce(const TierCell& cell, const BenchGeometry& geom,
        std::uint64_t warmup, std::uint64_t measured)
{
    TierResult res;
    auto platform = buildPlatform(cell, geom);
    Ssd& ssd = backingSsdOf(*platform);

    std::uint64_t window =
        std::min<std::uint64_t>(2 * geom.datasetBytes,
                                platform->capacity());
    std::uint64_t frames = window / 4096;

    // Lay the window out on flash first (mapped LPNs, busy-state then
    // cleared): faults read real pages and the migration engine has
    // mapped frames to promote.
    {
        PageFtl& ftl = ssd.pageFtl();
        std::uint32_t page_size = ssd.config().geom.pageSize;
        std::uint64_t lpns = window / page_size;
        Tick t = 0;
        for (std::uint64_t lpn = 0; lpn < lpns; ++lpn)
            t = ftl.writePage(lpn, page_size, t);
        ssd.flashLayer().reset();
        ftl.onFlashReset();
    }
    ZipfGenerator zipf(frames, cell.theta);
    Rng rng(1234);

    Tick measure_start = 0;
    Tick last_done = 0;
    std::uint64_t lat_sum = 0;
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
                measure_start = issued;
            if (n >= warmup && lat_n < measured) {
                lat_sum += done - issued;
                last_done = std::max(last_done, done);
                ++lat_n;
            }
        });

    HotnessTracker* tracker = nullptr;
    if (auto* m = dynamic_cast<MmapPlatform*>(platform.get())) {
        res.hits = m->pageCacheHits();
        res.misses = m->pageFaults();
        tracker = m->hotnessTracker();
    } else if (auto* h = dynamic_cast<HamsSystem*>(platform.get())) {
        res.hits = h->stats().hits;
        res.misses = h->stats().misses;
        tracker = h->hotnessTracker();
    }
    if (tracker)
        for (std::uint64_t f = 0; f < tracker->frames(); ++f)
            res.hotFrames += tracker->isHotFrame(f) ? 1 : 0;

    res.tier = ssd.tieringStats();
    res.tierColdWrites = ssd.ftlStats().tierColdWrites;
    res.hitRate = res.hits + res.misses > 0
                      ? static_cast<double>(res.hits) /
                            static_cast<double>(res.hits + res.misses)
                      : 0;
    res.opsPerSec = static_cast<double>(lat_n) /
                    ticksToSeconds(last_done - measure_start);

    std::uint64_t fp = 0;
    fp = mix64(fp, lat_sum);
    fp = mix64(fp, last_done);
    fp = mix64(fp, measure_start);
    fp = mix64(fp, res.hits);
    fp = mix64(fp, res.misses);
    fp = mix64(fp, ssd.ftlStats().hostWrites);
    fp = mix64(fp, ssd.ftlStats().hostReads);
    fp = mix64(fp, ssd.ftlStats().gcRelocations);
    fp = mix64(fp, ssd.ftlStats().erases);
    fp = mix64(fp, ssd.stats().bufferHits);
    fp = mix64(fp, ssd.stats().bufferMisses);
    res.fingerprint = fp;
    return res;
}

TierResult
runCell(const TierCell& cell, const BenchGeometry& geom,
        std::uint64_t warmup, std::uint64_t measured)
{
    // Two complete runs on fresh platforms: the tiering machinery must
    // be deterministic, so the integer fingerprints match exactly.
    TierResult a = runOnce(cell, geom, warmup, measured);
    TierResult b = runOnce(cell, geom, warmup, measured);
    a.rerunIdentical = a.fingerprint == b.fingerprint;
    return a;
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

    const std::vector<std::string> platforms = {"mmap", "hams-TE"};
    const std::vector<double> thetas = {0.6, 0.8, 0.99, 1.2};

    std::vector<TierCell> cells;
    for (const auto& p : platforms)
        for (double t : thetas)
            for (TierMode m :
                 {TierMode::Off, TierMode::Inert, TierMode::Tier})
                cells.push_back({p, t, m});

    std::vector<TierResult> results(cells.size());
    try {
        runCells(
            cells.size(),
            [&](std::size_t i) {
                return cells[i].platform + " theta " +
                       std::to_string(cells[i].theta) + " " +
                       modeName(cells[i].mode);
            },
            [&](std::size_t i) {
                results[i] = runCell(cells[i], geom, warmup, measured);
            });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::printf("\n%-8s %5s %6s %10s %7s %9s %7s %7s %9s %8s %6s\n",
                "platform", "theta", "mode", "ops/s", "hit%", "hot",
                "promo", "demo", "coldWr", "rerun", "inert");

    bool all_ok = true;
    std::string out = jsonOutPath("BENCH_tiering.json");
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "could not write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const TierCell& c = cells[i];
        const TierResult& r = results[i];
        // Mode order within a (platform, theta) group is off, inert,
        // tier — the off row anchors the two comparisons.
        const TierResult& off = results[i - i % 3];
        bool inert_identical =
            c.mode != TierMode::Inert || r.fingerprint == off.fingerprint;
        if (!r.rerunIdentical || !inert_identical)
            all_ok = false;
        std::printf("%-8s %5.2f %6s %10.0f %6.2f%% %9llu %7llu %7llu "
                    "%9llu %8s %6s\n",
                    c.platform.c_str(), c.theta, modeName(c.mode),
                    r.opsPerSec, r.hitRate * 100,
                    static_cast<unsigned long long>(r.hotFrames),
                    static_cast<unsigned long long>(r.tier.promotions),
                    static_cast<unsigned long long>(r.tier.demotions),
                    static_cast<unsigned long long>(r.tierColdWrites),
                    r.rerunIdentical ? "ok" : "DIFF",
                    c.mode == TierMode::Inert
                        ? (inert_identical ? "ok" : "DIFF")
                        : "-");
        std::fprintf(
            f,
            "    {\"name\": \"tiering/%s/theta%.2f/%s\", "
            "\"ops_per_sec\": %.1f, \"hit_rate\": %.5f, "
            "\"hits\": %llu, \"misses\": %llu, \"hot_frames\": %llu, "
            "\"promotions\": %llu, \"demotions\": %llu, "
            "\"mig_steps\": %llu, \"pace_deferrals\": %llu, "
            "\"tier_cold_writes\": %llu, "
            "\"fingerprint\": %llu, "
            "\"rerun_identical\": %s, \"inert_identical\": %s}%s\n",
            c.platform.c_str(), c.theta, modeName(c.mode), r.opsPerSec,
            r.hitRate, static_cast<unsigned long long>(r.hits),
            static_cast<unsigned long long>(r.misses),
            static_cast<unsigned long long>(r.hotFrames),
            static_cast<unsigned long long>(r.tier.promotions),
            static_cast<unsigned long long>(r.tier.demotions),
            static_cast<unsigned long long>(r.tier.migSteps),
            static_cast<unsigned long long>(r.tier.paceDeferrals),
            static_cast<unsigned long long>(r.tierColdWrites),
            static_cast<unsigned long long>(r.fingerprint),
            r.rerunIdentical ? "true" : "false",
            inert_identical ? "true" : "false",
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    // Headline: at high skew the tiering cache must beat (or at worst
    // match) the skew-oblivious one at equal DRAM on the platform
    // whose cache the knobs steer.
    std::printf("\ntiering vs skew-oblivious cache (ops/s, equal "
                "DRAM):\n");
    std::printf("%-8s %5s %12s %12s %8s\n", "platform", "theta", "off",
                "tier", "ratio");
    for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
        const TierResult& off = results[i];
        const TierResult& tier = results[i + 2];
        double ratio =
            off.opsPerSec > 0 ? tier.opsPerSec / off.opsPerSec : 0;
        std::printf("%-8s %5.2f %12.0f %12.0f %7.2fx\n",
                    cells[i].platform.c_str(), cells[i].theta,
                    off.opsPerSec, tier.opsPerSec, ratio);
        if (cells[i].platform == "mmap" && cells[i].theta >= 0.99 &&
            tier.opsPerSec < off.opsPerSec) {
            std::printf("  ^ FAIL: tiering below skew-oblivious at "
                        "high skew\n");
            all_ok = false;
        }
    }

    std::printf("\nResults written to %s\n", out.c_str());
    if (!all_ok) {
        std::fprintf(stderr, "fig_tiering: determinism or high-skew "
                             "gate violated\n");
        return 1;
    }
    return 0;
}
