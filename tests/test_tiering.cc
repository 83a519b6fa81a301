/**
 * @file
 * Hotness-aware tiering, locked in by a differential suite: the
 * tracker's decay/epoch contract, the DramBuffer victim-selection seam
 * (default exact-LRU order pinned against a reference model before any
 * policy layers on top), the cold-first selector, and the guarantees
 * on the mmap platform, the one that runs a tracker — tiering
 * off/inert is bit-identical to no tiering at all (RunResult + FTL
 * counters), tiering on is rerun-deterministic and
 * inline-fast-path-invariant, hot-set residency grows with workload
 * skew, the touch on the hit path allocates nothing, and a tiering
 * switch that would be ignored is rejected at construction.
 */

#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "core/hotness_tracker.hh"
#include "cpu/core_model.hh"
#include "sim/alloc_hook.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/dram_buffer.hh"
#include "workload/workload.hh"

#include "expect_fields.hh"

namespace hams {
namespace {

// ------------------------------------------------------------ tracker

TieringConfig
trackerCfg(std::uint32_t epoch_accesses = 16, std::uint16_t threshold = 4)
{
    TieringConfig t;
    t.enabled = true;
    t.epochAccesses = epoch_accesses;
    t.hotThreshold = threshold;
    return t;
}

TEST(HotnessTracker, CountsSaturateAndCrossThreshold)
{
    HotnessTracker h(64 * 4096, trackerCfg(1u << 20, 4));
    EXPECT_EQ(h.frames(), 64u);
    EXPECT_FALSE(h.isHotFrame(3));
    for (int i = 0; i < 3; ++i)
        h.touch(3 * 4096);
    EXPECT_EQ(h.countOf(3), 3u);
    EXPECT_FALSE(h.isHotFrame(3)); // one short of the threshold
    h.touch(3 * 4096 + 123);       // any byte of the frame counts
    EXPECT_TRUE(h.isHotFrame(3));
    EXPECT_TRUE(h.isHotAddr(3 * 4096 + 4095));
    EXPECT_FALSE(h.isHotFrame(2));

    for (int i = 0; i < 100000; ++i)
        h.touch(5 * 4096);
    EXPECT_EQ(h.countOf(5), 0xFFFFu); // saturates, never wraps
}

TEST(HotnessTracker, LazyEpochDecayHalvesPerEpoch)
{
    // 8 touches per epoch: build a count, then let the epoch clock run
    // on *other* frames and watch the stale counter halve lazily.
    HotnessTracker h(64 * 4096, trackerCfg(8, 4));
    for (int i = 0; i < 8; ++i)
        h.touch(0); // frame 0 to count 8; the 8th touch turns the epoch
    // The stamp is written before the epoch advances, so the count
    // already reads one halving down.
    EXPECT_EQ(h.countOf(0), 4u);
    for (int i = 0; i < 8; ++i)
        h.touch(9 * 4096); // one more epoch turns
    EXPECT_EQ(h.countOf(0), 2u) << "one epoch = one halving";
    for (int i = 0; i < 8; ++i)
        h.touch(9 * 4096);
    EXPECT_EQ(h.countOf(0), 1u);
    EXPECT_FALSE(h.isHotFrame(0)) << "decayed below the threshold";
    // A touch applies the pending decay before incrementing.
    h.touch(0);
    EXPECT_EQ(h.countOf(0), 2u);
}

TEST(HotnessTracker, DeepDecayReadsZero)
{
    // 16+ epochs without a touch must read exactly zero (the shift is
    // clamped; a u16 >> 16 would be UB-adjacent and nonzero on some
    // machines).
    HotnessTracker h(64 * 4096, trackerCfg(1, 1));
    for (int i = 0; i < 10; ++i)
        h.touch(0);
    for (int i = 0; i < 20; ++i)
        h.touch(7 * 4096); // 20 epochs elapse
    EXPECT_EQ(h.countOf(0), 0u);
    EXPECT_FALSE(h.isHotFrame(0));
}

TEST(HotnessTracker, OutOfSpanTouchesAreIgnored)
{
    HotnessTracker h(16 * 4096, trackerCfg());
    h.touch(16 * 4096); // first frame past the span
    h.touch(~Addr(0));
    EXPECT_FALSE(h.isHotAddr(16 * 4096));
    EXPECT_FALSE(h.isHotFrame(123456));
}

TEST(HotnessTracker, ClearForgetsEverything)
{
    HotnessTracker h(64 * 4096, trackerCfg(8, 2));
    for (int i = 0; i < 6; ++i)
        h.touch(4 * 4096);
    EXPECT_TRUE(h.isHotFrame(4));
    h.clear();
    for (std::uint64_t f = 0; f < h.frames(); ++f) {
        EXPECT_EQ(h.countOf(f), 0u);
        EXPECT_FALSE(h.isHotFrame(f));
    }
}

TEST(HotnessTracker, ReplayIsBitIdentical)
{
    // The tracker is pure integer state driven by the touch stream:
    // same stream, same observable value at every frame.
    HotnessTracker a(256 * 4096, trackerCfg(32, 3));
    HotnessTracker b(256 * 4096, trackerCfg(32, 3));
    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        Addr addr = rng.below(256 * 4096);
        a.touch(addr);
        b.touch(addr);
    }
    EXPECT_EQ(a.epoch(), b.epoch());
    for (std::uint64_t f = 0; f < a.frames(); ++f)
        ASSERT_EQ(a.countOf(f), b.countOf(f)) << "frame " << f;
}

TEST(HotnessTracker, HotRangesCoalesceAdjacentFrames)
{
    HotnessTracker h(64 * 4096, trackerCfg(1u << 20, 2));
    for (std::uint64_t f : {3ull, 4ull, 5ull, 9ull})
        for (int i = 0; i < 2; ++i)
            h.touch(f * 4096);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    h.hotRanges(out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].first, 3u);
    EXPECT_EQ(out[0].second, 3u);
    EXPECT_EQ(out[1].first, 9u);
    EXPECT_EQ(out[1].second, 1u);
}

// ----------------------------------------- victim-selection seam (LRU)

DramBuffer
smallBuffer(std::uint64_t frames)
{
    DramBufferConfig c;
    c.capacity = frames * 4096;
    c.frameSize = 4096;
    return DramBuffer(c, 1u << 16);
}

/**
 * Reference LRU cache with the exact DramBuffer semantics (lookup
 * promotes, insert of a resident key promotes and ORs the dirty bit,
 * eviction takes the exact tail). Drives a randomized op stream against
 * both and demands identical eviction victims at every step: the seam's
 * default policy IS the pre-seam LRU, bit for bit.
 */
TEST(DramBufferSeam, DefaultVictimIsExactLruTail)
{
    DramBuffer buf = smallBuffer(8);
    std::list<std::uint64_t> ref; // front = most recent
    std::unordered_map<std::uint64_t, bool> refDirty;

    Rng rng(7);
    for (int i = 0; i < 50000; ++i) {
        std::uint64_t key = rng.below(32);
        std::uint64_t op = rng.below(4);
        if (op == 0) {
            bool hit = buf.lookup(key);
            bool ref_hit = refDirty.count(key) != 0;
            ASSERT_EQ(hit, ref_hit) << "step " << i;
            if (ref_hit) {
                ref.remove(key);
                ref.push_front(key);
            }
        } else {
            bool dirty = op == 2;
            BufferEviction ev = buf.insert(key, dirty);
            if (refDirty.count(key)) {
                ASSERT_FALSE(ev.happened) << "step " << i;
                ref.remove(key);
                ref.push_front(key);
                refDirty[key] = refDirty[key] || dirty;
            } else {
                if (ref.size() >= 8) {
                    std::uint64_t victim = ref.back();
                    ASSERT_TRUE(ev.happened) << "step " << i;
                    ASSERT_EQ(ev.frameKey, victim) << "step " << i;
                    ASSERT_EQ(ev.dirty, refDirty[victim]) << "step " << i;
                    ref.pop_back();
                    refDirty.erase(victim);
                } else {
                    ASSERT_FALSE(ev.happened) << "step " << i;
                }
                ref.push_front(key);
                refDirty[key] = dirty;
            }
        }
        ASSERT_EQ(buf.residentFrames(), ref.size());
    }
}

TEST(DramBufferSeam, ColdFirstSkipsHotTailFrames)
{
    HotnessTracker hot(64 * 4096, trackerCfg(1u << 20, 2));
    DramBuffer buf = smallBuffer(4);
    buf.setVictimSelector(makeColdFirstSelector(hot, 8));

    // Fill: LRU order (cold to hot end) is 1, 2, 3, 4.
    for (std::uint64_t k : {1ull, 2ull, 3ull, 4ull})
        buf.insert(k, false);
    // Frames 1 and 2 (the two LRU-tail candidates) are hot.
    for (int i = 0; i < 2; ++i) {
        hot.touch(1 * 4096);
        hot.touch(2 * 4096);
    }
    BufferEviction ev = buf.insert(5, false);
    ASSERT_TRUE(ev.happened);
    EXPECT_EQ(ev.frameKey, 3u) << "first cold frame from the tail";
    EXPECT_TRUE(buf.contains(1));
    EXPECT_TRUE(buf.contains(2));
}

TEST(DramBufferSeam, AllHotWindowFallsBackToExactLruTail)
{
    HotnessTracker hot(64 * 4096, trackerCfg(1u << 20, 1));
    DramBuffer buf = smallBuffer(4);
    buf.setVictimSelector(makeColdFirstSelector(hot, 8));
    for (std::uint64_t k : {1ull, 2ull, 3ull, 4ull}) {
        buf.insert(k, false);
        hot.touch(k * 4096); // everything resident is hot
    }
    BufferEviction ev = buf.insert(5, false);
    ASSERT_TRUE(ev.happened);
    EXPECT_EQ(ev.frameKey, 1u)
        << "bounded pinning: all-hot window degrades to exact LRU";
}

TEST(DramBufferSeam, ScanLimitBoundsThePinnedWindow)
{
    HotnessTracker hot(64 * 4096, trackerCfg(1u << 20, 1));
    DramBuffer buf = smallBuffer(4);
    buf.setVictimSelector(makeColdFirstSelector(hot, 2));
    for (std::uint64_t k : {1ull, 2ull, 3ull, 4ull})
        buf.insert(k, false);
    // Tail candidates 1 and 2 hot; 3 is cold but OUTSIDE the scan
    // window of 2, so the exact tail goes.
    hot.touch(1 * 4096);
    hot.touch(2 * 4096);
    BufferEviction ev = buf.insert(5, false);
    ASSERT_TRUE(ev.happened);
    EXPECT_EQ(ev.frameKey, 1u);
}

TEST(DramBufferSeam, ColdFirstSelectorStoresInline)
{
    // The selector runs per eviction on the hot path; its capture
    // {tracker pointer, u32 scan limit} must fit the InlineFunction
    // budget so installing it never allocates.
    struct Capture
    {
        const HotnessTracker* h;
        std::uint32_t scan_limit;
    };
    auto probe = [c = Capture{}](const DramBuffer&) -> std::uint32_t {
        return c.h ? 0 : DramBuffer::nilNode;
    };
    static_assert(
        DramBuffer::VictimSelector::storesInline<decltype(probe)>(),
        "cold-first selector capture exceeds the inline budget");

    HotnessTracker hot(4096, trackerCfg());
    alloc_hook::AllocCounter allocs;
    DramBuffer::VictimSelector sel = makeColdFirstSelector(hot, 8);
    EXPECT_EQ(allocs.delta(), 0u) << "selector construction allocated";
}

// ------------------------------------------------- platform differential

std::unique_ptr<SyntheticWorkload>
zipfWorkload(double theta, std::uint64_t dataset = 32ull << 20)
{
    WorkloadSpec s;
    s.name = "zipf";
    s.family = "micro";
    s.datasetBytes = dataset;
    s.pattern = AccessPattern::Random;
    s.readFraction = 0.8;
    s.accessesPerOp = 4;
    s.computePerAccess = 1;
    s.zipfTheta = theta;
    return std::make_unique<SyntheticWorkload>(s, 42);
}

std::unique_ptr<MmapPlatform>
smallMmap(const TieringConfig& tiering,
          std::uint64_t ssd_buffer_bytes = 4ull << 20)
{
    MmapConfig c;
    c.dramBytes = 64ull << 20;
    c.pageCacheBytes = 8ull << 20;
    c.ssdRawBytes = 1ull << 30;
    c.ssdBufferBytes = ssd_buffer_bytes;
    c.ftl.backgroundGc = true;
    c.tiering = tiering;
    return std::make_unique<MmapPlatform>(c);
}

void
expectIdentical(const HotnessTracker& a, const HotnessTracker& b,
                const char* what)
{
    ASSERT_EQ(a.frames(), b.frames()) << what;
    EXPECT_EQ(a.epoch(), b.epoch()) << what;
    for (std::uint64_t f = 0; f < a.frames(); ++f)
        ASSERT_EQ(a.countOf(f), b.countOf(f)) << what << " frame " << f;
}

TEST(TieringDifferential, InertTrackerIsOutputInertOnMmap)
{
    // enabled=true with every consumer off: the tracker observes every
    // access but the simulated outputs must be bit-identical to
    // tiering fully off. This is the differential that lets the other
    // tests attribute any divergence to a *consumer*, not the monitor.
    auto run = [](const TieringConfig& t, RunResult& meas,
                  std::unique_ptr<MmapPlatform>& keep) {
        keep = smallMmap(t);
        auto gen = zipfWorkload(0.99);
        CoreModel core(*keep);
        core.run(*gen, 100000);
        meas = core.run(*gen, 300000);
    };
    TieringConfig off;
    TieringConfig inert;
    inert.enabled = true;
    std::unique_ptr<MmapPlatform> p_off, p_inert;
    RunResult r_off, r_inert;
    run(off, r_off, p_off);
    run(inert, r_inert, p_inert);

    expectSameFields(r_off, r_inert, "mmap off vs inert");
    expectSameFields(p_off->backingSsd().ftlStats(),
                     p_inert->backingSsd().ftlStats(),
                     "mmap FTL off vs inert");
    EXPECT_EQ(p_off->pageFaults(), p_inert->pageFaults());
    EXPECT_EQ(p_off->pageCacheHits(), p_inert->pageCacheHits());
    EXPECT_EQ(p_off->writebacks(), p_inert->writebacks());
    EXPECT_EQ(p_off->eventQueue().now(), p_inert->eventQueue().now());

    // ... and the inert tracker really was watching.
    ASSERT_EQ(p_off->hotnessTracker(), nullptr);
    ASSERT_NE(p_inert->hotnessTracker(), nullptr);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    p_inert->hotnessTracker()->hotRanges(ranges);
    EXPECT_FALSE(ranges.empty()) << "zipf head never became hot";
}

TieringConfig
fullTiering()
{
    TieringConfig t;
    t.enabled = true;
    t.epochAccesses = 16384;
    t.hotThreshold = 2;
    t.pinHotFrames = true;
    t.pinScanLimit = 64;
    t.migration = true;
    t.migScanFrames = 512;
    t.migIdleDelay = microseconds(2);
    return t;
}

TEST(TieringDifferential, TieringOnRerunsBitIdentical)
{
    // Every consumer on (pinning + migration): two fresh runs must
    // agree on every simulated observable, including the tiering
    // engine's own counters.
    auto run = [](RunResult& meas, std::unique_ptr<MmapPlatform>& keep) {
        keep = smallMmap(fullTiering());
        auto gen = zipfWorkload(0.99);
        CoreModel core(*keep);
        core.run(*gen, 100000);
        meas = core.run(*gen, 300000);
    };
    std::unique_ptr<MmapPlatform> p1, p2;
    RunResult r1, r2;
    run(r1, p1);
    run(r2, p2);

    expectSameFields(r1, r2, "tiering-on rerun");
    expectSameFields(p1->backingSsd().ftlStats(),
                     p2->backingSsd().ftlStats(), "tiering-on rerun FTL");
    expectIdentical(*p1->hotnessTracker(), *p2->hotnessTracker(),
                    "tiering-on rerun tracker");
    expectSameFields(p1->backingSsd().tieringStats(),
                     p2->backingSsd().tieringStats(),
                     "tiering-on rerun migration");
    EXPECT_EQ(p1->eventQueue().now(), p2->eventQueue().now());

    // The knobs actually engaged: the migration engine moved frames.
    const TieringStats& tier = p1->backingSsd().tieringStats();
    EXPECT_GT(tier.promotions + tier.demotions, 0u);
}

TEST(TieringDifferential, InlineFastPathIdentityWithTieringOn)
{
    // Pinning + migration on the page cache and the SSD buffer:
    // forcing the inline fast path on/off must not move a single
    // simulated tick, tracker counter or migration step — the touch
    // happens exactly once per serve() on both paths, and the caller's
    // inline delivery rule orders completions against migration events.
    auto run = [](bool inline_on, RunResult& meas,
                  std::unique_ptr<MmapPlatform>& keep) {
        keep = smallMmap(fullTiering());
        EXPECT_TRUE(keep->backingSsd().migrationEnabled());
        auto gen = zipfWorkload(0.99);
        CoreConfig cc;
        cc.inlineFastPath = inline_on;
        CoreModel core(*keep, cc);
        core.run(*gen, 100000);
        meas = core.run(*gen, 300000);
    };
    std::unique_ptr<MmapPlatform> p_on, p_off;
    RunResult r_on, r_off;
    run(true, r_on, p_on);
    run(false, r_off, p_off);

    expectSameFields(r_on, r_off, "mmap tiering inline on/off");
    expectSameFields(p_on->backingSsd().ftlStats(),
                     p_off->backingSsd().ftlStats(),
                     "mmap tiering FTL inline on/off");
    expectSameFields(p_on->backingSsd().tieringStats(),
                     p_off->backingSsd().tieringStats(),
                     "mmap tiering migration inline on/off");
    expectIdentical(*p_on->hotnessTracker(), *p_off->hotnessTracker(),
                    "mmap tracker inline on/off");
    EXPECT_EQ(p_on->pageFaults(), p_off->pageFaults());
    EXPECT_EQ(p_on->pageCacheHits(), p_off->pageCacheHits());
    EXPECT_EQ(p_on->writebacks(), p_off->writebacks());
    EXPECT_EQ(p_on->eventQueue().now(), p_off->eventQueue().now());
    EXPECT_GT(p_on->backingSsd().tieringStats().promotions, 0u);
}

TEST(TieringDifferential, HotSetResidencyMonotoneInTheta)
{
    // The policy-level claim behind the whole PR: with the cold-first
    // selector installed, the fraction of the hot set resident in a
    // too-small cache grows with workload skew. Driven directly on the
    // DramBuffer + tracker (contains() never perturbs LRU order) so the
    // property is isolated from platform timing.
    auto residency = [](double theta) {
        const std::uint64_t span_frames = 16384;
        HotnessTracker hot(span_frames * 4096, [] {
            TieringConfig t;
            t.enabled = true;
            t.epochAccesses = 16384;
            t.hotThreshold = 2;
            return t;
        }());
        DramBuffer buf = smallBuffer(1024);
        buf.setVictimSelector(makeColdFirstSelector(hot, 64));

        ZipfGenerator zipf(span_frames, theta);
        Rng rng(1234);
        for (int i = 0; i < 200000; ++i) {
            std::uint64_t frame = zipf.next(rng);
            hot.touch(frame * 4096);
            if (!buf.lookup(frame))
                buf.insert(frame, false);
        }
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
        hot.hotRanges(ranges);
        std::uint64_t hot_frames = 0, resident = 0;
        for (const auto& [first, count] : ranges)
            for (std::uint64_t f = first; f < first + count; ++f) {
                ++hot_frames;
                if (buf.contains(f))
                    ++resident;
            }
        EXPECT_GT(hot_frames, 0u) << "theta " << theta;
        return static_cast<double>(resident) /
               static_cast<double>(hot_frames);
    };

    double r06 = residency(0.6);
    double r099 = residency(0.99);
    double r12 = residency(1.2);
    EXPECT_LE(r06, r099);
    EXPECT_LE(r099, r12);
    EXPECT_GT(r12, r06) << "skew must buy hot-set residency";
}

TEST(TieringZeroAlloc, TouchOnHitPathAllocatesNothing)
{
    // The FastPathZeroAlloc pattern with every consumer on: measured
    // runs differing only in op count — equal allocation deltas mean
    // the tracker touch (and the pinning selector and migration engine
    // it feeds) cost literally zero allocations per access.
    auto sys = smallMmap(fullTiering());
    auto gen = zipfWorkload(0.99, 16ull << 20);
    CoreModel core(*sys);
    core.run(*gen, 300000); // warm caches, pools, arenas

    alloc_hook::AllocCounter allocs;
    core.run(*gen, 100000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    core.run(*gen, 400000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations on the tiering hit path";
    EXPECT_GT(sys->pageCacheHits(), 0u);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    sys->hotnessTracker()->hotRanges(ranges);
    EXPECT_FALSE(ranges.empty());
}

// ------------------------------------------------------- config check

TEST(TieringConfigCheck, PinHotFramesWithoutEnabledIsRejected)
{
    TieringConfig t;
    t.pinHotFrames = true;
    EXPECT_THROW(smallMmap(t), FatalError);
}

TEST(TieringConfigCheck, MigrationWithoutEnabledIsRejected)
{
    TieringConfig t;
    t.migration = true;
    EXPECT_THROW(smallMmap(t), FatalError);
}

TEST(TieringConfigCheck, MigrationWithoutSsdBufferIsRejected)
{
    TieringConfig t;
    t.enabled = true;
    t.migration = true;
    EXPECT_THROW(smallMmap(t, /*ssd_buffer_bytes=*/0), FatalError);
}

TEST(TieringConfigCheck, OneErrorNamesEveryConflict)
{
    TieringConfig t;
    t.pinHotFrames = true;
    t.migration = true;
    try {
        smallMmap(t, /*ssd_buffer_bytes=*/0);
        FAIL() << "three conflicting tiering switches were accepted";
    } catch (const FatalError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("pinHotFrames without"), std::string::npos)
            << what;
        EXPECT_NE(what.find("migration without"), std::string::npos)
            << what;
        EXPECT_NE(what.find("no backing-SSD buffer"), std::string::npos)
            << what;
    }
}

TEST(TieringConfigCheck, SwitchesThatActStillConstruct)
{
    // fig_tiering's off mode: decay knobs set, every switch off.
    TieringConfig off;
    off.epochAccesses = 16384;
    off.hotThreshold = 2;
    EXPECT_NO_THROW(smallMmap(off));
    // Without an SSD buffer, pinning still acts on the page cache.
    TieringConfig pin;
    pin.enabled = true;
    pin.pinHotFrames = true;
    EXPECT_NO_THROW(smallMmap(pin, /*ssd_buffer_bytes=*/0));
    EXPECT_NO_THROW(smallMmap(fullTiering()));
}

} // namespace
} // namespace hams
