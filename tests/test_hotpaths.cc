/**
 * @file
 * Tests for the allocation-free hot-path machinery: the inline-callback
 * capture-size boundary, generation-tagged cancellation across slot
 * reuse, PRP-clone staging-buffer pooling, SparseMemory span transfers,
 * the DramBuffer intrusive LRU, and the zero-steady-state-allocation
 * property of the HAMS hit and dirty-miss paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/flatflash_platform.hh"
#include "baselines/mmap_platform.hh"
#include "baselines/oracle_platform.hh"
#include "core/hams_system.hh"
#include "ssd/device_configs.hh"
#include "ssd/ssd.hh"
#include "cpu/core_model.hh"
#include "mem/sparse_memory.hh"
#include "sim/alloc_hook.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "ssd/dram_buffer.hh"
#include "workload/workload.hh"

namespace hams {
namespace {

// ---------------------------------------------------------------------
// InlineFunction: capture-size boundary.
// ---------------------------------------------------------------------

template <std::size_t N>
struct Payload
{
    unsigned char bytes[N];
};

TEST(InlineFunction, CaptureSizeBoundary)
{
    using Fn = InlineFunction<void()>;
    static_assert(Fn::capacity() == 48);

    auto at_capacity = [p = Payload<48>{}] { (void)p; };
    auto over_capacity = [p = Payload<49>{}] { (void)p; };
    EXPECT_TRUE(Fn::storesInline<decltype(at_capacity)>());
    EXPECT_FALSE(Fn::storesInline<decltype(over_capacity)>());

    // In-budget captures never touch the heap...
    alloc_hook::AllocCounter allocs;
    Fn inline_fn(std::move(at_capacity));
    Fn moved = std::move(inline_fn);
    moved();
    EXPECT_EQ(allocs.delta(), 0u);

    // ...while oversized ones fall back to exactly one boxed allocation
    // and still work.
    allocs.rebase();
    Fn boxed_fn(std::move(over_capacity));
    EXPECT_EQ(allocs.delta(), 1u);
    boxed_fn();
}

TEST(InlineFunction, InvokesAndSupportsMoveOnlyState)
{
    int hits = 0;
    InlineFunction<void(int)> fn = [&hits](int v) { hits += v; };
    fn(2);
    fn(3);
    EXPECT_EQ(hits, 5);

    InlineFunction<void(int)> other = std::move(fn);
    EXPECT_FALSE(fn);
    EXPECT_TRUE(other);
    other(1);
    EXPECT_EQ(hits, 6);

    other = nullptr;
    EXPECT_FALSE(other);
}

TEST(InlineFunction, TriviallyCopyableCapturesMoveByMemcpy)
{
    using Fn = InlineFunction<void()>;
    int hits = 0;
    int* p = &hits;
    // The event-lambda shape: {this, ptr, int}.
    auto pod = [p, q = p, n = 3] { *p += n + int(q == p); };
    static_assert(Fn::movesTrivially<decltype(pod)>());
    auto counted = [s = std::make_shared<int>(1)] { (void)s; };
    static_assert(Fn::storesInline<decltype(counted)>());
    static_assert(!Fn::movesTrivially<decltype(counted)>());

    Fn a(pod);
    Fn b = std::move(a);
    Fn c;
    c = std::move(b);
    c();
    EXPECT_EQ(hits, 4);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);

    // A capture with a destructor still relocates and dies exactly once.
    std::weak_ptr<int> watch;
    {
        auto owner = std::make_shared<int>(7);
        watch = owner;
        Fn d([owner] { (void)owner; });
        owner.reset();
        Fn e = std::move(d);
        EXPECT_EQ(watch.use_count(), 1);
        e();
    }
    EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, ReturnsValues)
{
    InlineFunction<int(int, int)> add = [](int a, int b) { return a + b; };
    EXPECT_EQ(add(2, 3), 5);
}

// ---------------------------------------------------------------------
// EventQueue: generation-tagged cancellation across slot reuse.
// ---------------------------------------------------------------------

TEST(EventQueueGeneration, StaleIdCannotCancelReusedSlot)
{
    EventQueue eq;
    bool second_fired = false;

    EventId first = eq.schedule(10, [] {});
    eq.deschedule(first); // frees the slot
    // The next schedule reuses the freed slot under a new generation.
    eq.schedule(20, [&] { second_fired = true; });

    eq.deschedule(first); // stale id: must be a no-op
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(second_fired);
}

TEST(EventQueueGeneration, FiredIdCannotCancelReusedSlot)
{
    EventQueue eq;
    EventId first = eq.schedule(1, [] {});
    eq.run();

    bool fired = false;
    eq.schedule(5, [&] { fired = true; });
    eq.deschedule(first); // id of an already-fired event
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueueGeneration, CancelStormStaysConsistent)
{
    EventQueue eq;
    Rng rng(11);
    std::uint64_t fired = 0;
    std::uint64_t expected = 0;
    for (int round = 0; round < 100; ++round) {
        EventId ids[16];
        for (int i = 0; i < 16; ++i)
            ids[i] = eq.schedule(rng.below(50), [&] { ++fired; });
        // Cancel a pseudo-random half.
        int cancelled = 0;
        for (int i = 0; i < 16; ++i) {
            if (rng.below(2) == 0) {
                eq.deschedule(ids[i]);
                ++cancelled;
            }
        }
        expected += 16 - cancelled;
        eq.run();
    }
    EXPECT_EQ(fired, expected);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueReset, PreResetIdCannotCancelPostResetEvent)
{
    EventQueue eq;
    EventId stale = eq.schedule(10, [] {});
    eq.reset();

    bool fired = false;
    eq.schedule(10, [&] { fired = true; }); // reuses the same arena slot
    eq.deschedule(stale);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueueReset, ClearsAllBookkeeping)
{
    EventQueue eq;
    EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    eq.deschedule(a); // leave a stale heap entry behind
    eq.reset(/*rewind_time=*/true);

    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);

    // The queue is fully usable after reset.
    int count = 0;
    eq.schedule(5, [&] { ++count; });
    eq.schedule(6, [&] { ++count; });
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueueSteadyState, ScheduleFireCycleIsAllocationFree)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    // Warm the arena and the heap to their high-water marks.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 32; ++i)
            eq.schedule(i, [&sink] { ++sink; });
        eq.run();
    }

    alloc_hook::AllocCounter allocs;
    for (int round = 0; round < 16; ++round) {
        for (int i = 0; i < 32; ++i)
            eq.schedule(i, [&sink] { ++sink; });
        eq.run();
    }
    EXPECT_EQ(allocs.delta(), 0u);
    EXPECT_EQ(sink, 20u * 32u);
}

// ---------------------------------------------------------------------
// Pools.
// ---------------------------------------------------------------------

TEST(ObjectPoolTest, ReusesReleasedObjects)
{
    ObjectPool<int> pool;
    int* a = pool.acquire();
    int* b = pool.acquire();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.totalObjects(), 2u);

    pool.release(a);
    int* c = pool.acquire();
    EXPECT_EQ(c, a); // recycled, not freshly allocated
    EXPECT_EQ(pool.totalObjects(), 2u);
    EXPECT_EQ(pool.liveObjects(), 2u);
    pool.release(b);
    pool.release(c);
    EXPECT_EQ(pool.liveObjects(), 0u);
}

TEST(FrameBufferPoolTest, SteadyStateReuseIsAllocationFree)
{
    FrameBufferPool pool(4096);
    std::uint8_t* first = pool.acquire();
    pool.release(first);

    alloc_hook::AllocCounter allocs;
    for (int i = 0; i < 100; ++i) {
        std::uint8_t* f = pool.acquire();
        EXPECT_EQ(f, first);
        pool.release(f);
    }
    EXPECT_EQ(allocs.delta(), 0u);
    EXPECT_EQ(pool.totalFrames(), 1u);
}

// ---------------------------------------------------------------------
// SparseMemory: span transfers across frame boundaries and holes.
// ---------------------------------------------------------------------

TEST(SparseMemorySpan, WriteReadCrossingFrameBoundaries)
{
    SparseMemory m(1 << 20); // 4 KiB frames
    std::vector<std::uint8_t> out(10000);
    std::vector<std::uint8_t> in(10000);
    for (std::size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 7 + 1);

    // Start mid-frame so the span covers a partial, two full, and
    // another partial frame.
    Addr base = 4096 - 123;
    m.write(base, in.data(), in.size());
    EXPECT_EQ(m.allocatedFrames(), 4u);

    m.read(base, out.data(), out.size());
    EXPECT_EQ(std::memcmp(in.data(), out.data(), in.size()), 0);
}

TEST(SparseMemorySpan, ReadAcrossHolesZeroFills)
{
    SparseMemory m(1 << 20);
    // Write only the middle frame of a three-frame span.
    std::vector<std::uint8_t> marker(4096, 0xEE);
    m.write(4096, marker.data(), marker.size());
    EXPECT_EQ(m.allocatedFrames(), 1u);

    std::vector<std::uint8_t> out(3 * 4096, 0x55);
    m.read(0, out.data(), out.size());
    for (std::size_t i = 0; i < 4096; ++i)
        ASSERT_EQ(out[i], 0) << "leading hole at " << i;
    for (std::size_t i = 4096; i < 8192; ++i)
        ASSERT_EQ(out[i], 0xEE) << "written frame at " << i;
    for (std::size_t i = 8192; i < out.size(); ++i)
        ASSERT_EQ(out[i], 0) << "trailing hole at " << i;
    // Reading never allocates.
    EXPECT_EQ(m.allocatedFrames(), 1u);
}

TEST(SparseMemorySpan, LastFrameCacheSurvivesInterleavedAccess)
{
    SparseMemory m(1 << 20);
    m.writeValue<std::uint64_t>(0, 0x1111);
    m.writeValue<std::uint64_t>(8192, 0x2222);
    // Alternate frames so the single-entry cache keeps flipping.
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(m.readValue<std::uint64_t>(0), 0x1111u);
        EXPECT_EQ(m.readValue<std::uint64_t>(8192), 0x2222u);
    }
    m.clear();
    EXPECT_EQ(m.readValue<std::uint64_t>(0), 0u);
    EXPECT_EQ(m.allocatedFrames(), 0u);
}

TEST(SparseMemorySpan, SteadyStateOverwriteIsAllocationFree)
{
    SparseMemory m(1 << 20);
    std::vector<std::uint8_t> buf(3 * 4096, 0xAD);
    m.write(100, buf.data(), buf.size());

    alloc_hook::AllocCounter allocs;
    for (int i = 0; i < 50; ++i) {
        m.write(100, buf.data(), buf.size());
        m.read(100, buf.data(), buf.size());
    }
    EXPECT_EQ(allocs.delta(), 0u);
}

// ---------------------------------------------------------------------
// DramBuffer: intrusive LRU over a key-indexed link table (DirectTable)
// vs reference model.
// ---------------------------------------------------------------------

/** Straightforward list+map LRU to differentially test against. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::size_t capacity) : cap(capacity) {}

    bool
    lookup(std::uint64_t key)
    {
        auto it = pos.find(key);
        if (it == pos.end())
            return false;
        order.splice(order.begin(), order, it->second.first);
        return true;
    }

    BufferEviction
    insert(std::uint64_t key, bool dirty)
    {
        BufferEviction ev;
        auto it = pos.find(key);
        if (it != pos.end()) {
            order.splice(order.begin(), order, it->second.first);
            it->second.second = it->second.second || dirty;
            return ev;
        }
        if (pos.size() >= cap) {
            std::uint64_t victim = order.back();
            ev.happened = true;
            ev.dirty = pos[victim].second;
            ev.frameKey = victim;
            order.pop_back();
            pos.erase(victim);
        }
        order.push_front(key);
        pos[key] = {order.begin(), dirty};
        return ev;
    }

    std::size_t size() const { return pos.size(); }

  private:
    std::size_t cap;
    std::list<std::uint64_t> order;
    std::map<std::uint64_t, std::pair<std::list<std::uint64_t>::iterator,
                                      bool>>
        pos;
};

/**
 * Seeded lookup/insert churn on a 16-frame buffer against
 * ReferenceLru: the same victim key, dirty bit and residency after
 * every op. The ops draw from 64 slots; @p key_of maps a slot to its
 * frame key in a @p key_space-key buffer.
 */
template <typename KeyOf>
void
checkChurnAgainstReference(std::uint64_t key_space, KeyOf key_of)
{
    DramBufferConfig cfg;
    cfg.capacity = 16 * 4096; // 16 frames: constant eviction pressure
    cfg.frameSize = 4096;
    DramBuffer buf(cfg, key_space);
    ReferenceLru ref(16);

    Rng rng(42);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t key = key_of(rng.below(64));
        if (rng.below(2) == 0) {
            ASSERT_EQ(buf.lookup(key), ref.lookup(key)) << "op " << i;
        } else {
            bool dirty = rng.below(2) == 0;
            BufferEviction a = buf.insert(key, dirty);
            BufferEviction b = ref.insert(key, dirty);
            ASSERT_EQ(a.happened, b.happened) << "op " << i;
            if (a.happened) {
                ASSERT_EQ(a.frameKey, b.frameKey) << "op " << i;
                ASSERT_EQ(a.dirty, b.dirty) << "op " << i;
            }
        }
        ASSERT_EQ(buf.residentFrames(), ref.size()) << "op " << i;
    }
}

TEST(DramBufferLru, MatchesReferenceModelUnderChurn)
{
    // Dense: 64 adjacent keys, all in one leaf of links.
    checkChurnAgainstReference(64, [](std::uint64_t slot) { return slot; });
    if (::testing::Test::HasFatalFailure())
        return;
    // Spread: the same op mix over 64 keys across a 2^27-key space
    // (Optane-M's 512 GiB at 4 KiB per key), one leaf each, so every
    // LRU link crosses leaves.
    constexpr std::uint64_t space = 1ull << 27;
    checkChurnAgainstReference(space, [](std::uint64_t slot) {
        return slot * (space / 64) + (slot * 4099) % (space / 64);
    });
}

TEST(DramBuffer, KeyBeyondKeySpaceIsFatal)
{
    DramBufferConfig cfg;
    cfg.capacity = 4 * 4096;
    cfg.frameSize = 4096;
    DramBuffer buf(cfg, 64);
    for (std::uint64_t k = 0; k < 4; ++k)
        buf.insert(k, false); // full: a bad insert must not evict

    for (std::uint64_t key : {std::uint64_t(64), std::uint64_t(65),
                              std::uint64_t(1) << 40}) {
        for (bool dirty : {false, true}) {
            try {
                buf.insert(key, dirty);
                FAIL() << "insert(" << key << ", " << dirty
                       << ") was accepted";
            } catch (const FatalError& e) {
                std::string what = e.what();
                EXPECT_NE(what.find(std::to_string(key)),
                          std::string::npos)
                    << what;
                EXPECT_NE(what.find("64-key space"), std::string::npos)
                    << what;
            }
            EXPECT_FALSE(buf.contains(key));
            EXPECT_FALSE(buf.lookup(key));
            EXPECT_FALSE(buf.isDirty(key));
            EXPECT_FALSE(buf.markDirty(key));
            buf.markClean(key);
        }
    }
    EXPECT_EQ(buf.residentFrames(), 4u);
    EXPECT_EQ(buf.dirtyCount(), 0u);
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_TRUE(buf.contains(k)) << "key " << k;
}

TEST(DramBufferLru, DropAllForgetsEveryResidentKey)
{
    DramBufferConfig cfg;
    cfg.capacity = 8 * 4096;
    cfg.frameSize = 4096;
    constexpr std::uint64_t space = 1ull << 20;
    DramBuffer buf(cfg, space);
    // Twelve keys over many link leaves: eight stay resident, four were
    // evicted, and their links must read as not resident either way.
    for (std::uint64_t i = 0; i < 12; ++i)
        buf.insert(i * (space / 12), i % 3 == 0);
    buf.dropAll();
    EXPECT_EQ(buf.residentFrames(), 0u);
    EXPECT_EQ(buf.dirtyCount(), 0u);
    for (std::uint64_t i = 0; i < 12; ++i)
        EXPECT_FALSE(buf.contains(i * (space / 12))) << "key " << i;

    // Refilled, it evicts in insertion order like a new buffer.
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_FALSE(buf.insert(i * 7, false).happened);
    for (std::uint64_t i = 8; i < 12; ++i) {
        BufferEviction ev = buf.insert(i * 7, false);
        ASSERT_TRUE(ev.happened);
        EXPECT_EQ(ev.frameKey, (i - 8) * 7);
    }
}

TEST(DramBufferLru, WritebackRoundIsAllocationFree)
{
    DramBufferConfig cfg;
    cfg.capacity = 32 * 4096;
    cfg.frameSize = 4096;
    DramBuffer buf(cfg, 64);
    for (std::uint64_t k = 0; k < 24; ++k)
        buf.insert(k, /*dirty=*/true);

    // A round (the mmap watermark check runs one per newly dirtied
    // page) cleans the lowest-keyed batch while visiting it, then the
    // workload re-dirties those pages in place; neither allocates.
    constexpr std::size_t batch = 8;
    std::uint64_t cleaned[batch];
    alloc_hook::AllocCounter allocs;
    for (int round = 0; round < 100; ++round) {
        std::size_t n = 0;
        std::size_t visited =
            buf.forEachDirtyAscending(batch, [&](std::uint64_t key) {
                buf.markClean(key);
                cleaned[n++] = key;
            });
        ASSERT_EQ(visited, batch);
        ASSERT_EQ(buf.dirtyCount(), 24u - batch);
        for (std::size_t i = 0; i < batch; ++i) {
            ASSERT_EQ(cleaned[i], i) << "round " << round;
            ASSERT_TRUE(buf.markDirty(cleaned[i]));
        }
        ASSERT_FALSE(buf.markDirty(cleaned[0])) << "already dirty";
    }
    EXPECT_EQ(allocs.delta(), 0u);
    EXPECT_EQ(buf.dirtyFrames().size(), 24u);
}

/**
 * The dirty bitmap against a std::set reference under seeded churn:
 * inserts clean and dirty, re-dirtying resident frames, markClean,
 * writeback rounds that clean what they visit, capacity
 * evictions and dropAll. Keys span five summary words (4096 keys
 * each), in clusters that share bitmap words and straddle
 * summary-word boundaries. After every step the ascending visit, its
 * prefixes and dirtyCount() must match the reference.
 */
TEST(DramBufferDirty, AscendingMatchesSortedReference)
{
    constexpr std::size_t capacity = 48;
    constexpr std::uint64_t key_space = 5 * 4096;
    DramBufferConfig cfg;
    cfg.capacity = capacity * 4096;
    cfg.frameSize = 4096;
    DramBuffer buf(cfg, key_space);

    std::set<std::uint64_t> resident;
    std::set<std::uint64_t> dirty;
    Rng rng(4321);
    auto pick = [&rng]() -> std::uint64_t {
        if (rng.below(2) == 0)
            return rng.below(key_space);
        // 16-key clusters across the first four summary-word seams.
        std::uint64_t i = rng.below(64);
        return (i / 16) * 4096 + 4000 + (i % 16) * 7;
    };
    auto insert = [&](std::uint64_t key, bool d, int step) {
        BufferEviction ev = buf.insert(key, d);
        if (resident.count(key)) {
            ASSERT_FALSE(ev.happened) << "step " << step;
        } else if (resident.size() >= capacity) {
            ASSERT_TRUE(ev.happened) << "step " << step;
            ASSERT_EQ(resident.count(ev.frameKey), 1u) << "step " << step;
            ASSERT_EQ(ev.dirty, dirty.count(ev.frameKey) == 1)
                << "step " << step;
            resident.erase(ev.frameKey);
            dirty.erase(ev.frameKey);
        } else {
            ASSERT_FALSE(ev.happened) << "step " << step;
        }
        resident.insert(key);
        if (d)
            dirty.insert(key);
    };

    std::vector<std::uint64_t> got;
    for (int step = 0; step < 20000; ++step) {
        std::uint64_t key = pick();
        switch (rng.below(15)) {
          case 0: case 1: case 2: case 3:
            insert(key, /*dirty=*/true, step);
            break;
          case 4: case 5: case 6:
            insert(key, /*dirty=*/false, step);
            break;
          case 7: case 8: {
            bool became = resident.count(key) && !dirty.count(key);
            ASSERT_EQ(buf.markDirty(key), became) << "step " << step;
            if (became)
                dirty.insert(key);
            break;
          }
          case 9: case 10:
            buf.markClean(key);
            dirty.erase(key);
            break;
          case 11: {
            std::size_t batch = rng.below(8);
            std::size_t visited = buf.forEachDirtyAscending(
                batch, [&buf](std::uint64_t k) { buf.markClean(k); });
            ASSERT_EQ(visited, std::min(batch, dirty.size()))
                << "step " << step;
            for (std::size_t i = 0; i < visited; ++i)
                dirty.erase(dirty.begin());
            break;
          }
          case 12:
            if (rng.below(64) == 0) {
                buf.dropAll();
                resident.clear();
                dirty.clear();
            }
            break;
          default:
            ASSERT_EQ(buf.lookup(key), resident.count(key) == 1)
                << "step " << step;
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
        ASSERT_EQ(buf.isDirty(key), dirty.count(key) == 1)
            << "step " << step;
        ASSERT_EQ(buf.dirtyCount(), dirty.size()) << "step " << step;
        ASSERT_EQ(buf.residentFrames(), resident.size()) << "step " << step;
        std::vector<std::uint64_t> want(dirty.begin(), dirty.end());
        ASSERT_EQ(buf.dirtyFrames(), want) << "step " << step;
        for (std::size_t k : {std::size_t(0), std::size_t(1),
                              std::size_t(64), want.size()}) {
            got.clear();
            std::size_t visited = buf.forEachDirtyAscending(
                k, [&got](std::uint64_t key) { got.push_back(key); });
            std::size_t n = std::min(k, want.size());
            ASSERT_EQ(visited, n) << "step " << step << " k " << k;
            ASSERT_EQ(got, std::vector<std::uint64_t>(want.begin(),
                                                      want.begin() + n))
                << "step " << step << " k " << k;
        }
    }
}

TEST(DramBufferLru, SteadyStateChurnIsAllocationFree)
{
    DramBufferConfig cfg;
    cfg.capacity = 8 * 4096;
    cfg.frameSize = 4096;
    DramBuffer buf(cfg, 64);
    // Warm-up: the first insert allocates the link table's one leaf,
    // and the buffer fills past capacity so the loop evicts.
    for (std::uint64_t k = 0; k < 32; ++k)
        buf.insert(k, k % 2 == 0);

    alloc_hook::AllocCounter allocs;
    for (std::uint64_t k = 0; k < 1000; ++k) {
        buf.insert(k % 24, true);
        buf.lookup(k % 24);
        buf.markClean(k % 24);
    }
    EXPECT_EQ(allocs.delta(), 0u);
}

// ---------------------------------------------------------------------
// HAMS hot paths end to end: pooling + zero steady-state allocations.
// ---------------------------------------------------------------------

HamsSystemConfig
smallSystem(bool functional)
{
    HamsSystemConfig cfg = HamsSystemConfig::looseExtend();
    cfg.nvdimm.capacity = 128ull << 20;
    cfg.ssdRawBytes = 1ull << 30;
    cfg.pinnedBytes = 32ull << 20;
    cfg.functionalData = functional;
    return cfg;
}

TEST(HamsHotPath, PrpCloneStagingBufferIsPooled)
{
    HamsSystem sys(smallSystem(true));
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();

    // Back-to-back dirty misses: two aliasing pages, every write evicts
    // a dirty victim and clones it through the staging pool.
    std::uint32_t v = 1;
    for (int i = 0; i < 32; ++i)
        sys.write((i % 2) ? cache : 0, &v, sizeof(v));

    EXPECT_GE(sys.stats().prpClones, 30u);
    // One staging frame serves every clone; the pool never grows.
    EXPECT_EQ(sys.controller().stagingFramesAllocated(), 1u);
}

TEST(HamsHotPath, HitPathIsAllocationFreeInSteadyState)
{
    HamsSystem sys(smallSystem(false));
    std::uint32_t v = 1;
    sys.write(0, &v, sizeof(v)); // fault the page in
    for (int i = 0; i < 64; ++i) // warm pools/arena high-water marks
        sys.write((i % 2) ? 64 : 0, &v, sizeof(v));

    alloc_hook::AllocCounter allocs;
    for (int i = 0; i < 128; ++i)
        sys.write((i % 2) ? 64 : 0, &v, sizeof(v));
    EXPECT_EQ(allocs.delta(), 0u);
    EXPECT_GE(sys.stats().hits, 128u);
}

TEST(HamsHotPath, DirtyMissPathIsAllocationFreeInSteadyState)
{
    HamsSystem sys(smallSystem(false));
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    std::uint32_t v = 1;
    // Long warmup: grow every pool/arena (op contexts, waiter arena,
    // NVMe contexts, FTL block metadata, SSD buffer nodes) to steady
    // state, including a few GC cycles.
    for (int i = 0; i < 2048; ++i)
        sys.write((i % 2) ? cache : 0, &v, sizeof(v));

    alloc_hook::AllocCounter allocs;
    for (int i = 0; i < 64; ++i)
        sys.write((i % 2) ? cache : 0, &v, sizeof(v));
    EXPECT_EQ(allocs.delta(), 0u);
    EXPECT_GE(sys.stats().dirtyEvictions, 2000u);
}

// ---------------------------------------------------------------------
// Event-path completions: the baseline platforms' access() used to
// capture {cb, tick, breakdown} (> 48 B) in the completion lambda and
// silently box it on the heap per access. With pooled contexts the
// event path — misses, flushes, platforms that never complete inline —
// is allocation-free too.
// ---------------------------------------------------------------------

template <typename MakePlatform>
void
eventPathAllocFree(MakePlatform make, const std::string& workload,
                   std::uint64_t dataset_bytes = 16ull << 20)
{
    auto platform = make();
    auto gen = makeWorkload(workload, dataset_bytes);
    CoreConfig cc;
    cc.inlineFastPath = false; // every access pays the event round trip
    CoreModel core(*platform, cc);
    core.run(*gen, 300000); // warm page cache, pools, event arena

    // Equal deltas between a short and a long measured run pin
    // allocs_per_op at literally zero on the event path (each run pays
    // the same fixed CacheModel construction cost).
    alloc_hook::AllocCounter allocs;
    core.run(*gen, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    core.run(*gen, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations on the event path of "
        << platform->name();
    // One synchronous core never has more than one completion (plus a
    // background writeback or two) in flight.
    EXPECT_LE(platform->completionContextsAllocated(), 4u);
}

TEST(EventPathZeroAlloc, MmapCompletionsArePooled)
{
    // A 2 MiB sequential write stream: the whole dataset is resident
    // (and every buffer-cache structure at its high-water mark) after
    // the warmup sweeps, so the measured runs are pure steady state.
    eventPathAllocFree(
        [] {
            MmapConfig c;
            c.dramBytes = 64ull << 20;
            c.pageCacheBytes = 48ull << 20;
            c.ssdRawBytes = 1ull << 30;
            return std::make_unique<MmapPlatform>(c);
        },
        "seqWr", 2ull << 20);
}

TEST(EventPathZeroAlloc, OracleCompletionsArePooled)
{
    eventPathAllocFree(
        [] {
            OracleConfig c;
            c.capacityBytes = 64ull << 20;
            return std::make_unique<OraclePlatform>(c);
        },
        "rndRd");
}

TEST(EventPathZeroAlloc, HamsExtendEventPath)
{
    eventPathAllocFree(
        [] {
            HamsSystemConfig c = smallSystem(false);
            return std::make_unique<HamsSystem>(c);
        },
        "rndRd");
}

// ---------------------------------------------------------------------
// Thread-local allocation counting: a zero-alloc measurement on one
// thread must not be corrupted by other threads allocating (the bug
// that made per-cell allocs/access wrong under HAMS_BENCH_THREADS > 1).
// ---------------------------------------------------------------------

TEST(AllocHookThreadLocal, OtherThreadsDoNotPerturbThisThreadsCount)
{
    std::uint64_t global_before = alloc_hook::newCalls();

    // The std::thread constructor allocates on this thread, so start
    // the counter after the worker is already running.
    std::thread noisy([] {
        std::vector<int*> ptrs;
        ptrs.reserve(10000);
        for (int i = 0; i < 10000; ++i)
            ptrs.push_back(new int(i));
        for (int* p : ptrs)
            delete p;
    });

    alloc_hook::AllocCounter mine;
    noisy.join();

    EXPECT_EQ(mine.delta(), 0u)
        << "another thread's allocations leaked into this thread's count";
    // The process-global counter did see the noise.
    EXPECT_GE(alloc_hook::newCalls() - global_before, 10000u);
}

TEST(AllocHookThreadLocal, CountsOwnAllocations)
{
    alloc_hook::AllocCounter mine;
    std::vector<int*> ptrs;
    ptrs.reserve(32);
    for (int i = 0; i < 32; ++i)
        ptrs.push_back(new int(i));
    for (int* p : ptrs)
        delete p;
    EXPECT_GE(mine.delta(), 32u);
}

// ---------------------------------------------------------------------
// The two violations hamslint rediscovered, pinned at zero allocations:
// FlatFlash-M's per-access touch counter (was an unordered_map probe
// that could rehash-allocate per MMIO access) and the SSD's volatile
// write staging (was a fresh std::vector<uint8_t> per buffered write).
// ---------------------------------------------------------------------

TEST(FlatFlashHotPath, TouchCountingIsAllocationFree)
{
    FlatFlashConfig cfg;
    cfg.hostCaching = true;
    cfg.ssdRawBytes = 1ull << 30;
    // Never promote: every access stays on the MMIO path and bumps the
    // touch counter, so the loop below exercises exactly the table the
    // unordered_map used to back.
    cfg.promoteThreshold = ~std::uint32_t(0);
    FlatFlashPlatform p(cfg);

    auto touch = [&](std::uint64_t page) {
        MemAccess acc;
        acc.addr = page * 4096;
        acc.size = 64;
        acc.op = MemOp::Read;
        InlineCompletion out;
        ASSERT_TRUE(p.tryAccess(acc, p.eventQueue().now(), out));
    };

    // Warm-up faults the counter leaves and the SSD-internal tags in.
    for (std::uint64_t page = 0; page < 16; ++page)
        touch(page);

    alloc_hook::AllocCounter allocs;
    for (int round = 0; round < 64; ++round)
        for (std::uint64_t page = 0; page < 16; ++page)
            touch(page);
    EXPECT_EQ(allocs.delta(), 0u);
}

TEST(FlatFlashHotPath, PromotionStillFiresOnHotPages)
{
    FlatFlashConfig cfg;
    cfg.hostCaching = true;
    cfg.ssdRawBytes = 1ull << 30;
    cfg.promoteThreshold = 2;
    FlatFlashPlatform p(cfg);

    MemAccess acc;
    acc.addr = 8 * 4096;
    acc.size = 64;
    acc.op = MemOp::Read;
    InlineCompletion out;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(p.tryAccess(acc, p.eventQueue().now(), out));
    EXPECT_GE(p.promotions(), 1u);
    EXPECT_GE(p.hostHits(), 1u);
}

TEST(SsdVolatileStore, BufferedWriteFlushCycleIsAllocationFree)
{
    // Functional buffered SSD: every host write stages its payload in
    // the volatile store, every flush destages and erases it — the
    // churn that used to construct a std::vector<uint8_t> per write.
    Ssd ssd(ullFlashConfig(1ull << 30, /*functional_data=*/true,
                           /*with_supercap=*/true, /*with_buffer=*/true));
    std::vector<std::uint8_t> payload(nvmeBlockSize, 0xA5);
    Tick at = 0;

    auto cycle = [&] {
        for (std::uint64_t block = 0; block < 8; ++block)
            at = ssd.hostWrite(block, 1, /*fua=*/false, at,
                               payload.data());
        at = ssd.hostFlush(at);
    };
    // Warm the frame pool, key list, and index leaves past their
    // high-water marks. The FTL round-robins parallel units (128 in
    // this geometry) and first-touches each unit's active-block
    // metadata on its first program, so the warmup must cover at
    // least 128 flushed writePages before the steady state begins.
    for (int i = 0; i < 12; ++i)
        cycle();

    alloc_hook::AllocCounter allocs;
    for (int i = 0; i < 16; ++i)
        cycle();
    EXPECT_EQ(allocs.delta(), 0u);

    // The store actually round-trips data.
    std::vector<std::uint8_t> out(nvmeBlockSize, 0);
    ssd.hostWrite(3, 1, /*fua=*/false, at, payload.data());
    ssd.peek(3, 1, out.data());
    EXPECT_EQ(std::memcmp(out.data(), payload.data(), nvmeBlockSize), 0);
}

TEST(SsdVolatileStore, FlushDrainsInReproducibleLifoOrder)
{
    Ssd ssd(ullFlashConfig(1ull << 30, /*functional_data=*/true,
                           /*with_supercap=*/true, /*with_buffer=*/true));
    std::vector<std::uint8_t> payload(nvmeBlockSize, 0x5A);
    Tick at = 0;
    for (std::uint64_t block : {5, 1, 9, 2})
        at = ssd.hostWrite(block, 1, false, at, payload.data());
    ASSERT_EQ(ssd.volatileFrames(), 4u);
    ssd.hostFlush(at);
    EXPECT_EQ(ssd.volatileFrames(), 0u);
    std::vector<std::uint8_t> out(nvmeBlockSize, 0);
    for (std::uint64_t block : {5, 1, 9, 2}) {
        ssd.peek(block, 1, out.data());
        EXPECT_EQ(std::memcmp(out.data(), payload.data(), nvmeBlockSize),
                  0)
            << "block " << block;
    }
}

TEST(HamsHotPath, OpContextsAreReused)
{
    HamsSystem sys(smallSystem(false));
    std::uint32_t v = 1;
    sys.write(0, &v, sizeof(v));
    for (int i = 0; i < 256; ++i)
        sys.write((i % 2) ? 64 : 0, &v, sizeof(v));
    // Synchronous accesses never need more than a couple of in-flight
    // contexts regardless of access count.
    EXPECT_LE(sys.controller().opContextsAllocated(), 4u);
}

} // namespace
} // namespace hams
