/**
 * @file
 * google-benchmark microbenchmarks over the simulator's hot paths and
 * the design-choice ablations DESIGN.md calls out (tag probe cost,
 * dual-channel split, clone-vs-serialize hazard policies).
 *
 * Results are written to BENCH_hotpaths.json (override the path with
 * HAMS_BENCH_JSON) so every PR records a perf trajectory; the
 * `allocs_per_op` counters report steady-state heap allocations per
 * simulated operation, which the hot paths keep at zero.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/hams_system.hh"
#include "core/mos_tag_array.hh"
#include "cpu/cache_model.hh"
#include "cpu/core_model.hh"
#include "dram/dram_device.hh"
#include "ftl/page_ftl.hh"
#include "mem/sparse_memory.hh"
#include "nvme/queue_pair.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "ssd/device_configs.hh"
#include "ssd/dram_buffer.hh"
#include "workload/workload.hh"

namespace {

using namespace hams;

/** Report heap allocations per loop iteration of the timed run. */
void
reportAllocRate(benchmark::State& state, std::uint64_t alloc_start)
{
    state.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(bench::threadAllocCallsNow() - alloc_start) /
        static_cast<double>(state.iterations()));
}

void
BM_EventQueueScheduleRun(benchmark::State& state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    auto round = [&] {
        for (int i = 0; i < 64; ++i)
            eq.schedule(i, [&sink] { ++sink; });
        eq.run();
    };
    // Grow the slot arena and the heap to the round's high-water mark
    // so the timed loop measures the steady state.
    round();
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        round();
    benchmark::DoNotOptimize(sink);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueScheduleCancel(benchmark::State& state)
{
    // Schedule/deschedule churn: the generation-tagged free-list arena
    // replaces the old hash-set lazy-cancel scheme.
    EventQueue eq;
    EventId ids[64];
    auto round = [&] {
        for (int i = 0; i < 64; ++i)
            ids[i] = eq.schedule(i + 1, [] {});
        for (int i = 0; i < 64; ++i)
            eq.deschedule(ids[i]);
        eq.run();
    };
    round(); // warm the arena and the heap, as above
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        round();
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_EventQueueScheduleCancel);

/** An event that re-arms itself @c period ticks later, forever. */
struct SelfRearm
{
    EventQueue* eq;
    Tick period;

    void operator()() const { eq->schedule(period, *this); }
};

void
BM_EventQueueSelfRearm(benchmark::State& state)
{
    // The background-GC poll shape: 128 pending events (one step per GC
    // machine), each firing only to re-arm itself at a later tick. One
    // iteration fires one event.
    EventQueue eq;
    for (Tick i = 0; i < 128; ++i)
        eq.schedule(i, SelfRearm{&eq, 1000 + 37 * i});
    for (int i = 0; i < 4 * 128; ++i)
        eq.step();
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        eq.step();
    benchmark::DoNotOptimize(eq.now());
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_EventQueueSelfRearm);

void
BM_TagArrayProbe(benchmark::State& state)
{
    MosTagArray tags(8ull << 30, 128 * 1024);
    Rng rng(1);
    std::uint64_t hits = 0;
    for (auto _ : state) {
        Addr a = rng.below(64ull << 30);
        hits += tags.hit(a);
    }
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_TagArrayProbe);

void
BM_DramAccess64B(benchmark::State& state)
{
    DramDevice dram(Ddr4Timing::speedGrade(paperDdr4Mts), 1ull << 30);
    Rng rng(2);
    Tick t = 0;
    for (auto _ : state)
        t = dram.access(rng.below(1ull << 30) & ~Addr(63), 64,
                        MemOp::Read, t).ready;
    benchmark::DoNotOptimize(t);
}
BENCHMARK(BM_DramAccess64B);

void
BM_FtlWritePage(benchmark::State& state)
{
    FlashGeometry g;
    g.channels = 8;
    g.blocksPerPlane = 256;
    g.pageSize = 2048;
    Fil fil(g, NandTiming::zNand());
    PageFtl ftl(g, fil);
    Rng rng(3);
    Tick t = 0;
    std::uint64_t hot = ftl.logicalPages() / 2;
    // Warm every block's lazy reverse-map arrays and the hot range's
    // L2P leaves (first-touch is amortized, as in BM_FtlAllocate) so
    // the timed loop measures the steady-state write path.
    for (std::uint64_t i = 0; i < hot * 4; ++i)
        t = ftl.writePage(rng.below(hot), 2048, t);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        t = ftl.writePage(rng.below(hot), 2048, t);
    benchmark::DoNotOptimize(t);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_FtlWritePage);

void
BM_FtlAllocate(benchmark::State& state)
{
    // Stress the free-block allocator: tiny blocks so nearly every
    // write opens a fresh one, thousands of free blocks in the unit so
    // the old O(free-list) wear scan would dominate. The min-wear heap
    // keeps this O(log n) — and allocation-free.
    FlashGeometry g;
    g.channels = 1;
    g.packagesPerChannel = 1;
    g.diesPerPackage = 1;
    g.planesPerDie = 1;
    g.blocksPerPlane = 4096;
    g.pagesPerBlock = 4;
    g.pageSize = 2048;
    Fil fil(g, NandTiming::zNand());
    PageFtl ftl(g, fil);
    Rng rng(5);
    std::uint64_t hot = ftl.logicalPages() / 2;
    Tick t = 0;
    // Warm every block's lazy reverse-map arrays (first-touch is
    // amortized, like sparse memory's) so the timed loop measures the
    // steady-state allocator.
    for (std::uint64_t i = 0; i < hot * 4; ++i)
        t = ftl.writePage(rng.below(hot), 2048, t);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        t = ftl.writePage(rng.below(hot), 2048, t);
    benchmark::DoNotOptimize(t);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_FtlAllocate);

/**
 * Foreground @p fg ops on one die keep suspending background programs
 * while Arg(0) tracked background ops stay live across the device.
 * The suspended die and its channel each hold one tracked op and the
 * rest sit on other channels, so a registry that walks only the
 * affected die/channel lists costs the same at every Arg.
 */
void
filSuspendTrackedOps(benchmark::State& state, FlashOp::Type fg)
{
    FlashGeometry g;
    g.channels = 8;
    g.packagesPerChannel = 1;
    g.diesPerPackage = 4;
    g.planesPerDie = 2;
    g.blocksPerPlane = 16;
    g.pagesPerBlock = 32;
    g.pageSize = 2048;
    Fil fil(g, NandTiming::zNand());
    // Background work latched far in the future stays in flight for
    // the whole run, so every foreground op suspends and bumps it.
    const Tick horizon = seconds(1e5);
    auto background = [&](FlashOp::Type type, std::uint32_t ch,
                          std::uint32_t die) {
        FlashOp op{type, FlashAddress{ch, 0, die, 0, 0, 0}.flatten(g), 2048,
                   /*background=*/true};
        fil.submitTracked(op, horizon);
    };
    background(FlashOp::Type::Program, 0, 0); // the suspended die
    background(FlashOp::Type::Read, 0, 1);    // bumped off its channel
    for (std::int64_t i = 2; i < state.range(0); ++i) {
        auto ch = static_cast<std::uint32_t>(1 + i % (g.channels - 1));
        auto die = static_cast<std::uint32_t>(i / (g.channels - 1) %
                                              g.diesPerPackage);
        background(i % 2 ? FlashOp::Type::Read : FlashOp::Type::Program, ch,
                   die);
    }

    FlashOp op{fg, 0, 2048};
    Tick t = 0;
    std::uint64_t suspensions = fil.activity().suspensions;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        t = fil.submit(op, t);
    reportAllocRate(state, allocs);
    benchmark::DoNotOptimize(t);
    state.counters["suspensions_per_op"] = benchmark::Counter(
        static_cast<double>(fil.activity().suspensions - suspensions) /
        static_cast<double>(state.iterations()));
}

void
BM_FilSuspendTrackedOps(benchmark::State& state)
{
    filSuspendTrackedOps(state, FlashOp::Type::Read);
}
BENCHMARK(BM_FilSuspendTrackedOps)->Arg(16)->Arg(256);

void
BM_FilSuspendTrackedPrograms(benchmark::State& state)
{
    filSuspendTrackedOps(state, FlashOp::Type::Program);
}
BENCHMARK(BM_FilSuspendTrackedPrograms)->Arg(16)->Arg(256);

void
BM_QueuePairPushFetch(benchmark::State& state)
{
    SparseMemory mem(1 << 20);
    QueuePair qp(mem, 0, 512 << 10, 256);
    NvmeCommand cmd = makeReadCommand(1, 0, 32, 0);
    for (auto _ : state) {
        qp.push(cmd);
        benchmark::DoNotOptimize(qp.fetch());
    }
}
BENCHMARK(BM_QueuePairPushFetch);

void
BM_CacheModelAccess(benchmark::State& state)
{
    CacheModel l1(CacheConfig{64 * 1024, 64, 4, nanoseconds(1)});
    Rng rng(4);
    std::uint64_t hits = 0;
    for (auto _ : state)
        hits += l1.access(rng.below(1 << 20), false).hit;
    benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_CacheModelAccess);

/**
 * The core's L2 on perfbench tp_read_hits' traffic shape: 8-way, 2 MiB,
 * random lines over 128 MiB, so ~98% of probes miss and take the
 * victim path.
 */
void
BM_CacheModelMissPath(benchmark::State& state)
{
    CacheModel l2(CacheConfig{2 << 20, 64, 8, nanoseconds(5)});
    Rng rng(4);
    std::uint64_t hits = 0;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        hits += l2.access(rng.below(128 << 20), false).hit;
    benchmark::DoNotOptimize(hits);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_CacheModelMissPath);

/**
 * One mmap background writeback round on perfbench mmap_update's page
 * cache: 12,288 resident pages of a 1 GiB file, 30% of them dirty,
 * batch 64. Each op cleans the 64 lowest-keyed dirty pages, then
 * re-dirties 64 random clean resident pages so the dirty population
 * holds steady.
 */
void
BM_MmapWritebackRound(benchmark::State& state)
{
    constexpr std::uint64_t frames = 12288;
    constexpr std::uint64_t file_pages = (1ull << 30) / 4096;
    constexpr std::uint32_t batch = 64;
    DramBufferConfig cfg;
    cfg.capacity = frames * 4096;
    DramBuffer buf(cfg, file_pages);
    Rng rng(8);
    std::vector<std::uint64_t> resident;
    resident.reserve(frames);
    while (resident.size() < frames) {
        std::uint64_t page = rng.below(file_pages);
        if (buf.contains(page))
            continue;
        buf.insert(page, /*dirty=*/resident.size() % 10 < 3);
        resident.push_back(page);
    }
    std::uint64_t cleaned = 0;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        cleaned += buf.forEachDirtyAscending(
            batch, [&buf](std::uint64_t page) { buf.markClean(page); });
        for (std::uint32_t n = 0; n < batch;)
            n += buf.markDirty(resident[rng.below(frames)]);
    }
    benchmark::DoNotOptimize(cleaned);
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_MmapWritebackRound);

/**
 * The page-cache traffic of perfbench's mmap_update, recorded once:
 * its `update` generator (seed 1) over the 88 MiB dataset (64 MiB of
 * host memory x 11/8), filtered through the core's default L1/L2 the
 * way SmpModel does, with both caches cold at the start of every
 * 130 M-instruction slice (perfbench builds a new core per slice).
 * Each entry is one platform access, the page times two plus one for
 * a write; an L2 dirty victim is a write ahead of the access that
 * evicted it, and a flush barrier issues no access.
 */
const std::vector<std::uint32_t>&
mmapUpdatePageTrace()
{
    static const std::vector<std::uint32_t> trace = [] {
        constexpr std::size_t accesses = 1u << 20;
        constexpr std::uint64_t slice_instr = 130000000;
        auto gen = makeCoreWorkload("update", 88ull << 20, 0, 1, 1);
        CoreConfig core;
        CacheModel l1(core.l1);
        CacheModel l2(core.l2);
        std::vector<std::uint32_t> t;
        t.reserve(accesses + 1);
        auto record = [&t](Addr addr, bool write) {
            t.push_back(static_cast<std::uint32_t>(addr / 4096 * 2 + write));
        };
        WorkloadOp op;
        std::uint64_t instructions = 0;
        while (t.size() < accesses) {
            if (instructions >= slice_instr) {
                l1.flush();
                l2.flush();
                instructions = 0;
            }
            if (!gen->next(op))
                break;
            instructions += op.computeInstructions;
            if (op.flushBarrier || !op.hasAccess)
                continue;
            ++instructions;
            bool write = op.access.op == MemOp::Write;
            CacheResult r1 = l1.access(op.access.addr, write);
            if (r1.hit)
                continue;
            if (r1.evictedDirty)
                l2.access(r1.evictedLine, /*is_write=*/true);
            CacheResult r2 = l2.access(op.access.addr, write);
            if (r2.evictedDirty)
                record(r2.evictedLine, true);
            if (!r2.hit)
                record(op.access.addr, write);
        }
        return t;
    }();
    return trace;
}

/**
 * mmap_update's page cache (12,288 frames, keyed over the 1 GiB SSD's
 * pages) replaying mmapUpdatePageTrace() as MmapPlatform does: a
 * resident page is looked up (and marked dirty on a write), a missing
 * one is inserted, evicting the LRU tail. Each op runs the trace up to
 * and including its next miss, so it is one insert/evict plus the hits
 * between two faults; `hit_frac` is the page-cache hit fraction
 * (perfbench's mmap.page_cache_hit_frac). Writeback rounds, which only
 * clean pages, are BM_MmapWritebackRound's. The warm-up replays the
 * whole trace once, so the cache is full and every leaf of the LRU
 * link table the trace needs exists before the timed loop.
 */
void
BM_DramBufferInsertEvict(benchmark::State& state)
{
    const std::vector<std::uint32_t>& trace = mmapUpdatePageTrace();
    DramBufferConfig cfg;
    cfg.capacity = 12288 * 4096;
    DramBuffer buf(cfg, (1ull << 30) / 4096);
    std::size_t at = 0;
    auto miss = [&]() {
        std::uint64_t page = trace[at] >> 1;
        bool write = trace[at] & 1;
        at = at + 1 == trace.size() ? 0 : at + 1;
        if (!buf.lookup(page)) {
            buf.insert(page, write);
            return true;
        }
        if (write)
            buf.markDirty(page);
        return false;
    };
    for (std::size_t i = 0; i < trace.size(); ++i)
        miss();
    std::uint64_t accesses = 0;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        do
            ++accesses;
        while (!miss());
    }
    reportAllocRate(state, allocs);
    state.counters["hit_frac"] =
        1.0 - static_cast<double>(state.iterations()) /
                  static_cast<double>(accesses);
}
BENCHMARK(BM_DramBufferInsertEvict);

void
BM_SparseMemoryWrite4K(benchmark::State& state)
{
    // Steady state: the 64 MiB working set is pre-touched, so the loop
    // measures the two-level table walk + memcpy, not first-touch
    // allocation (see BM_SparseMemoryFirstTouch for that).
    constexpr std::uint64_t working_set = 64ull << 20;
    SparseMemory mem(1ull << 30);
    std::vector<std::uint8_t> buf(4096, 0xAB);
    mem.fill(0, 0, working_set);
    Rng rng(5);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        mem.write(rng.below(working_set / 4096) * 4096, buf.data(),
                  buf.size());
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_SparseMemoryWrite4K);

void
BM_SparseMemoryFirstTouch(benchmark::State& state)
{
    // Cold path: every write allocates (and zeroes) a fresh frame.
    SparseMemory mem(1ull << 40);
    std::vector<std::uint8_t> buf(4096, 0xCD);
    Addr next = 0;
    for (auto _ : state) {
        mem.write(next, buf.data(), buf.size());
        next += 4096;
    }
}
BENCHMARK(BM_SparseMemoryFirstTouch);

void
BM_SparseMemorySpanRead128K(benchmark::State& state)
{
    // The MoS-page-sized span transfer of the miss path: 32 frames per
    // read, walked with direct indexing.
    SparseMemory mem(1ull << 30);
    std::vector<std::uint8_t> buf(128 * 1024);
    mem.fill(0, 0x5A, 16ull << 20);
    Rng rng(6);
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state)
        mem.read(rng.below((16ull << 20) / buf.size()) * buf.size(),
                 buf.data(), buf.size());
    reportAllocRate(state, allocs);
}
BENCHMARK(BM_SparseMemorySpanRead128K);

/** The HAMS hit path: logic latency + one NVDIMM access, no I/O. */
void
BM_HamsHit_Extend(benchmark::State& state)
{
    HamsSystemConfig cfg = HamsSystemConfig::looseExtend();
    cfg.nvdimm.capacity = 128ull << 20;
    cfg.ssdRawBytes = 1ull << 30;
    cfg.pinnedBytes = 32ull << 20;
    cfg.functionalData = false;
    HamsSystem sys(cfg);

    std::uint32_t v = 1;
    sys.write(0, &v, sizeof(v)); // fault the page in once
    std::uint64_t allocs = bench::threadAllocCallsNow();
    int flip = 0;
    for (auto _ : state) {
        // Bounce within the resident page: every access hits.
        sys.write((flip++ % 2) ? 64 : 0, &v, sizeof(v));
    }
    reportAllocRate(state, allocs);
    state.counters["sim_us_per_hit"] = benchmark::Counter(
        ticksToUs(sys.eventQueue().now()) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_HamsHit_Extend);

/** Ablation: HAMS end-to-end miss latency per hazard policy. */
void
hamsMissLatency(benchmark::State& state, HazardPolicy policy)
{
    HamsSystemConfig cfg = HamsSystemConfig::looseExtend();
    cfg.hazard = policy;
    cfg.nvdimm.capacity = 128ull << 20;
    cfg.ssdRawBytes = 1ull << 30;
    cfg.pinnedBytes = 32ull << 20;
    cfg.functionalData = false;
    HamsSystem sys(cfg);
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();

    std::uint32_t v = 1;
    int flip = 0;
    std::uint64_t allocs = bench::threadAllocCallsNow();
    for (auto _ : state) {
        // Alternate aliasing dirty pages: every write is a miss with a
        // dirty eviction — the worst case each policy must handle.
        sys.write((flip++ % 2) ? cache : 0, &v, sizeof(v));
    }
    reportAllocRate(state, allocs);
    state.counters["sim_us_per_miss"] = benchmark::Counter(
        ticksToUs(sys.eventQueue().now()) /
        static_cast<double>(state.iterations()));
}

void
BM_HamsMiss_PrpClone(benchmark::State& state)
{
    hamsMissLatency(state, HazardPolicy::PrpClone);
}
BENCHMARK(BM_HamsMiss_PrpClone);

void
BM_HamsMiss_SerializeEvictFill(benchmark::State& state)
{
    hamsMissLatency(state, HazardPolicy::SerializeEvictFill);
}
BENCHMARK(BM_HamsMiss_SerializeEvictFill);

/** Ablation: dual-channel split vs whole-page FTL units. */
void
ssdReadLatency(benchmark::State& state, std::uint32_t unit)
{
    SsdConfig cfg = ullFlashConfig(1ull << 30, false);
    cfg.hasBuffer = false;
    if (unit == 4096) {
        cfg.geom.pageSize = 4096;
        cfg.geom.blocksPerPlane /= 2;
    }
    Ssd ssd(cfg);
    Tick t = ssd.hostWrite(0, 1, true, 0);
    for (auto _ : state)
        t = ssd.hostRead(0, 1, t);
    state.counters["sim_us_per_read"] = benchmark::Counter(
        ticksToUs(t) / static_cast<double>(state.iterations()));
}

void
BM_SsdRead_SplitUnits(benchmark::State& state)
{
    ssdReadLatency(state, 2048);
}
BENCHMARK(BM_SsdRead_SplitUnits);

void
BM_SsdRead_WholeUnits(benchmark::State& state)
{
    ssdReadLatency(state, 4096);
}
BENCHMARK(BM_SsdRead_WholeUnits);

} // namespace

/**
 * Custom main: mirror the console output into a JSON file
 * (BENCH_hotpaths.json by default, HAMS_BENCH_JSON to override) so CI
 * and `scripts/bench.sh micro_hotpaths` can track the perf trajectory.
 */
int
main(int argc, char** argv)
{
    // Default to JSON output in BENCH_hotpaths.json unless the caller
    // passed an explicit --benchmark_out.
    std::vector<char*> args(argv, argv + argc);
    std::string out_flag;
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            has_out = true;
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        out_flag = "--benchmark_out=" +
                   hams::bench::jsonOutPath("BENCH_hotpaths.json");
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_count = static_cast<int>(args.size());

    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
