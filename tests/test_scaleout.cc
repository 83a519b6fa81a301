/**
 * @file
 * Scale-out tests: the DomainConductor's deterministic cross-domain
 * interleave; ShardedPlatform routing (range contiguity, hash balance
 * and injectivity); M = 1 bit-identity against the bare platform under
 * CoreModel and SmpModel; M > 1 rerun determinism with the inline fast
 * path on and off, background GC keeping shard domains busy; the
 * two-phase cross-shard flush barrier against per-shard twin
 * platforms; per-shard failure isolation; zero allocations on the
 * sharded hit path; the stats merge's sum-vs-max semantics; and that
 * every field of each stats struct's field list takes part in
 * equality, firstDifference and merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/sharded_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "cpu/smp_model.hh"
#include "ftl/page_ftl.hh"
#include "sim/alloc_hook.hh"
#include "sim/domain_conductor.hh"
#include "sim/fields.hh"
#include "ssd/ssd.hh"
#include "workload/workload.hh"

#include "bg_gc_hams.hh"
#include "expect_fields.hh"
#include "forwarding_platform.hh"

namespace hams {
namespace {

std::unique_ptr<HamsSystem>
smallHams(HamsMode mode)
{
    HamsSystemConfig c = mode == HamsMode::Persist
                             ? HamsSystemConfig::tightPersist()
                             : HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 1ull << 30;
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    return std::make_unique<HamsSystem>(c);
}

std::unique_ptr<ShardedPlatform>
shardedHams(std::uint32_t m, HamsMode mode, ShardedConfig cfg = {})
{
    std::vector<std::unique_ptr<MemoryPlatform>> shards;
    for (std::uint32_t s = 0; s < m; ++s)
        shards.push_back(smallHams(mode));
    return std::make_unique<ShardedPlatform>(std::move(shards), cfg);
}

/** Per-(shard, core) generators: core c drives shard c % M at its
 *  range base — the same placement the scale-out bench uses. */
SmpResult
runShardedSmp(ShardedPlatform& sp, const std::string& workload,
              std::uint32_t cores, bool inline_on, std::uint64_t budget,
              std::uint64_t dataset = 32ull << 20,
              MemoryPlatform* driven = nullptr)
{
    std::uint32_t m = sp.shardCount();
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::uint32_t shard = c % m;
        gens.push_back(makeShardCoreWorkload(workload, dataset, c / m,
                                             cores / m, shard,
                                             sp.rangeBase(shard)));
        raw.push_back(gens.back().get());
    }
    SmpConfig cfg;
    cfg.core.inlineFastPath = inline_on;
    SmpModel smp(driven ? *driven : sp, cfg);
    smp.run(raw, budget / 2);
    return smp.run(raw, budget);
}

// ---------------------------------------------------------------------
// DomainConductor: global tick order with the fixed domain tie-break,
// and single-domain delegation.
// ---------------------------------------------------------------------

TEST(DomainConductor, InterleavesByTickThenDomainId)
{
    EventQueue a, b, c;
    DomainConductor dc;
    dc.attach(a);
    dc.attach(b);
    dc.attach(c);
    EXPECT_EQ(a.domainId(), 0u);
    EXPECT_EQ(b.domainId(), 1u);
    EXPECT_EQ(c.domainId(), 2u);

    std::vector<int> order;
    // Same tick across domains: attach order must win. Different
    // ticks: global order regardless of schedule order.
    c.scheduleAt(10, [&] { order.push_back(30); });
    b.scheduleAt(10, [&] { order.push_back(20); });
    a.scheduleAt(10, [&] { order.push_back(10); });
    b.scheduleAt(5, [&] { order.push_back(21); });
    a.scheduleAt(20, [&] { order.push_back(11); });
    // Same tick within a domain stays FIFO.
    c.scheduleAt(10, [&] { order.push_back(31); });

    EXPECT_EQ(dc.pending(), 6u);
    EXPECT_EQ(dc.nextTick(), 5u);
    dc.run();
    EXPECT_EQ(order, (std::vector<int>{21, 10, 20, 30, 31, 11}));
    EXPECT_EQ(dc.now(), 20u);
    EXPECT_EQ(dc.fired(), 6u);
    EXPECT_TRUE(dc.empty());

    // Per-domain time: each domain's clock is its own last event.
    EXPECT_EQ(a.now(), 20u);
    EXPECT_EQ(b.now(), 10u);
    EXPECT_EQ(c.now(), 10u);
}

TEST(DomainConductor, StepBeforePicksLikeStepAndStopsAtTheLimit)
{
    EventQueue a, b;
    DomainConductor dc;
    dc.attach(a);
    dc.attach(b);
    std::vector<int> order;
    b.scheduleAt(10, [&] { order.push_back(20); });
    a.scheduleAt(10, [&] { order.push_back(10); });
    b.scheduleAt(4, [&] { order.push_back(21); });
    a.scheduleAt(15, [&] { order.push_back(11); });
    while (dc.stepBefore(15)) {
    }
    // Global order, the same-tick tie to domain 0; the event exactly
    // at the limit stays pending.
    EXPECT_EQ(order, (std::vector<int>{21, 10, 20}));
    EXPECT_EQ(dc.pending(), 1u);
    EXPECT_TRUE(dc.stepBefore(16));
    EXPECT_EQ(order.back(), 11);
    EXPECT_FALSE(dc.stepBefore(maxTick));
}

TEST(DomainConductor, SingleDomainDelegates)
{
    EventQueue solo, q;
    DomainConductor dc;
    dc.attach(q);

    int solo_sum = 0, dc_sum = 0;
    for (Tick t : {7u, 3u, 3u, 12u}) {
        solo.scheduleAt(t, [&, t] { solo_sum = solo_sum * 31 + int(t); });
        q.scheduleAt(t, [&, t] { dc_sum = dc_sum * 31 + int(t); });
    }
    solo.run();
    dc.run();
    EXPECT_EQ(solo_sum, dc_sum);
    EXPECT_EQ(solo.now(), dc.now());
    EXPECT_EQ(solo.fired(), dc.fired());
}

TEST(DomainConductor, RunUntilAdvancesAllDomains)
{
    EventQueue a, b;
    DomainConductor dc;
    dc.attach(a);
    dc.attach(b);
    int fired = 0;
    a.scheduleAt(10, [&] { ++fired; });
    b.scheduleAt(30, [&] { ++fired; });

    dc.runUntil(20);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(a.now(), 20u);
    EXPECT_EQ(b.now(), 20u);
    EXPECT_EQ(dc.now(), 20u);
    dc.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(dc.now(), 30u);
}

// ---------------------------------------------------------------------
// Routing tables.
// ---------------------------------------------------------------------

TEST(ShardedRouting, RangePolicyIsContiguous)
{
    auto sp = shardedHams(4, HamsMode::Extend);
    std::uint64_t shard_cap = sp->shard(0).capacity();
    EXPECT_EQ(sp->capacity(), 4 * shard_cap);

    for (std::uint32_t s = 0; s < 4; ++s) {
        EXPECT_EQ(sp->rangeBase(s), Addr(s) * shard_cap);
        // First and last stripe of the span, plus an interior offset.
        for (Addr off : {Addr(0), Addr(4096), shard_cap - 64}) {
            auto r = sp->route(sp->rangeBase(s) + off);
            EXPECT_EQ(r.shard, s);
            EXPECT_EQ(r.local, off);
        }
    }
}

TEST(ShardedRouting, HashPolicyBalancedAndInjective)
{
    ShardedConfig cfg;
    cfg.policy = ShardPolicy::Hash;
    auto sp = shardedHams(4, HamsMode::Extend, cfg);

    std::uint64_t stripe = cfg.stripeBytes;
    std::uint64_t stripes = sp->capacity() / stripe;
    std::vector<std::uint64_t> per_shard(4, 0);
    std::vector<std::vector<bool>> used(
        4, std::vector<bool>(stripes / 4, false));
    for (std::uint64_t i = 0; i < stripes; ++i) {
        auto r = sp->route(i * stripe);
        ASSERT_LT(r.shard, 4u);
        ASSERT_EQ(r.local % stripe, 0u);
        std::uint64_t slot = r.local / stripe;
        ASSERT_LT(slot, stripes / 4) << "local slot beyond shard";
        EXPECT_FALSE(used[r.shard][slot]) << "two stripes alias";
        used[r.shard][slot] = true;
        ++per_shard[r.shard];
    }
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_EQ(per_shard[s], stripes / 4) << "shard " << s;

    // Offsets within a stripe keep their position.
    auto base = sp->route(0);
    auto off = sp->route(4096 + 64);
    EXPECT_EQ(base.shard, sp->route(64).shard);
    EXPECT_EQ(sp->route(64).local, base.local + 64);
    (void)off;

    // Same seed, same table — a fresh instance routes identically.
    auto sp2 = shardedHams(4, HamsMode::Extend, cfg);
    for (std::uint64_t i = 0; i < stripes; i += 7) {
        auto r1 = sp->route(i * stripe);
        auto r2 = sp2->route(i * stripe);
        EXPECT_EQ(r1.shard, r2.shard);
        EXPECT_EQ(r1.local, r2.local);
    }
}

// ---------------------------------------------------------------------
// Shard seed streams.
// ---------------------------------------------------------------------

TEST(ShardSeeds, Shard0KeepsBaseSeedAndOthersDiffer)
{
    EXPECT_EQ(shardSeed(42, 0), 42u);
    EXPECT_EQ(shardSeed(1234567, 0), 1234567u);
    // Distinct shards, distinct seeds; the derivation has no shard
    // count input at all, so shard s's stream cannot depend on M.
    std::vector<std::uint64_t> seeds;
    for (std::uint32_t s = 0; s < 16; ++s) {
        std::uint64_t v = shardSeed(42, s);
        for (std::uint64_t prev : seeds)
            EXPECT_NE(v, prev) << "shard " << s;
        seeds.push_back(v);
    }
}

TEST(ShardSeeds, Shard0CoreStreamMatchesMakeCoreWorkload)
{
    auto a = makeCoreWorkload("rndWr", 32ull << 20, 1, 4);
    auto b = makeShardCoreWorkload("rndWr", 32ull << 20, 1, 4, 0, 0);
    WorkloadOp oa, ob;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a->next(oa));
        ASSERT_TRUE(b->next(ob));
        EXPECT_EQ(oa.hasAccess, ob.hasAccess);
        EXPECT_EQ(oa.access.addr, ob.access.addr);
        EXPECT_EQ(int(oa.access.op), int(ob.access.op));
        EXPECT_EQ(oa.flushBarrier, ob.flushBarrier);
    }
}

TEST(ShardSeeds, BaseAddrOffsetsTheWholeStream)
{
    Addr base = 1ull << 30;
    auto a = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 2, 0);
    auto b = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 2, base);
    WorkloadOp oa, ob;
    for (int i = 0; i < 5000; ++i) {
        ASSERT_TRUE(a->next(oa));
        ASSERT_TRUE(b->next(ob));
        ASSERT_EQ(oa.hasAccess, ob.hasAccess);
        if (oa.hasAccess) {
            EXPECT_EQ(oa.access.addr + base, ob.access.addr);
        }
    }
}

TEST(ShardSeeds, DifferentShardsProduceDifferentStreams)
{
    auto a = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 1, 0);
    auto b = makeShardCoreWorkload("rndRd", 32ull << 20, 0, 1, 2, 0);
    WorkloadOp oa, ob;
    int diverged = 0;
    for (int i = 0; i < 2000; ++i) {
        a->next(oa);
        b->next(ob);
        if (oa.hasAccess && ob.hasAccess &&
            oa.access.addr != ob.access.addr)
            ++diverged;
    }
    EXPECT_GT(diverged, 0) << "shard streams identical";
}

// ---------------------------------------------------------------------
// M = 1: the sharded platform is bit-identical to the bare platform.
// ---------------------------------------------------------------------

TEST(ShardedM1, BitIdenticalUnderCoreModel)
{
    auto bare = smallHams(HamsMode::Extend);
    auto sp = shardedHams(1, HamsMode::Extend);
    EXPECT_EQ(sp->name(), bare->name());
    EXPECT_EQ(sp->capacity(), bare->capacity());

    auto gen_a = makeWorkload("update", 32ull << 20);
    auto gen_b = makeWorkload("update", 32ull << 20);
    CoreModel core_a(*bare);
    CoreModel core_b(*sp);
    RunResult warm_a = core_a.run(*gen_a, 200000);
    RunResult warm_b = core_b.run(*gen_b, 200000);
    RunResult meas_a = core_a.run(*gen_a, 400000);
    RunResult meas_b = core_b.run(*gen_b, 400000);

    expectSameFields(warm_a, warm_b, "M=1 CoreModel (warmup)");
    expectSameFields(meas_a, meas_b, "M=1 CoreModel (measure)");
    auto& shard = dynamic_cast<HamsSystem&>(sp->shard(0));
    expectSameFields(bare->stats(), shard.stats(), "M=1 HamsStats");
    EXPECT_EQ(bare->eventQueue().now(), shard.eventQueue().now());
    EXPECT_EQ(bare->eventQueue().fired(), shard.eventQueue().fired());
    // Pass-through: the sharding layer never counts M = 1 traffic.
    expectSameFields(sp->shardedStats(), ShardedStats{}, "M=1 ShardedStats");
}

TEST(ShardedM1, BitIdenticalUnderSmpModel)
{
    auto bare = smallHams(HamsMode::Persist);
    auto sp = shardedHams(1, HamsMode::Persist);

    auto run_bare = [&] {
        std::vector<std::unique_ptr<WorkloadGenerator>> gens;
        std::vector<WorkloadGenerator*> raw;
        for (std::uint32_t c = 0; c < 4; ++c) {
            gens.push_back(makeCoreWorkload("rndWr", 32ull << 20, c, 4));
            raw.push_back(gens.back().get());
        }
        SmpModel smp(*bare);
        smp.run(raw, 100000);
        return smp.run(raw, 200000);
    };
    SmpResult a = run_bare();
    SmpResult b = runShardedSmp(*sp, "rndWr", 4, true, 200000);

    for (std::uint32_t c = 0; c < 4; ++c)
        expectSameFields(a.perCore[c], b.perCore[c], "M=1 SMP per-core");
    expectSameFields(a.combined, b.combined, "M=1 SMP combined");
    auto& shard = dynamic_cast<HamsSystem&>(sp->shard(0));
    expectSameFields(bare->stats(), shard.stats(), "M=1 SMP HamsStats");
    EXPECT_EQ(bare->eventQueue().now(), shard.eventQueue().now());
}

// ---------------------------------------------------------------------
// M > 1 determinism: rerun-identical and inline-gate soundness.
// ---------------------------------------------------------------------

TEST(ShardedDeterminism, FourShardRerunIdentical)
{
    auto p1 = shardedHams(4, HamsMode::Extend);
    auto p2 = shardedHams(4, HamsMode::Extend);
    // Budget large enough for update's periodic durability barriers to
    // actually fire cross-shard flushes (pinned non-zero below).
    SmpResult r1 = runShardedSmp(*p1, "update", 8, true, 800000);
    SmpResult r2 = runShardedSmp(*p2, "update", 8, true, 800000);

    for (std::uint32_t c = 0; c < 8; ++c)
        expectSameFields(r1.perCore[c], r2.perCore[c], "rerun per-core");
    expectSameFields(r1.combined, r2.combined, "rerun combined");
    HamsStats s1{}, s2{};
    EXPECT_EQ(p1->aggregatedHamsStats(s1), 4u);
    EXPECT_EQ(p2->aggregatedHamsStats(s2), 4u);
    expectSameFields(s1, s2, "rerun aggregated HamsStats");
    expectSameFields(p1->shardedStats(), p2->shardedStats(),
                     "rerun ShardedStats");
    EXPECT_EQ(p1->conductor().now(), p2->conductor().now());
    EXPECT_EQ(p1->conductor().fired(), p2->conductor().fired());
    EXPECT_GT(p1->shardedStats().routedAccesses, 0u);
    EXPECT_GT(p1->shardedStats().flushBarriers, 0u);
}

/** Counts accesses tryAccess() applied while some domain had a
 *  pending event. */
class PendingInlineSpy : public ForwardingPlatform
{
  public:
    using ForwardingPlatform::ForwardingPlatform;

    bool
    tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out) override
    {
        bool pending = !inner.conductor().empty();
        if (!inner.tryAccess(acc, at, out))
            return false;
        if (pending)
            ++appliedWhilePending;
        return true;
    }

    std::uint64_t appliedWhilePending = 0;
};

std::unique_ptr<ShardedPlatform>
shardedBgGcHams(std::uint32_t m)
{
    std::vector<std::unique_ptr<MemoryPlatform>> shards;
    for (std::uint32_t s = 0; s < m; ++s)
        shards.push_back(smallHamsBgGc());
    return std::make_unique<ShardedPlatform>(std::move(shards));
}

TEST(ShardedDeterminism, InlineFastPathOnOffIdentical)
{
    // Background GC in every shard plus four cores' misses keep events
    // pending in the shard domains, so hits complete inline while other
    // domains are busy; deferred completions land on the owning shard's
    // queue. The run must still match the all-events run exactly.
    auto on = shardedBgGcHams(2);
    auto off = shardedBgGcHams(2);
    PendingInlineSpy spy(*on);
    SmpResult r_on =
        runShardedSmp(*on, "rndWr", 4, true, 200000, 96ull << 20, &spy);
    SmpResult r_off = runShardedSmp(*off, "rndWr", 4, false, 200000,
                                    96ull << 20);

    for (std::uint32_t c = 0; c < 4; ++c)
        expectSameFields(r_on.perCore[c], r_off.perCore[c],
                         "inline on vs off");
    expectSameFields(r_on.combined, r_off.combined,
                     "inline on vs off combined");
    HamsStats s_on{}, s_off{};
    on->aggregatedHamsStats(s_on);
    off->aggregatedHamsStats(s_off);
    expectSameFields(s_on, s_off, "inline on vs off HamsStats");
    std::uint64_t gc_batches = 0;
    for (std::uint32_t s = 0; s < 2; ++s) {
        const FtlStats& fs_on =
            static_cast<HamsSystem&>(on->shard(s)).ullFlash().ftlStats();
        const FtlStats& fs_off =
            static_cast<HamsSystem&>(off->shard(s)).ullFlash().ftlStats();
        expectSameFields(fs_on, fs_off, "inline on vs off FtlStats");
        gc_batches += fs_on.gcBatches;
    }
    EXPECT_GT(gc_batches, 0u) << "background GC never stepped";
    EXPECT_EQ(on->conductor().now(), off->conductor().now());
    EXPECT_LT(on->conductor().fired(), off->conductor().fired())
        << "nothing completed inline";
    EXPECT_GT(spy.appliedWhilePending, 0u)
        << "no inline completion while a domain had a pending event";
}

// ---------------------------------------------------------------------
// Cross-shard flush: completes at max(shard done) + fence, after every
// shard is durable.
// ---------------------------------------------------------------------

TEST(ShardedFlush, BarrierCompletesAtMaxShardDonePlusFence)
{
    auto sp = shardedHams(2, HamsMode::Persist);
    auto t0 = smallHams(HamsMode::Persist);
    auto t1 = smallHams(HamsMode::Persist);

    // Same writes through the sharded platform and the twin bare
    // platforms: shard-local address == global - rangeBase.
    std::uint64_t done_writes = 0;
    auto count = [&](Tick, const LatencyBreakdown&) { ++done_writes; };
    for (std::uint32_t i = 0; i < 8; ++i) {
        Addr off = Addr(i) * 4096;
        MemAccess w{off, 64, MemOp::Write};
        sp->access(MemAccess{sp->rangeBase(0) + off, 64, MemOp::Write},
                   0, count);
        sp->access(MemAccess{sp->rangeBase(1) + off, 64, MemOp::Write},
                   0, count);
        t0->access(w, 0, {});
        t1->access(w, 0, {});
    }
    sp->conductor().run();
    t0->eventQueue().run();
    t1->eventQueue().run();
    EXPECT_EQ(done_writes, 16u);

    Tick issue = sp->conductor().now();
    Tick twin_issue = std::max(t0->eventQueue().now(),
                               t1->eventQueue().now());
    Tick d0 = 0, d1 = 0, sharded_done = 0;
    bool durable_at_cb = false;
    t0->flush(twin_issue, [&](Tick d, const LatencyBreakdown&) { d0 = d; });
    t1->flush(twin_issue, [&](Tick d, const LatencyBreakdown&) { d1 = d; });
    sp->flush(issue, [&](Tick d, const LatencyBreakdown&) {
        sharded_done = d;
        durable_at_cb = sp->persistent();
    });
    t0->eventQueue().run();
    t1->eventQueue().run();
    sp->conductor().run();

    ASSERT_GT(d0, 0u);
    ASSERT_GT(d1, 0u);
    Tick fence = ShardedPlatform::fenceLatency;
    EXPECT_EQ(sharded_done, std::max(d0, d1) + fence)
        << "barrier must complete at max(shard done) + fence";
    EXPECT_TRUE(durable_at_cb)
        << "fence released before every shard was durable";
    EXPECT_EQ(sp->shardedStats().flushBarriers, 1u);
    EXPECT_EQ(sp->shardedStats().fenceTicks, fence);
    EXPECT_EQ(sp->shardedStats().flushSkewTicks,
              std::max(d0, d1) - std::min(d0, d1));
}

TEST(ShardedFlush, FenceCostOnlyWithMultipleShards)
{
    // M = 1 hands the callback straight to the shard: no barrier, no
    // fence charge.
    auto sp = shardedHams(1, HamsMode::Persist);
    Tick done = 0;
    sp->access(MemAccess{0, 64, MemOp::Write}, 0, {});
    sp->conductor().run();
    sp->flush(sp->conductor().now(),
              [&](Tick d, const LatencyBreakdown&) { done = d; });
    sp->conductor().run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(sp->shardedStats().flushBarriers, 0u);
    EXPECT_EQ(sp->shardedStats().fenceTicks, 0u);
}

// ---------------------------------------------------------------------
// Per-shard failure domains: cutting one shard leaves siblings serving.
// ---------------------------------------------------------------------

TEST(ShardedFailure, CutShardLeavesSiblingServing)
{
    auto sp = shardedHams(2, HamsMode::Extend);
    // Touch both shards so each holds real state.
    std::uint64_t completed = 0;
    auto count = [&](Tick, const LatencyBreakdown&) { ++completed; };
    for (std::uint32_t i = 0; i < 4; ++i) {
        sp->access(MemAccess{sp->rangeBase(0) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
        sp->access(MemAccess{sp->rangeBase(1) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
    }
    sp->conductor().run();
    EXPECT_EQ(completed, 8u);

    // Cut ONLY shard 1 — shards share no state, so shard 0 must keep
    // serving while its sibling is dark.
    auto& failed = dynamic_cast<HamsSystem&>(sp->shard(1));
    failed.powerFail();

    completed = 0;
    Tick at = sp->conductor().now();
    for (std::uint32_t i = 0; i < 4; ++i)
        sp->access(MemAccess{sp->rangeBase(0) + Addr(i) * 4096, 64,
                             MemOp::Read},
                   at, count);
    sp->conductor().run();
    EXPECT_EQ(completed, 4u) << "healthy shard stopped serving";

    // Bring the cut shard back: it serves again.
    failed.recover();
    sp->conductor().run();
    completed = 0;
    at = sp->conductor().now();
    for (std::uint32_t i = 0; i < 4; ++i)
        sp->access(MemAccess{sp->rangeBase(1) + Addr(i) * 4096, 64,
                             MemOp::Read},
                   at, count);
    sp->conductor().run();
    EXPECT_EQ(completed, 4u) << "recovered shard not serving";
}

TEST(ShardedFailure, WholePlatformPowerFailFansOverShards)
{
    auto sp = shardedHams(2, HamsMode::Extend);
    auto count = [](Tick, const LatencyBreakdown&) {};
    for (std::uint32_t i = 0; i < 4; ++i) {
        sp->access(MemAccess{sp->rangeBase(0) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
        sp->access(MemAccess{sp->rangeBase(1) + Addr(i) * 4096, 64,
                             MemOp::Write},
                   0, count);
    }
    sp->conductor().run();

    sp->powerFail();
    Tick done = sp->recover();
    sp->conductor().run();
    EXPECT_GT(done, 0u);
    for (std::uint32_t s = 0; s < 2; ++s)
        EXPECT_TRUE(sp->shard(s).persistent());
}

// ---------------------------------------------------------------------
// Hot-path discipline: the sharded hit path allocates nothing.
// ---------------------------------------------------------------------

TEST(ShardedZeroAlloc, HitPathThroughRoutingAndConductor)
{
    // Per-shard working set fits each shard's NVDIMM cache: after
    // warmup every access is a routed extend-mode hit. Equal
    // allocation deltas between a short and a long measured run mean
    // routing + conductor + shard hit path cost zero allocations/op.
    auto sp = shardedHams(4, HamsMode::Extend);
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeShardCoreWorkload("rndRd", 16ull << 20, 0, 1,
                                             c, sp->rangeBase(c)));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sp);
    smp.run(raw, 150000); // warm caches, pools, arenas, routing tables

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations on the sharded hit path";
    HamsStats agg{};
    sp->aggregatedHamsStats(agg);
    EXPECT_GT(agg.hits, 0u);
    EXPECT_GT(sp->shardedStats().routedAccesses, 0u);
}

// ---------------------------------------------------------------------
// Stats merge (sim/fields.hh): counters sum, peaks max — on every type.
// ---------------------------------------------------------------------

TEST(StatsMerge, HamsCountersSumAndPeaksMax)
{
    HamsStats a{}, b{};
    a.accesses = 100;
    a.hits = 80;
    a.waitQueued = 5;
    a.waiterPeakDepth = 3;
    a.gateQueuePeakDepth = 7;
    a.memoryDelay.nvdimm = 1000;
    b.accesses = 50;
    b.hits = 40;
    b.waitQueued = 2;
    b.waiterPeakDepth = 9;
    b.gateQueuePeakDepth = 1;
    b.memoryDelay.nvdimm = 500;

    mergeFields(a, b);
    EXPECT_EQ(a.accesses, 150u);
    EXPECT_EQ(a.hits, 120u);
    EXPECT_EQ(a.waitQueued, 7u);
    // Peaks are per-structure maxima, NOT sums: 3+9=12 would report a
    // depth no single wait list ever reached.
    EXPECT_EQ(a.waiterPeakDepth, 9u);
    EXPECT_EQ(a.gateQueuePeakDepth, 7u);
    EXPECT_EQ(a.memoryDelay.nvdimm, 1500u);
}

TEST(StatsMerge, FtlCountersSumAndPaceLevelsMax)
{
    FtlStats a{}, b{};
    a.hostWrites = 10;
    a.gcRelocations = 4;
    a.paceLevel = 2;
    a.paceLevelMax = 3;
    b.hostWrites = 20;
    b.gcRelocations = 6;
    b.paceLevel = 1;
    b.paceLevelMax = 5;

    mergeFields(a, b);
    EXPECT_EQ(a.hostWrites, 30u);
    EXPECT_EQ(a.gcRelocations, 10u);
    EXPECT_EQ(a.paceLevel, 2u);
    EXPECT_EQ(a.paceLevelMax, 5u);
}

TEST(StatsMerge, EngineCountersSum)
{
    NvmeEngineStats a{}, b{};
    a.submitted = 7;
    a.completed = 6;
    a.journalSets = 3;
    b.submitted = 5;
    b.completed = 5;
    b.journalSets = 2;
    mergeFields(a, b);
    EXPECT_EQ(a.submitted, 12u);
    EXPECT_EQ(a.completed, 11u);
    EXPECT_EQ(a.journalSets, 5u);
}

TEST(StatsMerge, RunResultCountersSumSimTimeMax)
{
    RunResult a{}, b{};
    a.simTime = 1000;
    a.instructions = 500;
    a.opsCompleted = 10;
    a.stallTime = 100;
    b.simTime = 800;
    b.instructions = 300;
    b.opsCompleted = 4;
    b.stallTime = 50;

    mergeRunResult(a, b);
    // Parallel entities overlap in time: summing simTime would
    // double-count the wall.
    EXPECT_EQ(a.simTime, 1000u);
    EXPECT_EQ(a.instructions, 800u);
    EXPECT_EQ(a.opsCompleted, 14u);
    EXPECT_EQ(a.stallTime, 150u);
}

// Aggregation consistency: the sharded platform's aggregate equals
// merging each shard's stats by hand — one merge, no double counting.
TEST(StatsMerge, AggregatedMatchesManualShardMerge)
{
    auto sp = shardedHams(2, HamsMode::Extend);
    runShardedSmp(*sp, "rndWr", 2, true, 100000);

    HamsStats agg{};
    EXPECT_EQ(sp->aggregatedHamsStats(agg), 2u);
    HamsStats manual{};
    for (std::uint32_t s = 0; s < 2; ++s)
        mergeFields(manual, dynamic_cast<HamsSystem&>(sp->shard(s)).stats());
    expectSameFields(agg, manual, "aggregate vs manual merge");
    EXPECT_EQ(agg.accesses,
              dynamic_cast<HamsSystem&>(sp->shard(0)).stats().accesses +
                  dynamic_cast<HamsSystem&>(sp->shard(1)).stats().accesses);
}

// ---------------------------------------------------------------------
// Field lists (sim/fields.hh): every listed field takes part in
// equality, firstDifference and merge, by its rule.
// ---------------------------------------------------------------------

/** Calls f(rule, dotted name, a.leaf, b.leaf) on every scalar leaf,
 *  recursing into fields that have their own list. */
template <typename T, typename F>
void
forEachLeaf(T& a, const T& b, F&& f, const std::string& prefix = "")
{
    T::forEachField(a, b, [&](auto rule, const char* name, auto& x,
                              const auto& y) {
        if constexpr (fields::listed<std::decay_t<decltype(x)>>)
            forEachLeaf(x, y, f, prefix + name + ".");
        else
            f(rule, prefix + name, x, y);
    });
}

/** Sets a leaf to @p n (labels to its decimal string). */
template <typename V>
void
setTo(V& v, std::uint64_t n)
{
    if constexpr (std::is_same_v<V, std::string>)
        v = std::to_string(n);
    else
        v = static_cast<V>(n);
}

template <typename T>
class StatsFields : public ::testing::Test
{
};

using ListedStats =
    ::testing::Types<LatencyBreakdown, HamsStats, NvmeEngineStats, FtlStats,
                     RunResult, ShardedStats, DramActivity, FlashActivity,
                     EnergyBreakdownJ>;
TYPED_TEST_SUITE(StatsFields, ListedStats);

TYPED_TEST(StatsFields, ListCoversEveryMember)
{
    // None of these structs has padding, so a member declared outside
    // its field list shows up as a size the list does not account for.
    TypeParam v{};
    std::size_t listed_bytes = 0;
    TypeParam::forEachField(v, v, [&](auto, const char*, const auto& x,
                                      const auto&) {
        listed_bytes += sizeof(x);
    });
    EXPECT_EQ(listed_bytes, sizeof(TypeParam));
}

TYPED_TEST(StatsFields, EveryFieldTakesPartInEquality)
{
    const TypeParam base{};
    EXPECT_TRUE(base == base);
    EXPECT_EQ(firstDifference(base, base), "");

    // Change leaf k alone, for k = 0, 1, ... until no leaf is left.
    for (std::size_t k = 0;; ++k) {
        TypeParam changed{};
        std::string name;
        std::size_t i = 0;
        forEachLeaf(changed, base, [&](auto, const std::string& path,
                                       auto& x, const auto&) {
            if (i++ == k) {
                setTo(x, 1);
                name = path;
            }
        });
        if (name.empty()) {
            EXPECT_GT(k, 0u);
            break;
        }
        EXPECT_FALSE(changed == base) << name;
        EXPECT_EQ(firstDifference(changed, base), name);
        EXPECT_EQ(firstDifference(base, changed), name);
    }
}

TYPED_TEST(StatsFields, MergeAppliesEachFieldsRule)
{
    // Leaf i of a holds va(i), of b vb(i); vb alternates above and
    // below va so max fields are checked in both directions.
    auto va = [](std::uint64_t i) { return 100 + 7 * i; };
    auto vb = [](std::uint64_t i) { return i % 2 ? 1 + i : 1000 + i; };
    TypeParam a{}, b{};
    std::uint64_t i = 0;
    forEachLeaf(a, a, [&](auto, const std::string&, auto& x, const auto&) {
        setTo(x, va(i++));
    });
    i = 0;
    forEachLeaf(b, b, [&](auto, const std::string&, auto& x, const auto&) {
        setTo(x, vb(i++));
    });

    TypeParam merged = a;
    mergeFields(merged, b);
    i = 0;
    forEachLeaf(merged, merged, [&](auto rule, const std::string& path,
                                    auto& x, const auto&) {
        using Rule = decltype(rule);
        std::uint64_t want = va(i);
        if constexpr (std::is_same_v<Rule, fields::sum>)
            want = va(i) + vb(i);
        else if constexpr (std::is_same_v<Rule, fields::max>)
            want = std::max(va(i), vb(i));
        std::decay_t<decltype(x)> expected{};
        setTo(expected, want);
        EXPECT_EQ(x, expected) << path;
        ++i;
    });
}

} // namespace
} // namespace hams
