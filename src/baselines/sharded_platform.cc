#include "baselines/sharded_platform.hh"

#include <algorithm>

#include "core/hams_system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace hams {

namespace {

/** Seed of the Hash policy's stripe permutation. */
constexpr std::uint64_t hashSeed = 0x5eedc0de;

} // namespace

/**
 * Pooled state of one in-flight cross-shard flush barrier: the fan-out
 * callbacks and the hub fence event capture only {this, ctx}, inside
 * the inline budget.
 */
struct ShardedFlushCtx
{
    std::uint32_t remaining = 0;
    Tick minDone = 0;
    Tick maxDone = 0;
    Tick fenceDone = 0;
    MemoryPlatform::AccessCb cb;
};

ShardedPlatform::ShardedPlatform(
    std::vector<std::unique_ptr<MemoryPlatform>> shards_,
    const ShardedConfig& cfg)
    : cfg(cfg), shards(std::move(shards_))
{
    if (shards.empty())
        fatal("sharded platform: no shards");
    for (const auto& s : shards)
        if (!s)
            fatal("sharded platform: null shard");

    // One domain per shard (shard order = domain id = tie-break
    // priority), the hub coordination domain last.
    for (auto& s : shards)
        dc.attach(s->eventQueue());
    dc.attach(hub);

    if (shards.size() == 1) {
        // Pure pass-through: identity routing, the shard's own name,
        // no fence — bit-identical to the bare platform.
        _name = shards[0]->name();
        _capacity = shards[0]->capacity();
        return;
    }

    _name = shards[0]->name() + "-x" +
            std::to_string(shards.size()) +
            (cfg.policy == ShardPolicy::Hash ? "h" : "");
    buildRouting();
}

ShardedPlatform::~ShardedPlatform() = default;

void
ShardedPlatform::buildRouting()
{
    std::uint64_t shard_cap = shards[0]->capacity();
    for (const auto& s : shards)
        if (s->capacity() != shard_cap)
            fatal("sharded platform: unequal shard capacities (",
                  shard_cap, " vs ", s->capacity(), ")");
    if (!isPow2(cfg.stripeBytes))
        fatal("sharded platform: stripeBytes ", cfg.stripeBytes,
              " is not a power of two");
    if (shard_cap % cfg.stripeBytes != 0)
        fatal("sharded platform: stripeBytes ", cfg.stripeBytes,
              " does not divide shard capacity ", shard_cap);

    std::uint64_t per_shard = shard_cap / cfg.stripeBytes;
    std::uint64_t m = shards.size();
    std::uint64_t total = per_shard * m;
    _capacity = total * cfg.stripeBytes;
    stripeShift = static_cast<std::uint32_t>(log2u64(cfg.stripeBytes));
    stripeMask = cfg.stripeBytes - 1;

    stripeShard.resize(total);
    stripeLocalBase.resize(total);
    stripesPerShard.assign(m, 0);

    if (cfg.policy == ShardPolicy::Range) {
        for (std::uint64_t i = 0; i < total; ++i) {
            std::uint32_t s = static_cast<std::uint32_t>(i / per_shard);
            stripeShard[i] = s;
            stripeLocalBase[i] = (i % per_shard) << stripeShift;
            ++stripesPerShard[s];
        }
        return;
    }

    // Hash: deal stripes round-robin over a seeded Fisher-Yates
    // permutation — balanced (exactly per_shard stripes each) and
    // injective (slot i/m within the shard) by construction, while
    // decorrelating address ranges from shards.
    std::vector<std::uint64_t> perm(total);
    for (std::uint64_t i = 0; i < total; ++i)
        perm[i] = i;
    Rng rng(hashSeed);
    for (std::uint64_t i = total - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    for (std::uint64_t i = 0; i < total; ++i) {
        std::uint64_t stripe = perm[i];
        std::uint32_t s = static_cast<std::uint32_t>(i % m);
        stripeShard[stripe] = s;
        stripeLocalBase[stripe] = (i / m) << stripeShift;
        ++stripesPerShard[s];
    }
}

Addr
ShardedPlatform::rangeBase(std::uint32_t s) const
{
    if (shards.size() > 1 && cfg.policy != ShardPolicy::Range)
        fatal("sharded platform: rangeBase on a non-range policy");
    if (s >= shards.size())
        fatal("sharded platform: rangeBase(", s, ") of ",
              shards.size(), " shards");
    return Addr(s) * (_capacity / shards.size());
}

void
ShardedPlatform::access(const MemAccess& acc, Tick at, AccessCb cb)
{
    if (shards.size() == 1) {
        shards[0]->access(acc, at, std::move(cb));
        return;
    }
    Route r = route(acc.addr);
    ++_stats.routedAccesses;
    MemAccess local = acc;
    local.addr = r.local;
    shards[r.shard]->access(local, at, std::move(cb));
}

bool
ShardedPlatform::tryAccess(const MemAccess& acc, Tick at,
                           InlineCompletion& out)
{
    if (shards.size() == 1)
        return shards[0]->tryAccess(acc, at, out);
    Route r = route(acc.addr);
    MemAccess local = acc;
    local.addr = r.local;
    // Only a true return may touch state (stats included) — a decline
    // must leave every domain exactly as access() would find it.
    if (!shards[r.shard]->tryAccess(local, at, out))
        return false;
    ++_stats.routedAccesses;
    return true;
}

bool
ShardedPlatform::persistent() const
{
    for (const auto& s : shards)
        if (!s->persistent())
            return false;
    return true;
}

void
ShardedPlatform::shardFlushDone(ShardedFlushCtx* ctx, Tick done)
{
    ctx->minDone = std::min(ctx->minDone, done);
    ctx->maxDone = std::max(ctx->maxDone, done);
    if (--ctx->remaining > 0)
        return;

    // All shards durable: release the fence on the hub domain. The
    // hub's now() can never be ahead of the last ack's tick (every
    // fired event so far is at or before it), so the schedule is legal.
    ctx->fenceDone = ctx->maxDone + fenceLatency;
    ++_stats.flushBarriers;
    _stats.flushSkewTicks += ctx->maxDone - ctx->minDone;
    _stats.fenceTicks += fenceLatency;
    hub.scheduleAt(ctx->fenceDone, [this, ctx]() {
        AccessCb cb = std::move(ctx->cb);
        Tick when = ctx->fenceDone;
        // Release before invoking: the callback may flush again and
        // reuse this very context.
        flushPool.release(ctx);
        if (cb)
            cb(when, LatencyBreakdown{});
    });
}

void
ShardedPlatform::flush(Tick at, AccessCb cb)
{
    if (shards.size() == 1) {
        shards[0]->flush(at, std::move(cb));
        return;
    }
    // Two-phase barrier: fan out at the issue tick, complete at
    // max(shard completion) + fence (contract in platform.hh).
    ShardedFlushCtx* ctx = flushPool.acquire();
    ctx->remaining = static_cast<std::uint32_t>(shards.size());
    ctx->minDone = maxTick;
    ctx->maxDone = at;
    ctx->cb = std::move(cb);
    for (auto& s : shards)
        s->flush(at, [this, ctx](Tick done, const LatencyBreakdown&) {
            shardFlushDone(ctx, done);
        });
}

DeviceActivity
ShardedPlatform::deviceActivity() const
{
    // Seeded by shard 0, so the `keep` media is the shards', not {}'s.
    DeviceActivity total = shards.front()->deviceActivity();
    for (std::size_t i = 1; i < shards.size(); ++i)
        mergeFields(total, shards[i]->deviceActivity());
    return total;
}

std::uint32_t
ShardedPlatform::aggregatedHamsStats(HamsStats& out) const
{
    std::uint32_t n = 0;
    for (const auto& s : shards)
        if (auto* h = dynamic_cast<const HamsSystem*>(s.get())) {
            mergeFields(out, h->stats());
            ++n;
        }
    return n;
}

std::uint32_t
ShardedPlatform::aggregatedFtlStats(FtlStats& out) const
{
    std::uint32_t n = 0;
    for (const auto& s : shards)
        if (auto* h = dynamic_cast<const HamsSystem*>(s.get())) {
            mergeFields(out,
                        const_cast<HamsSystem*>(h)->ullFlash().ftlStats());
            ++n;
        }
    return n;
}

Tick
ShardedPlatform::powerFail(std::uint64_t max_drain_frames)
{
    // In-flight fences vanish with the power, like any other event.
    hub.reset();
    flushPool.reclaimAll();
    Tick drain = 0;
    for (auto& s : shards)
        if (auto* h = dynamic_cast<HamsSystem*>(s.get()))
            drain = std::max(drain, h->powerFail(max_drain_frames));
    return drain;
}

Tick
ShardedPlatform::recover()
{
    Tick done = 0;
    for (auto& s : shards)
        if (auto* h = dynamic_cast<HamsSystem*>(s.get()))
            done = std::max(done, h->recover());
    return done;
}

} // namespace hams
