#include "baselines/sharded_platform.hh"

#include <algorithm>

#include "core/hams_system.hh"
#include "sim/logging.hh"

namespace hams {

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
    std::vector<std::unique_ptr<MemoryPlatform>> shards_)
    : shards(std::move(shards_))
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

    shardBytes = shards[0]->capacity();
    if (shards.size() == 1) {
        // Pure pass-through: identity routing, the shard's own name,
        // no fence — bit-identical to the bare platform.
        _name = shards[0]->name();
        return;
    }

    for (const auto& s : shards)
        if (s->capacity() != shardBytes)
            fatal("sharded platform: unequal shard capacities (",
                  shardBytes, " vs ", s->capacity(), ")");
    _name = shards[0]->name() + "-x" + std::to_string(shards.size());
}

ShardedPlatform::~ShardedPlatform() = default;

Addr
ShardedPlatform::rangeBase(std::uint32_t s) const
{
    if (s >= shards.size())
        fatal("sharded platform: rangeBase(", s, ") of ",
              shards.size(), " shards");
    return Addr(s) * shardBytes;
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
