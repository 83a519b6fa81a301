#include "baselines/platform.hh"

#include "sim/logging.hh"

namespace hams {

void
MemoryPlatform::access(const MemAccess& acc, Tick at, AccessCb cb)
{
    InlineCompletion out;
    if (!tryAccess(acc, at, out))
        panic(name(), ": tryAccess() declined, but the platform has no "
                      "access() of its own");
    scheduleCompletion(*out.domain, out.done, out.bd, std::move(cb));
}

void
MemoryPlatform::scheduleCompletion(EventQueue& eq, Tick done,
                                   const LatencyBreakdown& bd, AccessCb cb)
{
    CompletionCtx* ctx = completionPool.acquire();
    ctx->cb = std::move(cb);
    ctx->done = done;
    ctx->bd = bd;
    eq.scheduleAt(done, [this, ctx]() {
        AccessCb cb = std::move(ctx->cb);
        Tick when = ctx->done;
        LatencyBreakdown b = ctx->bd;
        // Release before invoking: the callback may re-enter access()
        // and reuse this very context.
        completionPool.release(ctx);
        if (cb)
            cb(when, b);
    });
}

Tick
MemoryPlatform::accessSync(const MemAccess& acc, Tick at,
                           LatencyBreakdown* bd)
{
    bool done = false;
    Tick when = 0;
    access(acc, at, [&](Tick t, const LatencyBreakdown& b) {
        done = true;
        when = t;
        if (bd)
            *bd = b;
    });
    // Pump the conductor, not the raw queue: on a sharded platform the
    // completion fires in the owning shard's domain.
    while (!done && conductor().step()) {
    }
    if (!done)
        panic("accessSync: event queue drained without completion");
    return when;
}

} // namespace hams
