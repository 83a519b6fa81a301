/**
 * @file
 * The MemoryPlatform interface every evaluated system implements:
 * the HAMS variants (hams-LP/LE/TP/TE), the MMF/mmap software baseline,
 * FlatFlash-P/M, NVDIMM-C, Optane-P/M and the oracle — the eleven
 * platforms of the paper's Fig. 16.
 *
 * Immediate-completion contract
 * -----------------------------
 * The evaluation is hit-dominated (the paper measures a 94% NVDIMM hit
 * rate), and a hit's completion tick is pure latency arithmetic, so
 * paying a full EventQueue schedule+fire round trip per access makes
 * the event heap — not the model — the throughput bound. tryAccess()
 * lets a platform complete such an access inline: it returns the
 * completion tick and breakdown directly, scheduling no completion
 * event, and the caller either delivers it on the spot or, where that
 * could change the issue order, schedules the completion itself.
 *
 * A platform may complete an access inline only when doing so is
 * indistinguishable from access(): the same completion tick, the same
 * breakdown, and the same side effects on device state, all applied at
 * issue time. Concretely that means the access must not depend on any
 * pending event landing first — the HAMS controller, for example, only
 * completes hits (in either mode) whose frame is idle (not busy, so no
 * waiters can be parked and no fill can be racing the tag probe).
 *
 * A platform that completes every access inline (mmap, FlatFlash,
 * NVDIMM-C, Optane, the oracle) implements tryAccess() alone: the
 * default MemoryPlatform::access() is tryAccess() plus a completion
 * event at out.done on out.domain, so its event path is the inline
 * path by construction. A platform whose tryAccess() can decline
 * (HAMS, a sharded platform) must override access() with its own
 * event path; the default treats a decline as an internal error.
 *
 * Re-entrancy rules:
 *  - tryAccess() must not touch the event queue: no schedule, no
 *    step, no run — a false return must leave the queue untouched so
 *    the caller can fall back to access() with identical behaviour.
 *    Events the access itself kicks (a fault that wakes background
 *    GC) are the exception on a true return: access() would schedule
 *    them too, before its completion, so they land in the same order.
 *  - A false return must also leave *platform* state untouched
 *    (no stats, no tag/cache updates); only a true return commits.
 *  - A true return fills out.domain with the event queue access()
 *    would have scheduled the completion on (a sharded platform passes
 *    its shard's queue through).
 *  - The caller owns the event loop and decides how the completion is
 *    delivered. Since tryAccess() already applied the access exactly
 *    as access() would have at call time, the only thing left is *when
 *    the caller learns of it*. It may deliver inline when firing the
 *    completion event could not change what it does next; otherwise
 *    it schedules its own completion at out.done on out.domain, right
 *    after the call — the same tick at the same point in schedule
 *    order as access()'s completion event, so the event sequence is
 *    the one access() would have produced. A solo caller delivers
 *    inline only while no live event is pending at or before
 *    out.done, and then advanceTo()s out.done, keeping now() where the
 *    fired completion event would have left it. SmpModel's rule for
 *    several cores is in "Multiple outstanding accesses" below.
 *
 * Hot-path contract (machine-checked)
 * -----------------------------------
 * Every platform's tryAccess() and access() — for an always-inline
 * platform, the default MemoryPlatform::access() — are HAMS_HOT_PATH
 * roots (sim/annotations.hh): from those roots, transitively,
 * steady-state code performs no heap allocation (pools and first-touch
 * tables only), probes no hash container, constructs no std::function,
 * keeps event-callback captures inside InlineFunction's 48-byte inline
 * budget (capture a pooled-context pointer, never the context), and
 * touches no wall-clock/rand/pointer-keyed/unordered-iteration
 * determinism hazard. tools/hamslint walks the call graph and enforces
 * all of this — `scripts/lint_hotpaths.sh` locally, the `hamslint` CI
 * job on every push. Intentional amortized growth needs a
 * HAMS_LINT_SUPPRESS("reason") at the statement; recovery and setup
 * paths are fenced off with HAMS_COLD_PATH.
 *
 * Multiple outstanding accesses (SMP drivers)
 * -------------------------------------------
 * A platform may be shared by several cores with overlapping accesses
 * in flight (cpu/smp_model.hh): while one core's completion event is
 * pending, other cores keep issuing. Two obligations follow:
 *
 *  - Callers must issue access()/flush() calls in non-decreasing order
 *    of the issue tick across all cores (a platform applies its side
 *    effects at call time, so call order *is* simulated-time order).
 *    SmpModel's conductor drains every pending event strictly earlier
 *    than the next issue tick before issuing, which guarantees this.
 *  - Other cores' pending completions do not stop the fast path:
 *    SmpModel offers every access to tryAccess(), and a platform only
 *    accepts one that no pending event can change. A platform whose
 *    tryAccess() could observe partially-applied state from a pending
 *    event must decline (return false) rather than approximate — the
 *    arithmetic baselines never depend on pending events, so they
 *    always qualify, and HAMS accepts only idle-frame hits.
 *  - Delivery with several cores: after an accepted access the core
 *    first retires up to its next platform interaction. If it has none
 *    left, or its next issue tick lies strictly past out.done, the
 *    completion is delivered inline: on the event path the conductor
 *    would fire the completion before that core's next issue anyway,
 *    and the firing touches nothing but that core. At exactly
 *    out.done the core would contend by index with other ready cores
 *    at that tick, which on the event path issue before the event
 *    unblocks it (same-tick ties issue first), so the caller
 *    schedules the completion event instead. Either way every
 *    access()/tryAccess()/flush() call happens in the event-path order.
 *  - A multi-issue caller skips advanceTo() after an inline
 *    completion: with other cores' issue ticks possibly below the
 *    returned tick, advancing the queue would forbid their (legal)
 *    in-order schedules. Leaving now() behind is safe because
 *    platforms compute from the passed-in issue tick, never now().
 *
 * Background device activity (FTL garbage collection)
 * ---------------------------------------------------
 * A platform whose device runs background work as events (an SSD with
 * FtlConfig::backgroundGc, ftl/page_ftl.hh) needs no special casing for
 * the fast path:
 *
 *  - Pending GC events do not block tryAccess(): a hit that never
 *    touches the SSD cannot depend on them. The caller's delivery rule
 *    orders the completion against them exactly as the event path
 *    would — a solo caller defers whenever a GC step is due at or
 *    before out.done, and the conductor pumps GC steps in
 *    deterministic tick order either way.
 *  - An inline-completable access that itself kicks background work
 *    (mmap's fault/writeback path waking GC) schedules
 *    those events inside tryAccess(), before the caller schedules or
 *    delivers the completion — the order access() produces — and a
 *    solo caller then sees them pending at or before out.done and
 *    defers, so advanceTo() stays legal.
 *
 * Event-path completions ride pooled contexts (scheduleCompletion):
 * {AccessCb, tick, breakdown} exceeds the 48-byte inline capture
 * budget, so capturing it by value in the completion lambda would box
 * on the heap for every event-path access — load-bearing for misses,
 * flushes and every platform that never completes inline.
 *
 * Sharded platforms and event-queue domains
 * -----------------------------------------
 * A platform need not be one device on one event queue: a
 * ShardedPlatform (baselines/sharded_platform.hh) routes each access
 * to one of M full stacks, each with its OWN EventQueue — its event
 * *domain* — joined by a DomainConductor (sim/domain_conductor.hh)
 * that interleaves domains by global tick with a fixed tie-break.
 * That changes how callers drive a platform:
 *
 *  - Drivers pump conductor(), never eventQueue() directly. For a
 *    single-device platform conductor() wraps the one queue and every
 *    call delegates, so the two are interchangeable there; for a
 *    sharded platform eventQueue() is only the hub domain (cross-shard
 *    coordination events such as flush fences) and pumping it alone
 *    would starve the shards. SmpModel (which CoreModel runs with one
 *    core) and accessSync() are both conductor clients.
 *  - The inline delivery rule is the same on every platform: the solo
 *    check looks at conductor().nextTick(), i.e. at every domain, and
 *    a deferred completion is scheduled on out.domain — the owning
 *    shard's queue, exactly where that shard's access() would have put
 *    it, so the conductor's cross-domain tie-break sees the same
 *    (tick, seq, domain) order. tryAccess() routing must itself stay
 *    pure: a false return from the owning shard leaves every domain
 *    untouched.
 *  - Cross-shard flush ordering: flush() on a sharded platform is a
 *    two-phase barrier — the fence fans out to every shard at the
 *    issue tick, and the completion fires on the hub domain at
 *    max(per-shard flush completion) + the fence latency, so a flush
 *    never acks before every shard's prior acked writes are durable.
 *    Callers see one AccessCb, exactly as on one device.
 *  - Shards share no mutable state: each has its own controller, NVMe
 *    path, FTL, GC machines and NVDIMM, so per-shard powerFail() and
 *    recovery are independent — a shard can crash and restore while
 *    its siblings keep serving — and the domain split is the
 *    structural unlock for pumping big simulations on several host
 *    threads later.
 *
 * The ordering obligations of "Multiple outstanding accesses" above
 * apply across shards unchanged: callers issue in non-decreasing
 * issue-tick order, and the conductor guarantees pending events
 * strictly earlier than the next issue have fired regardless of which
 * domain holds them.
 */

#ifndef HAMS_BASELINES_PLATFORM_HH_
#define HAMS_BASELINES_PLATFORM_HH_

#include <cstdint>
#include <functional>
#include <string>

#include "energy/energy_meter.hh"
#include "mem/request.hh"
#include "sim/annotations.hh"
#include "sim/domain_conductor.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/types.hh"

namespace hams {

/**
 * Map an arbitrary platform address onto host DRAM for timing purposes:
 * the page is folded into the DRAM capacity while keeping the in-page
 * offset, so page-sized transfers never run past the module's end.
 */
inline Addr
dramFoldAddr(Addr addr, std::uint64_t dram_bytes,
             std::uint32_t page_bytes = 4096)
{
    std::uint64_t frames = dram_bytes / page_bytes;
    // With power-of-two module and page sizes (all stock configs) the
    // fold is a single mask; the generic path costs a runtime division
    // per access.
    std::uint64_t span = frames * page_bytes;
    if (isPow2(span) && isPow2(page_bytes))
        return addr & (span - 1);
    return (addr / page_bytes % frames) * page_bytes + addr % page_bytes;
}

/**
 * A byte-addressable (or page-served) memory platform under test.
 *
 * Accesses are asynchronous: the callback fires as a DES event at the
 * completion tick carrying the latency attribution used by the
 * Fig. 17/18 breakdowns.
 */
class MemoryPlatform
{
  public:
    using AccessCb = hams::AccessCb;

    virtual ~MemoryPlatform() = default;

    /** Platform label as used in the paper's figures. */
    virtual const std::string& name() const = 0;

    /** Byte capacity of the (persistent) memory space. */
    virtual std::uint64_t capacity() const = 0;

    /**
     * The platform's (primary) event queue. For a sharded platform
     * this is only the hub coordination domain — drivers must pump
     * conductor() instead (see "Sharded platforms and event-queue
     * domains" in the file header).
     */
    virtual EventQueue& eventQueue() = 0;

    /**
     * The domain conductor driving this platform's event domain(s).
     * Single-device platforms get a one-domain conductor over
     * eventQueue() (every call delegates, so behaviour is identical to
     * driving the queue directly); ShardedPlatform overrides this with
     * its M+1-domain conductor.
     */
    virtual DomainConductor&
    conductor()
    {
        if (soloConductor.domains() == 0)
            soloConductor.attach(eventQueue());
        return soloConductor;
    }

    /**
     * Issue one CPU-visible access (<= 64 B, never page-crossing) at
     * tick @p at.
     *
     * The default runs tryAccess() and schedules @p cb at out.done on
     * out.domain, carrying out.bd; it panics if tryAccess() declines.
     * Platforms whose tryAccess() can decline override it (see the
     * immediate-completion contract in the file header).
     */
    HAMS_HOT_PATH virtual void access(const MemAccess& acc, Tick at,
                                      AccessCb cb);

    /**
     * Fast path: try to complete the access inline, without touching
     * the event queue (see the immediate-completion contract in the
     * file header). On true, @p out carries the completion tick and
     * latency attribution and the access is fully applied; on false,
     * nothing happened and the caller must issue it via access().
     */
    virtual bool tryAccess(const MemAccess& acc, Tick at,
                           InlineCompletion& out) = 0;

    /** True if acked writes survive power failure. */
    virtual bool persistent() const = 0;

    /**
     * Durability barrier (fsync/msync). Platforms with inherent
     * persistence complete immediately; the MMF baseline pays the
     * writeback here.
     */
    virtual void
    flush(Tick at, AccessCb cb)
    {
        if (cb)
            cb(at, LatencyBreakdown{});
    }

    /**
     * What the memory-side devices did so far, for energyOf()
     * (energy/energy_meter.hh). The default, {}, models no device.
     */
    virtual DeviceActivity deviceActivity() const { return {}; }

    /**
     * Memory-side energy spent so far (CPU energy is accounted by the
     * core model, which knows busy/stall time).
     */
    virtual EnergyBreakdownJ
    memoryEnergy(Tick elapsed) const
    {
        return energyOf(deviceActivity(), elapsed);
    }

    /**
     * Synchronous convenience: run the event queue until the access
     * completes. Only valid when the caller owns the event loop.
     */
    Tick accessSync(const MemAccess& acc, Tick at,
                    LatencyBreakdown* bd = nullptr);

    /** Completion contexts allocated so far (tests pin pool reuse). */
    std::size_t completionContextsAllocated() const
    {
        return completionPool.totalObjects();
    }

  protected:
    /**
     * Schedule @p cb to fire at @p done carrying @p bd, through a
     * pooled context so the event captures only {this, ctx} — the
     * callback + tick + breakdown together blow the 48-byte inline
     * budget and would box on the heap per event-path access.
     */
    void scheduleCompletion(EventQueue& eq, Tick done,
                            const LatencyBreakdown& bd, AccessCb cb);

  private:
    /** Pooled {callback, tick, breakdown} of one event-path access. */
    struct CompletionCtx
    {
        AccessCb cb;
        Tick done;
        LatencyBreakdown bd;
    };

    ObjectPool<CompletionCtx> completionPool;

    /** Lazily-attached one-domain conductor over eventQueue(). */
    DomainConductor soloConductor;
};

} // namespace hams

#endif // HAMS_BASELINES_PLATFORM_HH_
