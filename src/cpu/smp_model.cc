#include "cpu/smp_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

/**
 * Everything one core carries through a run. The vector of contexts is
 * sized once before the conductor starts, so completion callbacks may
 * capture {this, &ctx} (16 bytes, inside the inline budget).
 */
struct SmpModel::CoreCtx
{
    CoreCtx(const CoreConfig& cc, WorkloadGenerator* g,
            std::uint64_t budget)
        : l1(cc.l1), l2(cc.l2), gen(g), budget(budget)
    {
    }

    CacheModel l1;
    CacheModel l2;
    WorkloadGenerator* gen;
    std::uint64_t budget;

    RunResult res;
    Tick now = 0;
    Tick issueAt = 0; //!< issue tick of the in-flight access/flush

    /** What the core needs from the platform next. */
    enum class Pending : std::uint8_t { None, Wb, Access, Flush };
    Pending pending = Pending::None;
    bool blocked = false;  //!< waiting on a completion event
    bool finished = false;

    /** Current op, parked while its platform interaction is pending. */
    WorkloadOp op;
    /** A dirty-L2-victim writeback was yielded mid-instruction. */
    bool resumeAfterWb = false;
    bool r2Hit = false; //!< saved hit/miss decision across the Wb yield
    MemAccess wb;
};

SmpModel::SmpModel(MemoryPlatform& platform, const SmpConfig& cfg)
    : platform(platform), cfg(cfg)
{
}

void
SmpModel::advance(CoreCtx& c)
{
    // Resume mid-instruction: the dirty-L2-victim writeback has been
    // issued, the saved L2 lookup decides how the instruction ends.
    if (c.resumeAfterWb) {
        c.resumeAfterWb = false;
        if (!c.r2Hit) {
            c.pending = CoreCtx::Pending::Access;
            return;
        }
        ++c.res.l2Hits;
        c.now += cfg.core.l2.hitLatency;
        c.res.activeTime += cfg.core.l2.hitLatency;
    }

    for (;;) {
        if (c.res.instructions >= c.budget || !c.gen->next(c.op)) {
            c.finished = true;
            return;
        }

        if (c.op.computeInstructions > 0) {
            c.res.instructions += c.op.computeInstructions;
            Tick t = cycles(c.op.computeInstructions * CoreConfig::baseCpi);
            c.now += t;
            c.res.activeTime += t;
        }
        if (c.op.opBoundary)
            ++c.res.opsCompleted;
        if (c.op.newPage)
            ++c.res.pagesTouched;

        if (c.op.flushBarrier) {
            c.pending = CoreCtx::Pending::Flush;
            return;
        }
        if (!c.op.hasAccess)
            continue;

        ++c.res.instructions;
        ++c.res.memInstructions;
        bool is_write = c.op.access.op == MemOp::Write;

        CacheResult r1 = c.l1.access(c.op.access.addr, is_write);
        if (r1.hit) {
            ++c.res.l1Hits;
            c.now += cfg.core.l1.hitLatency;
            c.res.activeTime += cfg.core.l1.hitLatency;
            continue;
        }

        if (r1.evictedDirty)
            c.l2.access(r1.evictedLine, /*is_write=*/true);

        CacheResult r2 = c.l2.access(c.op.access.addr, is_write);
        if (r2.evictedDirty) {
            // Yield the background writeback to the conductor so it
            // lands on the platform in global tick order, then resume
            // this instruction where it left off.
            c.wb = MemAccess{r2.evictedLine % platform.capacity(), 64,
                             MemOp::Write};
            c.r2Hit = r2.hit;
            c.resumeAfterWb = true;
            c.pending = CoreCtx::Pending::Wb;
            return;
        }
        if (r2.hit) {
            ++c.res.l2Hits;
            c.now += cfg.core.l2.hitLatency;
            c.res.activeTime += cfg.core.l2.hitLatency;
            continue;
        }

        c.pending = CoreCtx::Pending::Access;
        return;
    }
}

void
SmpModel::onAccessDone(CoreCtx& c, Tick done, const LatencyBreakdown& bd)
{
    c.blocked = false;
    woke = true;
    c.res.stallTime += done - c.issueAt;
    c.res.stallBreakdown += bd;
    c.now = done;
}

void
SmpModel::onFlushDone(CoreCtx& c, Tick done, const LatencyBreakdown&)
{
    // Flush time is charged to flushTime/stallTime but not to the
    // per-category stall breakdown.
    c.blocked = false;
    woke = true;
    c.res.flushTime += done - c.issueAt;
    c.res.stallTime += done - c.issueAt;
    c.now = done;
}

void
SmpModel::issue(CoreCtx& c, DomainConductor& eq)
{
    switch (c.pending) {
      case CoreCtx::Pending::Wb: {
        // Background drain of a dirty L2 victim: occupies platform
        // resources but never stalls the core. It has no callback, so
        // an inline completion has nothing left to deliver.
        c.pending = CoreCtx::Pending::None;
        InlineCompletion ic;
        if (!(cfg.core.inlineFastPath &&
              platform.tryAccess(c.wb, c.now, ic)))
            platform.access(c.wb, c.now, nullptr);
        ++c.res.platformAccesses;
        advance(c);
        break;
      }
      case CoreCtx::Pending::Access: {
        c.pending = CoreCtx::Pending::None;
        ++c.res.platformAccesses;
        c.issueAt = c.now;
        InlineCompletion ic;
        if (cfg.core.inlineFastPath &&
            platform.tryAccess(c.op.access, c.issueAt, ic)) {
            // Applied already; deliver the completion inline unless
            // firing it as an event could change the issue order (the
            // inline rule, smp_model.hh).
            c.res.stallTime += ic.done - c.issueAt;
            c.res.stallBreakdown += ic.bd;
            c.now = ic.done;
            bool delivered;
            if (solo) {
                // The fired completion would be the last event at or
                // before ic.done and leave now() there: legal exactly
                // when nothing else is pending that early. empty()
                // first skips the heap probe on an idle queue.
                delivered = eq.empty() || eq.nextTick() > ic.done;
                if (delivered) {
                    eq.advanceTo(ic.done);
                    advance(c);
                }
            } else {
                // Past ic.done (or finished) the core is picked again
                // only after the conductor would have fired the
                // completion anyway. At exactly ic.done it would
                // contend by index with other ready cores there, which
                // on the event path issue before the completion event
                // unblocks it.
                advance(c);
                delivered = c.finished || c.now > ic.done;
            }
            if (!delivered) {
                // Park on a completion event at the same tick, on the
                // domain access() would have used, scheduled at the
                // same point: the conductor sees the event path's
                // (tick, seq, domain) order.
                c.blocked = true;
                ic.domain->scheduleAt(ic.done, [this, &c]() {
                    c.blocked = false;
                    woke = true;
                });
            }
            break;
        }
        c.blocked = true;
        platform.access(c.op.access, c.issueAt,
                        [this, &c](Tick done, const LatencyBreakdown& bd) {
                            onAccessDone(c, done, bd);
                        });
        break;
      }
      case CoreCtx::Pending::Flush: {
        c.pending = CoreCtx::Pending::None;
        c.issueAt = c.now;
        c.blocked = true;
        platform.flush(c.issueAt,
                       [this, &c](Tick done, const LatencyBreakdown& bd) {
                           onFlushDone(c, done, bd);
                       });
        break;
      }
      case CoreCtx::Pending::None:
        panic("smp issue: core has nothing pending");
    }
}

SmpResult
SmpModel::run(WorkloadGenerator* const* gens, std::size_t cores,
              std::uint64_t per_core_budget)
{
    if (cores == 0)
        fatal("smp run: no cores (empty generator list)");

    // The SMP conductor is a client of the platform's DOMAIN conductor:
    // one delegating domain on a single device, the cross-domain
    // interleaver on a sharded platform, so the retire loop below is
    // oblivious to how many event queues sit under it.
    DomainConductor& eq = platform.conductor();
    Tick start = eq.now();
    solo = cores == 1;

    std::vector<CoreCtx> ctxs;
    ctxs.reserve(cores);
    for (std::size_t i = 0; i < cores; ++i) {
        HAMS_LINT_SUPPRESS("capacity reserved to the core count just above; per-run setup")
        ctxs.emplace_back(cfg.core, gens[i], per_core_budget);
        CoreCtx& c = ctxs.back();
        c.now = start;
        c.res.workload = gens[i]->spec().name;
        c.res.platform = platform.name();
    }

    // The conductor: always serve the ready core with the lowest issue
    // tick (core index breaks ties), but first let every event strictly
    // earlier than that tick fire — a landing completion may unblock a
    // core that belongs in front. Only the completion callbacks change
    // a core's state, so the pick stands until one of them sets woke.
    for (;;) {
        CoreCtx* best = nullptr;
        bool alive = false;
        for (CoreCtx& c : ctxs) {
            // A core that is neither waiting nor about to issue (just
            // started, or resumed by a completion) first retires up to
            // its next platform interaction.
            if (!c.finished && !c.blocked &&
                c.pending == CoreCtx::Pending::None)
                advance(c);
            if (c.finished)
                continue;
            alive = true;
            if (c.blocked)
                continue;
            if (!best || c.now < best->now)
                best = &c;
        }
        if (!alive)
            break;
        woke = false;
        if (!best) {
            // Every live core is parked on a completion event.
            do {
                if (!eq.step())
                    panic("smp run: event queue drained with blocked "
                          "cores");
            } while (!woke);
            continue;
        }
        // empty() first: the inline check skips the heap probe in the
        // common case of nothing pending.
        while (!woke && !eq.empty() && eq.stepBefore(best->now)) {
        }
        if (woke)
            continue; // a core was unblocked: re-pick
        issue(*best, eq);
        // Solo inline streak: with one core and an empty queue the pick
        // above would choose this core again and fire nothing, so keep
        // issuing without it while accesses complete inline.
        while (solo && eq.empty() && best->pending != CoreCtx::Pending::None)
            issue(*best, eq);
    }

    // Multi-core only: resync simulated time to the cores before
    // returning. Inline completions never advanced the queue, and the
    // next run() on this platform starts at eq.now() — left lagging,
    // the devices' absolute-tick busy state (DRAM bank freeAt, link
    // busyUntil) would charge this run's tail to the next run as
    // phantom queueing, leaking warmup into measurement. Leftover
    // background-writeback completions at or before the end tick fire
    // on the way (they carry no callbacks a finished core cares about);
    // later ones stay pending. A solo core skips this: see the solo
    // rules in smp_model.hh.
    if (!solo) {
        Tick end = start;
        for (const CoreCtx& c : ctxs)
            end = std::max(end, c.now);
        while (eq.nextTick() <= end)
            eq.step();
        eq.advanceTo(end);
    }

    SmpResult result;
    result.perCore.reserve(cores);
    for (CoreCtx& c : ctxs) {
        c.res.simTime = c.now - start;
        finalizeRunResult(c.res, CoreConfig::freqGhz, cpuPower);
        HAMS_LINT_SUPPRESS("capacity reserved to the core count just above; per-run result assembly")
        result.perCore.push_back(std::move(c.res));
    }

    // Aggregate view: summed counters over the longest core's time
    // (shared merge helper, so per-core and per-shard aggregation can
    // never drift apart).
    RunResult& comb = result.combined;
    comb.workload = result.perCore[0].workload;
    comb.platform = result.perCore[0].platform;
    for (const RunResult& r : result.perCore)
        mergeRunResult(comb, r);
    finalizeRunResult(comb, CoreConfig::freqGhz, cpuPower);
    return result;
}

} // namespace hams
