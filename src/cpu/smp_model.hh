/**
 * @file
 * SMP driver: N in-order cores (paper Table II: an 8-core ARM v8 class
 * host) sharing one MemoryPlatform on one EventQueue.
 *
 * Each core owns its private L1/L2 CacheModel and its own deterministic
 * WorkloadGenerator (see makeCoreWorkload in workload/workload.hh for
 * per-core seed streams / staggered sequential shards over the shared
 * dataset). The platform — MoS tag array, persist gate, NVMe path — is
 * shared, so accesses from different cores genuinely overlap: a core
 * blocked on a miss parks on its completion event while the other
 * cores keep retiring, which is what finally drives the HAMS
 * controller's per-frame wait lists and persist-gate queue under real
 * cross-core contention (HamsStats::waiterPeakDepth /
 * gateQueuePeakDepth).
 *
 * Ordering contract
 * -----------------
 * Platforms apply their side effects at access()/flush() call time, so
 * call order across cores IS simulated-time order. The conductor
 * therefore always issues the ready core with the smallest issue tick
 * (ties broken by core index) and first drains every pending event
 * strictly earlier than that tick — a completion that lands may
 * unblock a core whose next access belongs before the one about to be
 * issued. Same-tick ties issue first: the access is applied, then
 * pending events at that tick fire. The drain runs in one loop and
 * re-picks only after a completion callback unblocked a core: no other
 * event changes a core's state, so the pick it skips would choose the
 * same core again.
 *
 * The SMP conductor is itself a client of the platform's
 * DomainConductor (sim/domain_conductor.hh): "pending events" above
 * means events in ANY of the platform's event-queue domains, drained
 * in global tick order with the conductor's fixed cross-domain
 * tie-break. On a single-device platform that is exactly the old
 * one-queue behaviour; on a ShardedPlatform the retire loop is
 * unchanged while M device stacks run underneath.
 *
 * The inline rule
 * ---------------
 * With inlineFastPath on, every access and dirty-victim writeback is
 * offered to tryAccess(), whatever is pending; a true return means the
 * access is already applied exactly as access() would have applied it
 * at that call. What remains is delivering the completion, and that is
 * done inline only where the completion event could not change what
 * happens next:
 *
 *  - A writeback has no callback: nothing to deliver.
 *  - A solo core delivers inline when the conductor's next event lies
 *    strictly past the completion tick, so advanceTo() is legal and
 *    leaves now() where the fired event would have.
 *  - With several cores the core first retires up to its next platform
 *    interaction; it delivers inline if it finished or its next issue
 *    tick lies strictly past the completion. At exactly the completion
 *    tick another ready core there would issue first on the event path
 *    (same-tick ties issue before events fire), while an inline core
 *    would contend by index.
 *  - Otherwise the core blocks on an unblock event at the completion
 *    tick, scheduled on InlineCompletion::domain right after the call
 *    — the same tick at the same point in schedule order as access()'s
 *    completion event, so the conductor sees the same (tick, seq,
 *    domain) sequence.
 *
 * Platform calls therefore happen in the same order with the fast path
 * on or off, on every platform (single device or sharded, background
 * GC or not); only the number of fired events differs. With several
 * cores the conductor does not advanceTo() after an inline completion
 * — other cores may still legally issue below the completed tick.
 *
 * One retire loop, two solo rules
 * -------------------------------
 * This conductor is the only retire loop in the simulator:
 * CoreModel::run is a 1-core SmpModel run returning perCore[0]. A run
 * with one core differs from an N-core run in exactly two rules, both
 * decided by gens.size() and neither a knob:
 *
 *  - After an inline completion the solo core advanceTo()s the
 *    completion tick, keeping now() where the fired completion event
 *    would have left it (immediate-completion contract,
 *    baselines/platform.hh), and delivers inline only when that is
 *    legal (the inline rule above). Without it the next run() would start
 *    from a lagging eq.now() and shift every issue tick relative to
 *    the devices' absolute-tick state. This is what keeps single-core
 *    results byte-identical to the earlier dedicated single-core
 *    driver, on which every figure table was recorded.
 *  - A solo run skips the end-of-run resync (fire events up to the
 *    last core's tick, then advanceTo() it) that an N-core run needs
 *    to stop warmup tails leaking into a following measured run.
 *    Applied to one core, the resync moves the nvdimm-C SQLite cells
 *    of fig16 (seqSel, rndSel, seqIns, update) and one fig19 rndSel
 *    cell; tests/test_core_model.cc pins the solo rule on nvdimm-C.
 *
 * A solo core also keeps issuing in a tight loop while its accesses
 * complete inline on an empty queue — the pick it skips would select
 * it again and fire nothing — which is a host-time shortcut, not a
 * semantic rule.
 */

#ifndef HAMS_CPU_SMP_MODEL_HH_
#define HAMS_CPU_SMP_MODEL_HH_

#include <cstdint>
#include <vector>

#include "baselines/platform.hh"
#include "cpu/cache_model.hh"
#include "cpu/core_model.hh"
#include "energy/cpu_power.hh"
#include "sim/annotations.hh"
#include "workload/workload.hh"

namespace hams {

/** SMP configuration: every core gets the same private-core config. */
struct SmpConfig
{
    CoreConfig core;
};

/** What an N-core run produces. */
struct SmpResult
{
    /** One RunResult per core, in core-index order. */
    std::vector<RunResult> perCore;

    /**
     * Aggregate view: counters summed across cores, simTime the
     * longest core's time, rates (ipc, opsPerSec, bytesPerSec)
     * therefore aggregate cross-core rates over the run's wall
     * simulated time.
     */
    RunResult combined;

    std::uint32_t cores() const
    {
        return static_cast<std::uint32_t>(perCore.size());
    }

    friend bool operator==(const SmpResult& a, const SmpResult& b)
    {
        return a.perCore == b.perCore && a.combined == b.combined;
    }
};

/**
 * Drives N WorkloadGenerators against one shared MemoryPlatform with
 * overlapping outstanding accesses.
 */
class SmpModel
{
  public:
    explicit SmpModel(MemoryPlatform& platform, const SmpConfig& cfg = {});

    /**
     * Run each of the @p cores generators at @p gens for
     * @p per_core_budget instructions on its own core. Generators keep
     * their stream position across calls, so warmup-then-measure works
     * on the continuing streams; caches are rebuilt cold per call.
     */
    HAMS_HOT_PATH SmpResult run(WorkloadGenerator* const* gens,
                                std::size_t cores,
                                std::uint64_t per_core_budget);

    /** run() over a generator list, one core per entry. */
    HAMS_HOT_PATH SmpResult
    run(const std::vector<WorkloadGenerator*>& gens,
        std::uint64_t per_core_budget)
    {
        return run(gens.data(), gens.size(), per_core_budget);
    }

  private:
    struct CoreCtx;

    Tick cycles(double n) const
    {
        return static_cast<Tick>(n * 1000.0 / CoreConfig::freqGhz);
    }

    /**
     * Retire ops on @p c — compute, L1/L2 hits — until the core needs
     * the platform (c.pending set) or exhausts its budget/stream
     * (c.finished).
     */
    HAMS_HOT_PATH void advance(CoreCtx& c);

    /** Issue @p c's pending interaction at tick c.now on the
     *  platform's conductor @p eq, delivering an inline completion
     *  by the inline rule above. */
    HAMS_HOT_PATH void issue(CoreCtx& c, DomainConductor& eq);

    /**
     * Completion callbacks: charge the stall and unblock @p c. They
     * retire nothing — the conductor resumes the core on its next
     * pick, keeping the retire path out of the event-callback stack.
     */
    HAMS_HOT_PATH void onAccessDone(CoreCtx& c, Tick done, const LatencyBreakdown& bd);
    HAMS_HOT_PATH void onFlushDone(CoreCtx& c, Tick done, const LatencyBreakdown& bd);

    MemoryPlatform& platform;
    SmpConfig cfg;
    CpuPowerModel cpuPower;
    /** Exactly one core in the current run: the solo rules above
     *  apply. */
    bool solo = false;
    /** Set by every callback that unblocks a core: the conductor's
     *  pick is stale and must be redone. */
    bool woke = false;
};

} // namespace hams

#endif // HAMS_CPU_SMP_MODEL_HH_
