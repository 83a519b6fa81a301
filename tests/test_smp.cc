/**
 * @file
 * SmpModel tests: core 0 of a 1-core SmpModel run reproduces the
 * single-core stream (makeCoreWorkload(w, ds, 0, 1) drives the same
 * ops as makeWorkload(w, ds), so the full RunResult, HamsStats, engine
 * stats and event-queue time match CoreModel::run on the same seed);
 * N-core runs are bit-identical across reruns and with the inline fast
 * path on vs off; contention counters
 * (wait lists, persist gate) grow with core count on a shared HAMS
 * platform; the inline fast path is offered with events pending and
 * every inline delivery keeps the event-path issue order, same-tick
 * ties included; and the per-core hit path through the SMP conductor
 * stays allocation-free.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "cpu/smp_model.hh"
#include "ftl/page_ftl.hh"
#include "sim/alloc_hook.hh"
#include "ssd/ssd.hh"
#include "workload/workload.hh"

#include "bg_gc_hams.hh"
#include "expect_fields.hh"
#include "forwarding_platform.hh"
#include "tie_platform.hh"

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

std::unique_ptr<MmapPlatform>
smallMmap()
{
    MmapConfig c;
    c.dramBytes = 64ull << 20;
    c.pageCacheBytes = 48ull << 20;
    c.ssdRawBytes = 1ull << 30;
    return std::make_unique<MmapPlatform>(c);
}

/** Warmup-then-measure an N-core SMP run on a fresh platform. */
SmpResult
runSmp(MemoryPlatform& platform, const std::string& workload,
       std::uint32_t cores, std::uint64_t budget,
       std::uint64_t dataset = 32ull << 20)
{
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < cores; ++c) {
        gens.push_back(makeCoreWorkload(workload, dataset, c, cores));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(platform);
    smp.run(raw, budget / 2);
    return smp.run(raw, budget);
}

// ---------------------------------------------------------------------
// Core 0 of 1 replays the single-core workload stream, bit for bit.
// ---------------------------------------------------------------------

template <typename MakePlatform>
void
oneCoreDifferential(MakePlatform make, const std::string& workload,
                    std::uint64_t budget)
{
    auto p_core = make();
    auto p_smp = make();

    auto gen_core = makeWorkload(workload, 32ull << 20);
    CoreModel core(*p_core);
    RunResult warm_core = core.run(*gen_core, budget / 2);
    RunResult meas_core = core.run(*gen_core, budget);

    // Core 0 of 1 must reproduce the single-core stream exactly.
    auto gen_smp = makeCoreWorkload(workload, 32ull << 20, 0, 1);
    std::vector<WorkloadGenerator*> gens{gen_smp.get()};
    SmpModel smp(*p_smp);
    SmpResult warm_smp = smp.run(gens, budget / 2);
    SmpResult meas_smp = smp.run(gens, budget);

    ASSERT_EQ(warm_smp.cores(), 1u);
    std::string tag = workload + " on " + p_core->name();
    expectSameFields(warm_core, warm_smp.perCore[0],
                     tag + " (warmup)");
    expectSameFields(meas_core, meas_smp.perCore[0],
                     tag + " (measure)");
    // The combined view of one core is that core.
    expectSameFields(meas_smp.perCore[0], meas_smp.combined,
                     tag + " (combined)");
    EXPECT_EQ(p_core->eventQueue().now(), p_smp->eventQueue().now()) << tag;
    EXPECT_EQ(p_core->eventQueue().fired(), p_smp->eventQueue().fired())
        << tag;
}

TEST(SmpOneCore, BitIdenticalToCoreModelOnMmap)
{
    oneCoreDifferential(smallMmap, "rndWr", 200000);
}

TEST(SmpOneCore, BitIdenticalToCoreModelOnHamsExtend)
{
    auto p_core = smallHams(HamsMode::Extend);
    auto p_smp = smallHams(HamsMode::Extend);

    auto gen_core = makeWorkload("update", 32ull << 20);
    CoreModel core(*p_core);
    RunResult warm_core = core.run(*gen_core, 200000);
    RunResult meas_core = core.run(*gen_core, 400000);

    auto gen_smp = makeCoreWorkload("update", 32ull << 20, 0, 1);
    std::vector<WorkloadGenerator*> gens{gen_smp.get()};
    SmpModel smp(*p_smp);
    SmpResult warm_smp = smp.run(gens, 200000);
    SmpResult meas_smp = smp.run(gens, 400000);

    expectSameFields(warm_core, warm_smp.perCore[0], "update TE (warmup)");
    expectSameFields(meas_core, meas_smp.perCore[0], "update TE (measure)");
    expectSameFields(p_core->stats(), p_smp->stats(), "update HamsStats");
    expectSameFields(p_core->engineStats(), p_smp->engineStats(),
                     "update NvmeEngineStats");
    EXPECT_EQ(p_core->eventQueue().now(), p_smp->eventQueue().now());
}

TEST(SmpOneCore, BitIdenticalToCoreModelOnHamsPersist)
{
    auto p_core = smallHams(HamsMode::Persist);
    auto p_smp = smallHams(HamsMode::Persist);

    auto gen_core = makeWorkload("rndRd", 32ull << 20);
    CoreModel core(*p_core);
    RunResult meas_core = core.run(*gen_core, 150000);

    auto gen_smp = makeCoreWorkload("rndRd", 32ull << 20, 0, 1);
    std::vector<WorkloadGenerator*> gens{gen_smp.get()};
    SmpModel smp(*p_smp);
    SmpResult meas_smp = smp.run(gens, 150000);

    expectSameFields(meas_core, meas_smp.perCore[0], "rndRd TP");
    expectSameFields(p_core->stats(), p_smp->stats(), "rndRd HamsStats");
}

// ---------------------------------------------------------------------
// N-core determinism: reruns are bit-identical with the fast path on
// or off, and on vs off.
// ---------------------------------------------------------------------

/**
 * Run the same N-core warmup + measure twice on fresh platforms, the
 * fast path @p inline_first on the first run and @p inline_second on
 * the second, and demand bit-identical results. @p first_stats, if
 * given, receives the first run's controller stats.
 */
void
rerunIdentical(const std::string& workload, HamsMode mode,
               std::uint32_t cores, bool inline_first, bool inline_second,
               HamsStats* first_stats = nullptr)
{
    auto run_once = [&](HamsSystem& sys, bool inline_on, SmpResult& out) {
        std::vector<std::unique_ptr<WorkloadGenerator>> gens;
        std::vector<WorkloadGenerator*> raw;
        for (std::uint32_t c = 0; c < cores; ++c) {
            gens.push_back(
                makeCoreWorkload(workload, 32ull << 20, c, cores));
            raw.push_back(gens.back().get());
        }
        SmpConfig cfg;
        cfg.core.inlineFastPath = inline_on;
        SmpModel smp(sys, cfg);
        smp.run(raw, 100000);
        out = smp.run(raw, 200000);
    };

    auto p1 = smallHams(mode);
    auto p2 = smallHams(mode);
    SmpResult r1, r2;
    run_once(*p1, inline_first, r1);
    run_once(*p2, inline_second, r2);
    if (first_stats)
        *first_stats = p1->stats();

    ASSERT_EQ(r1.cores(), cores);
    ASSERT_EQ(r2.cores(), cores);
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::string tag = workload + " core " + std::to_string(c);
        expectSameFields(r1.perCore[c], r2.perCore[c], tag);
    }
    expectSameFields(r1.combined, r2.combined, "combined");
    expectSameFields(p1->stats(), p2->stats(), "HamsStats");
    expectSameFields(p1->engineStats(), p2->engineStats(),
                     "NvmeEngineStats");
    EXPECT_EQ(p1->eventQueue().now(), p2->eventQueue().now());
    if (inline_first == inline_second)
        EXPECT_EQ(p1->eventQueue().fired(), p2->eventQueue().fired());
    else // the fast path engaged on the inline-on side
        EXPECT_NE(p1->eventQueue().fired(), p2->eventQueue().fired());
}

TEST(SmpDeterminism, FourCoreExtendRerunIdentical)
{
    rerunIdentical("update", HamsMode::Extend, 4, true, true);
}

TEST(SmpDeterminism, FourCorePersistRerunIdentical)
{
    rerunIdentical("rndWr", HamsMode::Persist, 4, true, true);
}

TEST(SmpDeterminism, EightCoreEventPathRerunIdentical)
{
    rerunIdentical("rndRd", HamsMode::Extend, 8, false, false);
}

TEST(SmpDeterminism, FourCorePersistInlineOnMatchesOff)
{
    // Persist-mode hits complete inline while four cores' misses queue
    // on the persist gate. A hit never touches the gate, and the inline
    // rule keeps the event-path issue order, so every result must match
    // the all-events run.
    for (const char* workload : {"rndRd", "update"}) {
        SCOPED_TRACE(workload);
        HamsStats s;
        rerunIdentical(workload, HamsMode::Persist, 4, true, false, &s);
        EXPECT_GT(s.persistGateWaits, 0u) << "the gate never serialised";
    }
}

// ---------------------------------------------------------------------
// The inline rule (cpu/smp_model.hh): SmpModel offers every access and
// dirty-victim writeback to tryAccess(), pending events or not, and
// delivers an applied access's completion inline only where the fired
// completion event could not have changed the issue order — otherwise
// it parks the core on a completion event at the same tick, on the
// domain access() would have used. The on-vs-off differentials pin the
// outcome on real platforms; the spy below checks every inline
// delivery from outside, and the scripted tie run forces the one case
// the rule exists for.
// ---------------------------------------------------------------------

/**
 * Forwards to a real platform and checks every completion tryAccess()
 * applies against the inline rule. Core k must drive addresses in
 * [k * span, (k + 1) * span) through the generator tap(k) returns: the
 * address attributes each call to its core, and the op the tap saw
 * last tells the core's access from its dirty-victim writebacks.
 *
 * The check: once tryAccess() has applied core k's access with
 * completion tick d, core k's next call comes after d, or at exactly d
 * only once the completion's domain has reached d. With several cores
 * no event at or past d fires while a core is ready at or below d, so
 * only the deferred completion event can take the domain there; an
 * inline delivery at such a tie leaves it short of d. (A solo core's
 * inline delivery advanceTo()s d itself, which panics if an event is
 * due first.)
 */
class InlineRuleSpy : public ForwardingPlatform
{
  public:
    InlineRuleSpy(MemoryPlatform& inner, std::uint64_t span,
                  std::uint32_t cores)
        : ForwardingPlatform(inner), span(span), cores(cores)
    {
    }

    /** Core @p k's generator, as SmpModel must see it. */
    WorkloadGenerator*
    tap(std::uint32_t k, WorkloadGenerator& gen)
    {
        cores.at(k).tap.gen = &gen;
        return &cores[k].tap;
    }

    void
    access(const MemAccess& acc, Tick at, AccessCb cb) override
    {
        settle(acc, at);
        ++eventPath;
        inner.access(acc, at, std::move(cb));
    }

    bool
    tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out) override
    {
        Core& c = settle(acc, at);
        ++offers;
        if (!inner.conductor().empty())
            ++offersWhilePending;
        if (!inner.tryAccess(acc, at, out))
            return false;
        const MemAccess& issued = c.tap.last.access;
        if (acc.addr == issued.addr && acc.op == issued.op) {
            ++applied;
            c.open = true;
            c.done = out.done;
            c.domain = out.domain;
        }
        return true;
    }

    std::uint64_t offers = 0;
    std::uint64_t offersWhilePending = 0;
    std::uint64_t eventPath = 0;
    std::uint64_t applied = 0;    //!< accesses (not writebacks) applied
    std::uint64_t ties = 0;       //!< next call exactly at the completion
    std::uint64_t violations = 0; //!< inline deliveries breaking the rule

  private:
    /** Remembers the op its generator emitted last. */
    struct Tap : WorkloadGenerator
    {
        const WorkloadSpec& spec() const override { return gen->spec(); }

        bool
        next(WorkloadOp& op) override
        {
            bool more = gen->next(op);
            if (more && op.hasAccess)
                last = op;
            return more;
        }

        void reset() override { gen->reset(); }

        WorkloadGenerator* gen = nullptr;
        WorkloadOp last;
    };

    struct Core
    {
        Tap tap;
        bool open = false; //!< an applied access awaits the next call
        Tick done = 0;
        EventQueue* domain = nullptr;
    };

    /** Check the calling core's previous applied access against its
     *  next call at @p at. */
    Core&
    settle(const MemAccess& acc, Tick at)
    {
        Core& c = cores.at(acc.addr / span);
        if (c.open) {
            c.open = false;
            if (at == c.done) {
                ++ties;
                if (c.domain->now() < c.done)
                    ++violations;
            } else if (at < c.done) {
                ++violations;
            }
        }
        return c;
    }

    std::uint64_t span;
    std::vector<Core> cores;
};

// The gate under background GC: collection events are nearly always
// pending, so the old empty-queue gate never offered; hits must now be
// offered (and mostly delivered inline) while every delivery keeps the
// rule.
TEST(SmpInlineRule, OffersUnderBackgroundGcAndEveryDeliveryKeepsTheRule)
{
    constexpr std::uint64_t span = 96ull << 20;
    for (std::uint32_t cores : {1u, 2u, 4u}) {
        SCOPED_TRACE(cores);
        auto sys = smallHamsBgGc();
        ASSERT_GE(sys->capacity(), cores * span);
        InlineRuleSpy spy(*sys, span, cores);
        std::vector<std::unique_ptr<WorkloadGenerator>> gens;
        std::vector<WorkloadGenerator*> raw;
        for (std::uint32_t k = 0; k < cores; ++k) {
            gens.push_back(
                makeShardCoreWorkload("rndWr", span, 0, 1, k, k * span));
            raw.push_back(spy.tap(k, *gens.back()));
        }
        SmpModel smp(spy);
        smp.run(raw, 100000);
        smp.run(raw, 200000);
        EXPECT_GT(spy.applied, 0u) << "nothing ever completed inline";
        EXPECT_GT(spy.offersWhilePending, 0u)
            << "tryAccess was never offered with an event pending";
        EXPECT_GT(spy.eventPath, 0u) << "no access ever took the event path";
        EXPECT_EQ(spy.violations, 0u)
            << "an inline delivery could have reordered the issue order";
    }
}

/** Replays a fixed op list. */
class ScriptedWorkload : public WorkloadGenerator
{
  public:
    explicit ScriptedWorkload(std::vector<WorkloadOp> ops)
        : ops(std::move(ops))
    {
        _spec.name = "scripted";
    }

    const WorkloadSpec& spec() const override { return _spec; }

    bool
    next(WorkloadOp& op) override
    {
        if (pos == ops.size())
            return false;
        op = ops[pos++];
        return true;
    }

    void reset() override { pos = 0; }

  private:
    WorkloadSpec _spec;
    std::vector<WorkloadOp> ops;
    std::size_t pos = 0;
};

/**
 * @p n reads of distinct lines from @p base — every one misses L1 and
 * L2, so it reaches the platform with no cache latency added — each
 * preceded by compute_of(i) instructions.
 */
template <typename ComputeOf>
std::vector<WorkloadOp>
missScript(Addr base, std::uint32_t n, ComputeOf compute_of)
{
    std::vector<WorkloadOp> ops(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        ops[i].computeInstructions = compute_of(i);
        ops[i].hasAccess = true;
        ops[i].access = MemAccess{base + Addr(i) * 4096, 64, MemOp::Read};
        ops[i].opBoundary = true;
    }
    return ops;
}

TEST(SmpInlineRule, SameTickTiesKeepTheEventPathOrder)
{
    // Core 0 issues back to back with no compute: its next access is
    // ready at exactly its previous completion tick. Core 1 computes
    // for one platform latency (or none, two, or half of one) between
    // accesses, so it keeps arriving ready at core 0's completion
    // ticks. On the
    // event path core 1 issues first there (ties issue before events
    // fire); an inline delivery to core 0 would let its lower index win
    // the tie. Inline on and off must issue the same sequence.
    constexpr std::uint64_t span = 1ull << 20;
    const CoreConfig core;
    const std::uint32_t lat_instr = static_cast<std::uint32_t>(
        TiePlatform::latency * core.freqGhz / 1000.0 / core.baseCpi);
    ASSERT_EQ(Tick(lat_instr * 1000.0 / core.freqGhz), TiePlatform::latency);

    struct Outcome
    {
        std::vector<TiePlatform::Call> calls;
        SmpResult result;
        std::uint64_t fired;
        std::uint64_t ties;
        std::uint64_t violations;
    };
    auto run_once = [&](bool inline_on) {
        ScriptedWorkload g0(
            missScript(0, 200, [](std::uint32_t) { return 0u; }));
        ScriptedWorkload g1(missScript(span, 200, [&](std::uint32_t i) {
            return std::array<std::uint32_t, 4>{lat_instr, 0, 2 * lat_instr,
                                                lat_instr / 2}[i % 4];
        }));
        TiePlatform tie;
        InlineRuleSpy spy(tie, span, 2);
        SmpConfig cfg;
        cfg.core.inlineFastPath = inline_on;
        SmpModel smp(spy, cfg);
        Outcome o;
        o.result = smp.run({spy.tap(0, g0), spy.tap(1, g1)}, 1u << 20);
        o.calls = tie.calls;
        o.fired = tie.eventQueue().fired();
        o.ties = spy.ties;
        o.violations = spy.violations;
        return o;
    };

    Outcome on = run_once(true);
    Outcome off = run_once(false);
    ASSERT_EQ(on.calls.size(), 400u);
    ASSERT_EQ(off.calls.size(), 400u);
    for (std::size_t i = 0; i < on.calls.size(); ++i) {
        ASSERT_TRUE(on.calls[i] == off.calls[i])
            << "call " << i << " issued out of the event-path order: inline "
            << "(" << on.calls[i].at << ", " << on.calls[i].addr
            << ") vs events (" << off.calls[i].at << ", "
            << off.calls[i].addr << ")";
    }
    for (std::uint32_t c = 0; c < 2; ++c)
        expectSameFields(on.result.perCore[c], off.result.perCore[c],
                         "tie inline on vs off");
    expectSameFields(on.result.combined, off.result.combined,
                     "tie inline on vs off combined");

    // The script really produced ties, every one was deferred, and the
    // rest still completed inline.
    EXPECT_GT(on.ties, 0u) << "no core was ever ready at its completion";
    EXPECT_EQ(on.violations, 0u);
    EXPECT_LT(on.fired, off.fired) << "nothing completed inline";
}

// ---------------------------------------------------------------------
// Drain-ahead: the conductor fires every event strictly before the
// picked core's issue tick in one loop, and re-picks as soon as one of
// them unblocks a core.
// ---------------------------------------------------------------------

/** Logs every issue and every event-path completion, by core. */
class DrainLog : public ForwardingPlatform
{
  public:
    DrainLog(MemoryPlatform& inner, std::uint64_t span,
             std::vector<std::string>& log)
        : ForwardingPlatform(inner), span(span), log(log)
    {
    }

    void
    access(const MemAccess& acc, Tick at, AccessCb cb) override
    {
        std::uint64_t core = record(acc, at);
        inner.access(acc, at,
                     [this, core, cb = std::move(cb)](
                         Tick done, const LatencyBreakdown& bd) {
                         log.push_back("C" + std::to_string(core) + "@" +
                                       std::to_string(done));
                         cb(done, bd);
                     });
    }

    bool
    tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out) override
    {
        record(acc, at);
        return inner.tryAccess(acc, at, out);
    }

  private:
    std::uint64_t
    record(const MemAccess& acc, Tick at)
    {
        std::uint64_t core = acc.addr / span;
        log.push_back("I" + std::to_string(core) + "@" + std::to_string(at));
        return core;
    }

    std::uint64_t span;
    std::vector<std::string>& log;
};

/**
 * Four scripted cores against TiePlatform, with background events
 * scheduled ahead of them: one-shots (some on a core's issue tick) and
 * a poll that re-arms itself every 15 ns, as a GC step does. Returns
 * the interleaving of issues (I), event-path completions (C) and
 * background fires (B one-shot, P poll), each with its tick.
 */
std::vector<std::string>
drainAheadLog(bool inline_on)
{
    constexpr std::uint64_t span = 1ull << 20;
    const CoreConfig core;
    const std::uint32_t lat = static_cast<std::uint32_t>(
        TiePlatform::latency * core.freqGhz / 1000.0 / core.baseCpi);
    using Computes = std::array<std::uint32_t, 4>;
    const std::array<Computes, 4> computes{{
        {0, 0, 0, 0},
        {5 * lat / 2, 5 * lat / 2, 5 * lat / 2, 5 * lat / 2},
        {lat, 3 * lat / 2, 0, lat / 4},
        {2 * lat, lat / 2, 2 * lat, lat / 2},
    }};

    std::vector<std::string> log;
    TiePlatform tie;
    DrainLog spy(tie, span, log);
    EventQueue& eq = tie.eventQueue();
    for (Tick at : {10u, 20u, 25u, 40u, 50u, 50u, 70u, 100u, 125u})
        eq.scheduleAt(nanoseconds(at), [&log, &eq] {
            log.push_back("B@" + std::to_string(eq.now()));
        });
    struct Poll
    {
        EventQueue* eq;
        std::vector<std::string>* log;
        int left;
        void
        operator()() const
        {
            log->push_back("P@" + std::to_string(eq->now()));
            if (left > 0)
                eq->schedule(nanoseconds(15), Poll{eq, log, left - 1});
        }
    };
    eq.scheduleAt(nanoseconds(5), Poll{&eq, &log, 12});

    std::vector<std::unique_ptr<ScriptedWorkload>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        auto compute_of = [&, c](std::uint32_t i) {
            return computes[c][i % 4];
        };
        gens.push_back(std::make_unique<ScriptedWorkload>(
            missScript(c * span, 6, compute_of)));
        raw.push_back(gens.back().get());
    }
    SmpConfig cfg;
    cfg.core.inlineFastPath = inline_on;
    SmpModel smp(spy, cfg);
    smp.run(raw, 1u << 20);
    EXPECT_EQ(tie.calls.size(), 24u);
    return log;
}

std::string
joined(const std::vector<std::string>& log)
{
    std::string s;
    for (const std::string& e : log)
        s += (s.empty() ? "" : " ") + e;
    return s;
}

/** True if a background event fired on a tick where a core issued. */
bool
backgroundFiresOnAnIssueTick(const std::vector<std::string>& log)
{
    auto tickOf = [](const std::string& e) { return e.substr(e.find('@')); };
    for (const std::string& bg : log) {
        if (bg[0] != 'B' && bg[0] != 'P')
            continue;
        for (const std::string& is : log)
            if (is[0] == 'I' && tickOf(is) == tickOf(bg))
                return true;
    }
    return false;
}

TEST(SmpDrainAhead, InterleavingMatchesTheRecordedGolden)
{
    // Recorded on the conductor that fired one event per pick: the
    // same issues, completions and background fires, in the same order.
    const std::string events_golden =
        "I0@0 P@5000 B@10000 I2@20000 B@20000 C0@20000 I0@20000 P@20000 "
        "B@25000 P@35000 I3@40000 B@40000 C2@40000 C0@40000 I0@40000 "
        "I1@50000 B@50000 B@50000 P@50000 C3@60000 C0@60000 I0@60000 "
        "P@65000 I2@70000 I3@70000 B@70000 C1@70000 C0@80000 I0@80000 "
        "P@80000 C2@90000 I2@90000 C3@90000 P@95000 B@100000 C0@100000 "
        "I0@100000 C2@110000 P@110000 I2@115000 I1@120000 C0@120000 "
        "B@125000 P@125000 I3@130000 C2@135000 C1@140000 P@140000 "
        "C3@150000 I2@155000 P@155000 I3@160000 P@170000 C2@175000 "
        "C3@180000 P@185000 I1@190000 I2@205000 C1@210000 I3@220000 "
        "C2@225000 C3@240000 I3@250000 I1@260000 C3@270000 C1@280000 "
        "I1@330000 C1@350000 I1@400000 C1@420000";
    const std::string inline_golden =
        "I0@0 P@5000 B@10000 I2@20000 B@20000 I0@20000 P@20000 B@25000 "
        "P@35000 I3@40000 B@40000 I0@40000 I1@50000 B@50000 B@50000 "
        "P@50000 I0@60000 P@65000 I2@70000 I3@70000 B@70000 I0@80000 "
        "P@80000 I2@90000 P@95000 B@100000 I0@100000 P@110000 I2@115000 "
        "I1@120000 B@125000 P@125000 I3@130000 P@140000 I2@155000 "
        "P@155000 I3@160000 P@170000 P@185000 I1@190000 I2@205000 "
        "I3@220000 I3@250000 I1@260000 I1@330000 I1@400000";
    std::vector<std::string> events = drainAheadLog(false);
    std::vector<std::string> inlined = drainAheadLog(true);
    EXPECT_EQ(joined(events), events_golden);
    EXPECT_EQ(joined(inlined), inline_golden);
    // Same-tick ties between issues and background events are covered.
    EXPECT_TRUE(backgroundFiresOnAnIssueTick(events));
    EXPECT_TRUE(backgroundFiresOnAnIssueTick(inlined));
}

// ---------------------------------------------------------------------
// Contention: shared-frame wait lists and the persist gate engage and
// deepen as cores are added.
// ---------------------------------------------------------------------

TEST(SmpContention, WaitListsDeepenWithCores)
{
    std::uint64_t prev_wait = 0;
    std::uint64_t prev_peak = 0;
    for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
        auto sys = smallHams(HamsMode::Extend);
        runSmp(*sys, "update", n, 200000);
        const HamsStats& s = sys->stats();
        EXPECT_GE(s.waitQueued, prev_wait) << n << " cores";
        EXPECT_GE(s.waiterPeakDepth, prev_peak) << n << " cores";
        prev_wait = s.waitQueued;
        prev_peak = s.waiterPeakDepth;
    }
    // With 8 cores on one tag array, contention must actually exist.
    EXPECT_GT(prev_wait, 0u);
    EXPECT_GT(prev_peak, 1u);
}

TEST(SmpContention, PersistGateSerialisesAcrossCores)
{
    auto solo = smallHams(HamsMode::Persist);
    runSmp(*solo, "rndRd", 1, 150000);
    // One in-order core has at most one miss in flight: the gate never
    // queues.
    EXPECT_EQ(solo->stats().persistGateWaits, 0u);
    EXPECT_EQ(solo->stats().gateQueuePeakDepth, 0u);

    auto quad = smallHams(HamsMode::Persist);
    runSmp(*quad, "rndRd", 4, 150000);
    EXPECT_GT(quad->stats().persistGateWaits, 0u);
    EXPECT_GT(quad->stats().gateQueuePeakDepth, 0u);
}

// ---------------------------------------------------------------------
// Hot-path discipline: the per-core hit path through the SMP conductor
// allocates nothing in steady state.
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// Background GC under SMP: device-internal collection events share the
// queue with four cores' accesses. Runs must stay rerun-deterministic,
// hits completing inline while GC events are pending must not change a
// single result (inline-on == inline-off bit-identity), and the hit
// path stays allocation-free with the engine enabled.
// ---------------------------------------------------------------------

SmpResult
runBgGcSmp(HamsSystem& sys, bool inline_on)
{
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndWr", 128ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpConfig cfg;
    cfg.core.inlineFastPath = inline_on;
    SmpModel smp(sys, cfg);
    smp.run(raw, 100000);
    return smp.run(raw, 200000);
}

TEST(SmpBackgroundGc, FourCoreRerunIdenticalAndGateSound)
{
    auto p1 = smallHamsBgGc();
    auto p2 = smallHamsBgGc();
    SmpResult r1 = runBgGcSmp(*p1, /*inline_on=*/true);
    SmpResult r2 = runBgGcSmp(*p2, /*inline_on=*/true);

    // Collection genuinely ran as background events and overlapped
    // with host traffic (it may still be mid-victim when the budget
    // runs out — an active machine then holds a pending step event,
    // which the inline rule orders completions against).
    const FtlStats& fs = p1->ullFlash().ftlStats();
    EXPECT_GT(fs.gcBatches, 0u) << "background GC never stepped";
    EXPECT_GT(fs.gcForegroundOverlap, 0u)
        << "no host op overlapped active collection";
    if (p1->ullFlash().pageFtl().gcActive()) {
        EXPECT_GT(p1->eventQueue().pending(), 0u)
            << "active machine with an empty queue";
    }

    // Rerun-deterministic, including the device-internal engine.
    for (std::uint32_t c = 0; c < 4; ++c)
        expectSameFields(r1.perCore[c], r2.perCore[c], "bg-GC rerun");
    expectSameFields(r1.combined, r2.combined, "bg-GC combined");
    expectSameFields(p1->stats(), p2->stats(), "bg-GC HamsStats");
    EXPECT_EQ(p1->eventQueue().now(), p2->eventQueue().now());
    EXPECT_EQ(p1->eventQueue().fired(), p2->eventQueue().fired());
    expectSameFields(fs, p2->ullFlash().ftlStats(), "bg-GC FtlStats");

    // Rule soundness, end to end: hits complete inline while GC events
    // are pending, and enabling the fast path must not change a single
    // simulated result. A delivery that fired ahead of a due GC step,
    // or a tryAccess() that accepted an access a pending event could
    // change, would diverge here.
    auto p3 = smallHamsBgGc();
    SmpResult r3 = runBgGcSmp(*p3, /*inline_on=*/false);
    for (std::uint32_t c = 0; c < 4; ++c)
        expectSameFields(r1.perCore[c], r3.perCore[c],
                         "bg-GC inline on vs off");
    expectSameFields(p1->stats(), p3->stats(),
                     "bg-GC HamsStats inline on vs off");
    EXPECT_EQ(p1->eventQueue().now(), p3->eventQueue().now());
}

TEST(SmpBackgroundGc, HitPathStaysAllocationFree)
{
    // Same discipline as SmpZeroAlloc.HitPathThroughConductor, with
    // the background collector enabled and engaged: equal allocation
    // deltas between a short and a long measured run mean the per-op
    // cost — host path and GC machinery included — is zero.
    auto sys = smallHamsBgGc();
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndWr", 128ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sys);
    // Warm pools, arenas, GC machines and every block's lazily
    // allocated page arrays: collection keeps opening fresh blocks,
    // so the first-touch tail is longer than the host-only paths'.
    smp.run(raw, 600000);

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-op allocations on the SMP path with background GC";
    EXPECT_GT(sys->ullFlash().ftlStats().gcBatches, 0u);
}

TEST(SmpZeroAlloc, HitPathThroughConductor)
{
    // Working set fits the NVDIMM cache: after warmup every platform
    // access is an extend-mode hit. Equal allocation deltas between a
    // short and a long measured run mean the per-access (and per-op)
    // cost is literally zero.
    auto sys = smallHams(HamsMode::Extend);
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    for (std::uint32_t c = 0; c < 4; ++c) {
        gens.push_back(makeCoreWorkload("rndRd", 16ull << 20, c, 4));
        raw.push_back(gens.back().get());
    }
    SmpModel smp(*sys);
    smp.run(raw, 150000); // warm caches, pools, arenas

    alloc_hook::AllocCounter allocs;
    smp.run(raw, 50000);
    std::uint64_t small = allocs.delta();
    allocs.rebase();
    smp.run(raw, 200000);
    std::uint64_t large = allocs.delta();
    EXPECT_EQ(small, large)
        << "per-access allocations in the SMP conductor hit path";
    EXPECT_GT(sys->stats().hits, 0u);
}

} // namespace
} // namespace hams
