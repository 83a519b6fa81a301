/**
 * @file
 * Deterministic cross-domain conductor over per-shard event queues.
 *
 * A sharded simulation gives every shard its own EventQueue — its
 * *domain* — so shards share no mutable simulation state and a future
 * host-parallel build can pump domains on separate threads. The
 * conductor is what joins them back into ONE simulated timeline: it
 * always fires the globally earliest pending event, picking among
 * domains by (next event tick, domain id) with the domain id — the
 * attach order — as a fixed tie-break. Within a domain, events keep
 * their FIFO-at-same-tick order. The interleaving is therefore a pure
 * function of the scheduled events: bit-identical across reruns and
 * host-thread counts.
 *
 * Per-domain time: each EventQueue keeps its own now(), advanced only
 * when its events fire (or by advanceTo). A domain's callbacks always
 * run with their own queue's now() correct, so relative schedule()
 * calls inside shard code are untouched by the split. The conductor's
 * now() is global simulated time — the maximum across domains.
 *
 * With a single attached domain every call delegates straight to that
 * queue, so a one-domain conductor is behaviourally identical to
 * driving the EventQueue directly — which is what keeps M=1 sharded
 * runs bit-identical to the single-device path (tests/test_scaleout.cc
 * pins this).
 */

#ifndef HAMS_SIM_DOMAIN_CONDUCTOR_HH_
#define HAMS_SIM_DOMAIN_CONDUCTOR_HH_

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace hams {

/**
 * Interleaves M event-queue domains by global tick with a fixed
 * tie-break. Exposes the driver-facing subset of the EventQueue API
 * (cpu/core_model.cc and cpu/smp_model.cc run entirely against this),
 * so a driver cannot tell one domain from many.
 *
 * Not owning: attached queues must outlive the conductor. Attach order
 * defines the domain ids and the same-tick priority (domain 0 first).
 */
class DomainConductor
{
  public:
    DomainConductor() = default;
    DomainConductor(const DomainConductor&) = delete;
    DomainConductor& operator=(const DomainConductor&) = delete;

    /** Add a domain; assigns it the next id (= attach order). */
    HAMS_COLD_PATH void
    attach(EventQueue& q)
    {
        q.setDomainId(static_cast<std::uint32_t>(qs.size()));
        qs.push_back(&q);
    }

    std::size_t domains() const { return qs.size(); }

    EventQueue& domain(std::size_t i) { return *qs[i]; }

    /** Global simulated time: the furthest domain's now(). */
    HAMS_HOT_PATH Tick
    now() const
    {
        Tick t = 0;
        for (const EventQueue* q : qs)
            t = t > q->now() ? t : q->now();
        return t;
    }

    /** True when no live event remains in any domain. */
    HAMS_HOT_PATH bool
    empty() const
    {
        for (const EventQueue* q : qs)
            if (!q->empty())
                return false;
        return true;
    }

    /** Live events pending across all domains. */
    HAMS_HOT_PATH std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const EventQueue* q : qs)
            n += q->pending();
        return n;
    }

    /** Tick of the globally earliest live event (maxTick when none). */
    HAMS_HOT_PATH Tick
    nextTick()
    {
        Tick t = maxTick;
        for (EventQueue* q : qs) {
            Tick qt = q->nextTick();
            if (qt < t)
                t = qt;
        }
        return t;
    }

    /**
     * Fire the globally earliest live event — ties at the same tick go
     * to the lowest domain id. @return false if no domain had one.
     */
    HAMS_HOT_PATH bool
    step()
    {
        EventQueue* q = earliestBefore(maxTick);
        return q != nullptr && q->step();
    }

    /**
     * Fire the globally earliest live event if it lies strictly before
     * @p limit, picking the domain as step() does. @return false
     * (firing nothing) otherwise.
     */
    HAMS_HOT_PATH bool
    stepBefore(Tick limit)
    {
        if (qs.size() == 1)
            return qs.front()->stepBefore(limit);
        EventQueue* q = earliestBefore(limit);
        return q != nullptr && q->step();
    }

    /** Fire events until every domain drains. @return final now(). */
    HAMS_HOT_PATH Tick
    run()
    {
        while (step()) {
        }
        return now();
    }

    /**
     * Fire every event at or before @p limit (in global order), then
     * advance all domains to @p limit. @return the final global time.
     */
    HAMS_HOT_PATH Tick
    runUntil(Tick limit)
    {
        while (nextTick() <= limit)
            step();
        advanceTo(limit);
        return now();
    }

    /**
     * Advance every domain to @p when without firing anything — the
     * cross-domain twin of EventQueue::advanceTo, with the same
     * precondition per domain (no live event at or before @p when).
     * Domains already past @p when are left alone, so a multi-domain
     * resync after inline completions is always legal.
     */
    HAMS_HOT_PATH void
    advanceTo(Tick when)
    {
        for (EventQueue* q : qs)
            if (when > q->now())
                q->advanceTo(when);
    }

    /** Sum of events fired across domains (stats/tests). */
    std::uint64_t
    fired() const
    {
        std::uint64_t n = 0;
        for (const EventQueue* q : qs)
            n += q->fired();
        return n;
    }

  private:
    /** The domain whose next live event is the earliest one strictly
     *  before @p limit (ties to the lowest id), or null. */
    HAMS_HOT_PATH EventQueue*
    earliestBefore(Tick limit)
    {
        EventQueue* best = nullptr;
        Tick bestTick = limit;
        for (EventQueue* q : qs) {
            Tick qt = q->nextTick();
            if (qt < bestTick) { // strict <: first domain wins ties
                bestTick = qt;
                best = q;
            }
        }
        return best;
    }

    std::vector<EventQueue*> qs;
};

} // namespace hams

#endif // HAMS_SIM_DOMAIN_CONDUCTOR_HH_
