/**
 * @file
 * Unit tests for the DES kernel: ordering, determinism, cancellation,
 * time limits and reset semantics, and a differential test against a
 * linear-scan reference queue ordered by (when, seq).
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace hams {
namespace {

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedSchedulingWorks)
{
    EventQueue eq;
    std::vector<Tick> fire_times;
    eq.schedule(5, [&] {
        fire_times.push_back(eq.now());
        eq.schedule(5, [&] { fire_times.push_back(eq.now()); });
    });
    eq.run();
    ASSERT_EQ(fire_times.size(), 2u);
    EXPECT_EQ(fire_times[0], 5u);
    EXPECT_EQ(fire_times[1], 10u);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(10, [&] { fired = true; });
    eq.deschedule(id);
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, DescheduleIsIdempotent)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.deschedule(id);
    eq.deschedule(id);
    eq.deschedule(999999); // unknown ids are ignored
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(30, [&] { ++count; });
    Tick t = eq.runUntil(20);
    EXPECT_EQ(t, 20u);
    EXPECT_EQ(count, 2); // the event exactly at the limit fires
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeToLimitWhenIdle)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runUntil(40);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1, [&] { ++count; });
    eq.schedule(2, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ResetDropsPendingEvents)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(10, [&] { fired = true; });
    eq.reset();
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, ResetCanRewindTime)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
    eq.reset(/*rewind_time=*/true);
    EXPECT_EQ(eq.now(), 0u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.scheduleAt(5, [] {}), "in the past");
}

TEST(EventQueue, FiredCounterCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.fired(), 5u);
}

TEST(EventQueue, ManyEventsKeepStrictOrder)
{
    EventQueue eq;
    Rng rng(7);
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 2000; ++i) {
        eq.schedule(rng.below(10000), [&] {
            monotonic = monotonic && eq.now() >= last;
            last = eq.now();
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
}

TEST(EventQueue, StepBeforeLeavesAnEventAtTheLimit)
{
    EventQueue eq;
    std::vector<Tick> fired;
    for (Tick t : {10u, 20u, 20u, 30u})
        eq.scheduleAt(t, [&] { fired.push_back(eq.now()); });
    while (eq.stepBefore(20)) {
    }
    EXPECT_EQ(fired, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_FALSE(eq.stepBefore(20)); // exactly at the limit: stays
    EXPECT_TRUE(eq.stepBefore(21));
    EXPECT_EQ(eq.now(), 20u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 20, 30}));
}

TEST(EventQueue, SelfReschedulingCallbackKeepsFifoTies)
{
    // A callback that re-arms itself at its own tick goes behind every
    // event already scheduled there, exactly as a fresh schedule would.
    EventQueue eq;
    std::vector<int> order;
    int rearms = 2;
    std::function<void()> self = [&] {
        order.push_back(0);
        if (rearms-- > 0)
            eq.scheduleAt(eq.now(), [&] { self(); });
    };
    eq.scheduleAt(5, [&] { self(); });
    eq.scheduleAt(5, [&] { order.push_back(1); });
    eq.scheduleAt(5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 0}));
    EXPECT_EQ(eq.fired(), 5u);
}

// ---------------------------------------------------------------------
// Differential: random traces through EventQueue and a reference.
// ---------------------------------------------------------------------

/**
 * The reference: a flat list scanned for the least (when, seq) on every
 * step, with the EventQueue's API. Nothing clever, so nothing to get
 * wrong.
 */
class ReferenceQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return _now; }
    std::uint64_t fired() const { return firedCount; }
    std::size_t pending() const { return evs.size(); }

    EventId
    scheduleAt(Tick when, Callback cb)
    {
        EventId id = ++lastId;
        evs.push_back({when, nextSeq++, id, std::move(cb)});
        return id;
    }

    void
    deschedule(EventId id)
    {
        for (std::size_t i = 0; i < evs.size(); ++i) {
            if (evs[i].id == id) {
                evs.erase(evs.begin() + i);
                return;
            }
        }
    }

    bool step() { return fireBefore(maxTick, true); }
    bool stepBefore(Tick limit) { return fireBefore(limit, false); }

    void
    reset(bool rewind_time = false)
    {
        evs.clear();
        if (rewind_time)
            _now = 0;
    }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        EventId id;
        Callback cb;
    };

    bool
    fireBefore(Tick limit, bool inclusive)
    {
        if (evs.empty())
            return false;
        std::size_t min = 0;
        for (std::size_t i = 1; i < evs.size(); ++i) {
            const Ev& a = evs[i];
            const Ev& b = evs[min];
            if (a.when < b.when || (a.when == b.when && a.seq < b.seq))
                min = i;
        }
        if (inclusive ? evs[min].when > limit : evs[min].when >= limit)
            return false;
        Ev e = std::move(evs[min]);
        evs.erase(evs.begin() + min);
        _now = e.when;
        ++firedCount;
        e.cb();
        return true;
    }

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    EventId lastId = 0;
    std::uint64_t firedCount = 0;
    std::vector<Ev> evs;
};

/**
 * One random trace, driven identically through queue type @p Q: every
 * decision is a draw from one Rng, so two queues that fire in the same
 * order see the same draws. Returns the log of fires, step results,
 * now() and fired().
 */
template <typename Q>
std::vector<std::string>
randomTrace(std::uint64_t seed)
{
    struct Ctx
    {
        Q q;
        Rng rng;
        std::vector<EventId> ids; //!< by schedule order, live or not
        std::vector<std::string> log;
        int depth = 0;
        int nextLabel = 0;

        explicit Ctx(std::uint64_t seed) : rng(seed) {}

        void
        note(const std::string& what)
        {
            log.push_back(what + " now=" + std::to_string(q.now()) +
                          " fired=" + std::to_string(q.fired()) +
                          " pending=" + std::to_string(q.pending()));
        }

        void
        add(Tick when)
        {
            int label = nextLabel++;
            ids.push_back(q.scheduleAt(when, [this, label] { fire(label); }));
        }

        void
        fire(int label)
        {
            note("fire " + std::to_string(label));
            std::uint64_t r = rng.below(100);
            if (r < 35) {
                // Self-rescheduling: the same tick or a later one.
                add(q.now() + rng.below(3) * rng.below(40));
                if (r < 5)
                    add(q.now() + rng.below(20)); // and a second event
            } else if (r < 50) {
                if (!ids.empty())
                    q.deschedule(ids[rng.below(ids.size())]);
                add(q.now() + rng.below(60));
            } else if (r < 58 && depth < 3) {
                ++depth;
                note(std::string("nested step ") +
                     (q.step() ? "fired" : "idle"));
                if (rng.below(2))
                    add(q.now() + rng.below(30));
                --depth;
            } else if (r < 60) {
                bool rewind = rng.below(4) == 0;
                q.reset(rewind);
                note(rewind ? "reset rewind" : "reset");
                add(q.now() + rng.below(30));
            } else if (r < 63) {
                add(q.now() + rng.below(50));
                if (!ids.empty())
                    q.deschedule(ids[rng.below(ids.size())]);
            }
        }
    };

    Ctx c(seed);
    for (int i = 0; i < 8; ++i)
        c.add(c.rng.below(100));
    for (int op = 0; op < 400; ++op) {
        std::uint64_t r = c.rng.below(10);
        if (r < 2) {
            c.add(c.q.now() + c.rng.below(100));
        } else if (r < 3) {
            if (!c.ids.empty())
                c.q.deschedule(c.ids[c.rng.below(c.ids.size())]);
            c.note("deschedule");
        } else if (r < 5) {
            Tick limit = c.q.now() + c.rng.below(40);
            c.note(std::string("stepBefore ") + std::to_string(limit) + " " +
                   (c.q.stepBefore(limit) ? "fired" : "idle"));
        } else {
            c.note(std::string("step ") + (c.q.step() ? "fired" : "idle"));
        }
        if (c.q.pending() == 0)
            c.add(c.q.now() + c.rng.below(100));
    }
    while (c.q.step()) {
    }
    c.note("drained");
    return c.log;
}

TEST(EventQueueDifferential, RandomTracesMatchTheReference)
{
    std::uint64_t fires = 0, nested = 0, resets = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        std::vector<std::string> got = randomTrace<EventQueue>(seed);
        std::vector<std::string> want = randomTrace<ReferenceQueue>(seed);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "seed " << seed << ", record " << i;
            fires += got[i].compare(0, 5, "fire ") == 0;
            nested += got[i].compare(0, 7, "nested ") == 0;
            resets += got[i].compare(0, 6, "reset ") == 0;
        }
    }
    // The traces really exercise the queue, re-entry included.
    EXPECT_GT(fires, 50000u);
    EXPECT_GT(nested, 1000u);
    EXPECT_GT(resets, 100u);
}

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(17), 17u);
    }
}

} // namespace
} // namespace hams
