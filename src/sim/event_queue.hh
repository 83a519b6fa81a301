/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue owns simulated time. Components schedule callbacks
 * at absolute or relative ticks; events scheduled for the same tick fire
 * in FIFO order of scheduling, which keeps the simulation deterministic.
 *
 * The kernel is allocation-free in steady state: callbacks are stored
 * inline (InlineFunction, 48-byte capture budget) and cancellation uses
 * generation-tagged slots in a free-list arena instead of a hash set, so
 * schedule/fire/deschedule never touch the heap once the arena and the
 * binary heap have grown to the workload's high-water mark.
 *
 * A firing event keeps its heap entry on the top until its callback
 * returns. The first event the callback schedules replaces that entry
 * with one sift; if it schedules none, the entry is popped
 * afterwards. A self-rescheduling callback (a GC step re-arming while
 * a foreground op holds its die) therefore costs one sift instead of a
 * pop plus a push. (when, seq) is a total order, so the heap's shape
 * never decides which event fires next.
 */

#ifndef HAMS_SIM_EVENT_QUEUE_HH_
#define HAMS_SIM_EVENT_QUEUE_HH_

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace hams {

/**
 * Handle used to cancel a scheduled event: generation in the high 32
 * bits, arena slot in the low 32. Value 0 is never a live id.
 */
using EventId = std::uint64_t;

/**
 * Deterministic discrete-event queue.
 *
 * Ties at the same tick are broken by scheduling order (a monotonically
 * increasing sequence number), so two runs with identical inputs produce
 * identical event interleavings.
 *
 * Each pending event owns a slot in a generation-tagged arena. The
 * heap entry remembers the (slot, generation) it was scheduled under;
 * deschedule() and firing bump the slot's generation, so stale heap
 * entries and stale EventIds are recognized by a single array compare —
 * no hash probe, and ids can never alias across slot reuse or reset().
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback @p delay ticks from now.
     * @return an id usable with deschedule().
     */
    HAMS_HOT_PATH EventId schedule(Tick delay, Callback cb);

    /** Schedule a callback at an absolute tick (must be >= now). */
    HAMS_HOT_PATH EventId scheduleAt(Tick when, Callback cb);

    /** Cancel a previously scheduled event. Safe on already-fired ids. */
    HAMS_HOT_PATH void deschedule(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return livePending; }

    /** True if no live events remain. */
    bool empty() const { return livePending == 0; }

    /** Run until the queue drains. @return the final tick. */
    HAMS_HOT_PATH Tick run();

    /**
     * Run until the queue drains or simulated time passes @p limit.
     * Events scheduled exactly at @p limit still fire.
     * @return the final tick (== limit if stopped by the limit).
     */
    HAMS_HOT_PATH Tick runUntil(Tick limit);

    /** Fire at most one live event. @return false if none remained. */
    HAMS_HOT_PATH bool step();

    /**
     * Fire the earliest live event if it lies strictly before
     * @p limit. @return false (firing nothing) otherwise — an event
     * exactly at @p limit stays pending.
     */
    HAMS_HOT_PATH bool stepBefore(Tick limit);

    /** Tick of the earliest live event, or maxTick when none remain. */
    HAMS_HOT_PATH Tick nextTick();

    /**
     * Advance simulated time without firing anything — the inline
     * fast-path twin of scheduling a completion event at @p when and
     * immediately firing it. Only legal when nothing would have fired
     * on the way: @p when must be >= now() and no live event may be
     * pending at or before @p when (callers typically check empty()).
     * The no-live-event case is inline: it runs once per fast-path
     * access.
     */
    HAMS_HOT_PATH void
    advanceTo(Tick when)
    {
        if (livePending == 0 && when >= _now) {
            _now = when;
            return;
        }
        advanceToSlow(when);
    }

    /**
     * Drop every pending event and optionally rewind time to zero.
     * Used by power-failure injection: the machine's in-flight work
     * simply vanishes. All bookkeeping is cleared and every
     * outstanding EventId is invalidated, so a pre-reset id can never
     * cancel an event scheduled after the reset.
     */
    HAMS_COLD_PATH void reset(bool rewind_time = false);

    /** Total events fired since construction (for stats/tests). */
    std::uint64_t fired() const { return firedCount; }

    /** Arena high-water mark (max concurrently pending events). */
    std::size_t slotCount() const { return slots.size(); }

    /**
     * @name Event-queue domain identity.
     *
     * A queue can be one *domain* of a multi-queue simulation: a
     * DomainConductor (sim/domain_conductor.hh) interleaves several
     * queues by global tick and breaks same-tick ties by this id, so
     * cross-domain event order is deterministic. Assigned by
     * DomainConductor::attach (attach order); standalone queues keep
     * the default 0. Purely an identity — it changes nothing about
     * how this queue schedules or fires.
     */
    ///@{
    std::uint32_t domainId() const { return _domainId; }
    void setDomainId(std::uint32_t id) { _domainId = id; }
    ///@}

  private:
    /**
     * Heap entries are 24-byte PODs: the callback stays in its arena
     * slot so sift operations move trivially copyable records instead
     * of relocating type-erased callables. A run schedules far fewer
     * than 2^56 events, so the top 8 bits of seq stay free for a tag
     * (which earlier() would then have to mask out).
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };
    static_assert(sizeof(Entry) == 24);

    /** Children per heap node; 4 was no faster on te_update_gc4
     *  (ROADMAP item 2). */
    static constexpr std::size_t arity = 2;

    struct Slot
    {
        std::uint32_t gen = 1;
        Callback cb;
    };

    /** Min-heap ordering on (when, seq). */
    static bool
    earlier(const Entry& a, const Entry& b)
    {
        // One 128-bit compare, free of branches: the sift loops' child
        // choice is a coin flip no predictor learns.
        using Key = unsigned __int128;
        return ((Key(a.when) << 64) | a.seq) < ((Key(b.when) << 64) | b.seq);
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (EventId(gen) << 32) | slot;
    }

    bool
    stale(const Entry& e) const
    {
        return slots[e.slot].gen != e.gen;
    }

    /** Bump the generation and recycle the slot of a retired event. */
    void
    retireSlot(std::uint32_t slot)
    {
        ++slots[slot].gen;
        slots[slot].cb = nullptr;
        HAMS_LINT_SUPPRESS("free-list growth is bounded by the arena "
                           "high-water mark; steady state recycles")
        freeSlots.push_back(slot);
    }

    /** Pop cancelled entries off the heap top. */
    void skipStale();

    /** Fire the live event on the heap top (the in-place re-arm). */
    void fireTop();

    /** Remove the heap top. */
    void popTop();

    /** Place @p e at hole @p i, moving it towards the root. */
    void siftUp(std::size_t i, Entry e);

    /** Put @p e in place of the heap top. */
    void replaceTop(Entry e);

    /** advanceTo with a non-empty heap: validate against live events. */
    void advanceToSlow(Tick when);

    Tick _now = 0;
    std::uint32_t _domainId = 0;
    std::uint64_t nextSeq = 0;
    std::size_t livePending = 0;
    std::uint64_t firedCount = 0;
    /** heap.front() is the retired entry of the event now firing: the
     *  next scheduleAt() may overwrite it in place. */
    bool topFiring = false;
    std::vector<Entry> heap;
    std::vector<Slot> slots; //!< generation + callback arena
    std::vector<std::uint32_t> freeSlots;
};

} // namespace hams

#endif // HAMS_SIM_EVENT_QUEUE_HH_
