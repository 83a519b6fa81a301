#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace hams {

EventId
EventQueue::schedule(Tick delay, Callback cb)
{
    return scheduleAt(_now + delay, std::move(cb));
}

EventId
EventQueue::scheduleAt(Tick when, Callback cb)
{
    if (when < _now)
        panic("scheduleAt(", when, ") is in the past (now=", _now, ")");

    std::uint32_t slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots.size());
        HAMS_LINT_SUPPRESS("arena growth to the high-water mark; "
                           "steady state reuses slots off freeSlots")
        slots.emplace_back();
    }
    std::uint32_t gen = slots[slot].gen;
    slots[slot].cb = std::move(cb);

    Entry e{when, nextSeq++, slot, gen};
    if (topFiring) {
        // In-place re-arm: the firing event's retired entry gives up
        // the top to this one.
        topFiring = false;
        replaceTop(e);
    } else {
        HAMS_LINT_SUPPRESS("heap growth to the high-water mark of "
                           "concurrently pending events")
        heap.push_back(e);
        siftUp(heap.size() - 1, e);
    }
    ++livePending;
    return makeId(slot, gen);
}

void
EventQueue::deschedule(EventId id)
{
    std::uint32_t slot = static_cast<std::uint32_t>(id);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    // Zero-generation ids never exist; stale ids (fired, cancelled or
    // pre-reset) fail the generation compare.
    if (gen == 0 || slot >= slots.size() || slots[slot].gen != gen)
        return;
    retireSlot(slot);
    --livePending;
    // The heap entry stays behind; skipStale() drops it when it
    // surfaces, recognizing the generation mismatch.
}

void
EventQueue::siftUp(std::size_t i, Entry e)
{
    while (i > 0) {
        std::size_t parent = (i - 1) / arity;
        if (!earlier(e, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

void
EventQueue::replaceTop(Entry e)
{
    // Floyd's bottom-up variant: walk the hole from the root down to a
    // leaf along the earlier children, one compare per level, then let
    // e climb back. What lands here (a shrinking heap's last leaf, a
    // re-armed event's later tick) mostly belongs near the bottom, so
    // the climb is short.
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (;;) {
        std::size_t first = i * arity + 1;
        if (first >= n)
            break;
        std::size_t last = first + arity < n ? first + arity : n;
        std::size_t min = first;
        for (std::size_t c = first + 1; c < last; ++c)
            min = earlier(heap[c], heap[min]) ? c : min;
        heap[i] = heap[min];
        i = min;
    }
    siftUp(i, e);
}

void
EventQueue::popTop()
{
    topFiring = false;
    Entry last = heap.back();
    heap.pop_back();
    if (!heap.empty())
        replaceTop(last);
}

void
EventQueue::skipStale()
{
    // A retired firing entry is stale too: popping it here (a callback
    // peeking at the queue) simply ends the in-place window.
    while (!heap.empty() && stale(heap.front()))
        popTop();
}

void
EventQueue::fireTop()
{
    const Entry& e = heap.front();
    std::uint32_t slot = e.slot;
    _now = e.when;
    // Move the callback out and retire the slot before invoking, so
    // the callback sees its own id as dead and can schedule into the
    // recycled slot. The entry itself stays on the top until the
    // callback schedules over it (scheduleAt) or returns.
    Callback cb = std::move(slots[slot].cb);
    retireSlot(slot);
    --livePending;
    ++firedCount;
    topFiring = true;
    cb();
    // Still set: the callback scheduled nothing, and no nested step(),
    // peek or reset() took the top.
    if (topFiring)
        popTop();
}

bool
EventQueue::step()
{
    skipStale();
    if (heap.empty())
        return false;
    fireTop();
    return true;
}

bool
EventQueue::stepBefore(Tick limit)
{
    // The top is the earliest entry, live or cancelled: at or past the
    // limit, no live event lies before it, and the common no-fire
    // answer needs no stale check.
    if (heap.empty() || heap.front().when >= limit)
        return false;
    skipStale();
    if (heap.empty() || heap.front().when >= limit)
        return false;
    fireTop();
    return true;
}

Tick
EventQueue::nextTick()
{
    skipStale();
    return heap.empty() ? maxTick : heap.front().when;
}

void
EventQueue::advanceToSlow(Tick when)
{
    if (when < _now)
        panic("advanceTo(", when, ") is in the past (now=", _now, ")");
    if (nextTick() <= when)
        panic("advanceTo(", when, ") would skip a live event at ",
              heap.front().when);
    _now = when;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        skipStale();
        if (heap.empty())
            return _now;
        if (heap.front().when > limit) {
            _now = limit;
            return _now;
        }
        step();
    }
}

void
EventQueue::reset(bool rewind_time)
{
    heap.clear();
    topFiring = false;
    // Invalidate every id handed out so far, drop the parked
    // callbacks, then return all slots to the free list: pre-reset ids
    // can never cancel post-reset events.
    freeSlots.clear();
    freeSlots.reserve(slots.size());
    for (std::uint32_t i = static_cast<std::uint32_t>(slots.size());
         i-- > 0;) {
        ++slots[i].gen;
        slots[i].cb = nullptr;
        freeSlots.push_back(i);
    }
    livePending = 0;
    if (rewind_time)
        _now = 0;
}

} // namespace hams
