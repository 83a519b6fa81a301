#include "ssd/dram_buffer.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

namespace {

constexpr Tick accessLatency = nanoseconds(250); //!< array + controller latency

} // namespace

DramBuffer::DramBuffer(const DramBufferConfig& cfg,
                       std::uint64_t key_frames)
    : cfg(cfg), keyFrames(key_frames),
      capacityFrames(cfg.capacity / cfg.frameSize),
      psPerByte(1e12 / cfg.bandwidth)
{
    if (capacityFrames == 0)
        fatal("DRAM buffer smaller than one frame");

    // Table at <= 50% load so linear probes stay short.
    std::uint64_t want = std::uint64_t(capacityFrames) * 2;
    std::uint64_t size = 16;
    while (size < want)
        size <<= 1;
    table.assign(size, 0);
    tableMask = static_cast<std::uint32_t>(size - 1);

    std::uint64_t summary_words = (key_frames + 4095) / 4096;
    dirtyBits.assign(summary_words * 64, 0);
    dirtySummary.assign(summary_words, 0);
}

Tick
DramBuffer::access(std::uint32_t bytes, Tick at)
{
    Tick start = std::max(at, busyUntil);
    auto occupancy = static_cast<Tick>(
        static_cast<double>(bytes) * psPerByte);
    Tick done = start + accessLatency + occupancy;
    busyUntil = start + occupancy;
    _bytesAccessed += bytes;
    return done;
}

std::uint32_t
DramBuffer::findSlot(std::uint64_t key) const
{
    std::uint32_t slot = idealSlot(key);
    while (table[slot] != 0) {
        if (nodes[table[slot] - 1].key == key)
            return slot;
        slot = (slot + 1) & tableMask;
    }
    return slot;
}

void
DramBuffer::eraseSlot(std::uint32_t slot)
{
    // Backward-shift deletion (Knuth 6.4 R): pull displaced entries
    // into the hole so probe chains never break, without tombstones.
    for (;;) {
        table[slot] = 0;
        std::uint32_t hole = slot;
        std::uint32_t j = slot;
        for (;;) {
            j = (j + 1) & tableMask;
            if (table[j] == 0)
                return;
            std::uint32_t ideal = idealSlot(nodes[table[j] - 1].key);
            // If ideal lies cyclically in (hole, j], the entry is
            // already as close to home as it can get.
            bool stays = hole <= j ? (hole < ideal && ideal <= j)
                                   : (hole < ideal || ideal <= j);
            if (stays)
                continue;
            table[hole] = table[j];
            slot = j;
            break;
        }
    }
}

std::uint32_t
DramBuffer::allocNode()
{
    if (freeHead != nil) {
        std::uint32_t n = freeHead;
        freeHead = nodes[n].next;
        return n;
    }
    HAMS_LINT_SUPPRESS("node-arena growth to the resident high-water "
                       "mark; steady state recycles off the free list")
    nodes.emplace_back();
    return static_cast<std::uint32_t>(nodes.size() - 1);
}

void
DramBuffer::freeNode(std::uint32_t node)
{
    nodes[node].next = freeHead;
    freeHead = node;
}

void
DramBuffer::lruUnlink(std::uint32_t node)
{
    Node& n = nodes[node];
    if (n.prev != nil)
        nodes[n.prev].next = n.next;
    else
        lruHead = n.next;
    if (n.next != nil)
        nodes[n.next].prev = n.prev;
    else
        lruTail = n.prev;
}

void
DramBuffer::lruPushFront(std::uint32_t node)
{
    Node& n = nodes[node];
    n.prev = nil;
    n.next = lruHead;
    if (lruHead != nil)
        nodes[lruHead].prev = node;
    lruHead = node;
    if (lruTail == nil)
        lruTail = node;
}

bool
DramBuffer::lookup(std::uint64_t key)
{
    std::uint32_t slot = findSlot(key);
    if (table[slot] == 0)
        return false;
    std::uint32_t node = table[slot] - 1;
    lruUnlink(node);
    lruPushFront(node);
    return true;
}

void
DramBuffer::setDirty(std::uint64_t key)
{
    if (key >= keyFrames)
        fatal("dirty frame key ", key, " beyond the buffer's ",
              keyFrames, "-key space");
    std::uint64_t w = key >> 6;
    dirtyBits[w] |= std::uint64_t(1) << (key & 63);
    dirtySummary[w >> 6] |= std::uint64_t(1) << (w & 63);
    ++dirtyTotal;
}

void
DramBuffer::clearDirty(std::uint64_t key)
{
    std::uint64_t w = key >> 6;
    dirtyBits[w] &= ~(std::uint64_t(1) << (key & 63));
    if (dirtyBits[w] == 0)
        dirtySummary[w >> 6] &= ~(std::uint64_t(1) << (w & 63));
    --dirtyTotal;
}

bool
DramBuffer::markDirty(std::uint64_t key)
{
    if (isDirty(key) || !contains(key))
        return false;
    setDirty(key);
    return true;
}

BufferEviction
DramBuffer::insert(std::uint64_t key, bool dirty)
{
    BufferEviction ev;
    std::uint32_t slot = findSlot(key);
    if (table[slot] != 0) {
        std::uint32_t node = table[slot] - 1;
        lruUnlink(node);
        lruPushFront(node);
        if (dirty && !isDirty(key))
            setDirty(key);
        return ev;
    }

    if (resident >= capacityFrames) {
        std::uint32_t victim = lruTail;
        ev.happened = true;
        ev.frameKey = nodes[victim].key;
        ev.dirty = isDirty(ev.frameKey);
        if (ev.dirty)
            clearDirty(ev.frameKey);
        lruUnlink(victim);
        eraseSlot(findSlot(nodes[victim].key));
        freeNode(victim);
        --resident;
        // The backward shift may have moved entries; re-locate the
        // insertion slot for the new key.
        slot = findSlot(key);
    }

    std::uint32_t node = allocNode();
    nodes[node].key = key;
    lruPushFront(node);
    table[slot] = node + 1;
    ++resident;
    if (dirty)
        setDirty(key);
    return ev;
}

void
DramBuffer::markClean(std::uint64_t key)
{
    if (isDirty(key))
        clearDirty(key);
}

void
DramBuffer::erase(std::uint64_t key)
{
    std::uint32_t slot = findSlot(key);
    if (table[slot] == 0)
        return;
    std::uint32_t node = table[slot] - 1;
    lruUnlink(node);
    eraseSlot(slot);
    freeNode(node);
    --resident;
    markClean(key);
}

std::vector<std::uint64_t>
DramBuffer::dirtyFrames() const
{
    std::vector<std::uint64_t> out;
    out.reserve(dirtyTotal);
    forEachDirtyAscending(dirtyTotal,
                          [&out](std::uint64_t key) { out.push_back(key); });
    return out;
}

void
DramBuffer::dropAll()
{
    std::fill(table.begin(), table.end(), 0);
    nodes.clear();
    freeHead = nil;
    lruHead = nil;
    lruTail = nil;
    resident = 0;
    std::fill(dirtyBits.begin(), dirtyBits.end(), 0);
    std::fill(dirtySummary.begin(), dirtySummary.end(), 0);
    dirtyTotal = 0;
}

} // namespace hams
