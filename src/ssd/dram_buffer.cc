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
    // LRU links hold keys in 32 bits, below the two marker values.
    if (key_frames > nil)
        fatal("DRAM buffer key space of ", key_frames,
              " frames exceeds ", nil);
    links = DirectTable<Links>(key_frames, Links{absent, absent});

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

void
DramBuffer::lruUnlink(Links& l)
{
    if (l.prev != nil)
        linksOf(l.prev).next = l.next;
    else
        lruHead = l.next;
    if (l.next != nil)
        linksOf(l.next).prev = l.prev;
    else
        lruTail = l.prev;
    l = Links{absent, absent};
}

void
DramBuffer::lruPushFront(Links& l, std::uint32_t key)
{
    l.prev = nil;
    l.next = lruHead;
    if (lruHead != nil)
        linksOf(lruHead).prev = key;
    lruHead = key;
    if (lruTail == nil)
        lruTail = key;
}

bool
DramBuffer::lookup(std::uint64_t key)
{
    Links* l = links.find(key);
    if (!l || l->prev == absent)
        return false;
    if (key != lruHead) {
        lruUnlink(*l);
        lruPushFront(*l, static_cast<std::uint32_t>(key));
    }
    return true;
}

void
DramBuffer::setDirty(std::uint64_t key)
{
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
    if (key >= keyFrames)
        fatal("frame key ", key, " beyond the buffer's ", keyFrames,
              "-key space");
    BufferEviction ev;
    if (lookup(key)) {
        if (dirty && !isDirty(key))
            setDirty(key);
        return ev;
    }

    if (resident >= capacityFrames) {
        std::uint32_t victim = lruTail;
        ev.happened = true;
        ev.frameKey = victim;
        ev.dirty = isDirty(victim);
        if (ev.dirty)
            clearDirty(victim);
        lruUnlink(linksOf(victim));
        --resident;
    }

    lruPushFront(links.at(key), static_cast<std::uint32_t>(key));
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
    // Unlink only the resident keys: the cost is the resident frames,
    // not every link leaf the run has touched.
    for (std::uint32_t key = lruHead; key != nil;) {
        Links& l = linksOf(key);
        key = l.next;
        l = Links{absent, absent};
    }
    lruHead = nil;
    lruTail = nil;
    resident = 0;
    std::fill(dirtyBits.begin(), dirtyBits.end(), 0);
    std::fill(dirtySummary.begin(), dirtySummary.end(), 0);
    dirtyTotal = 0;
}

} // namespace hams
