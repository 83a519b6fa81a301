/**
 * @file
 * SSD-internal DRAM buffer/cache.
 *
 * Modern SSDs front their flash with a large DRAM that absorbs writes and
 * caches hot pages. The paper removes this DRAM in advanced HAMS because
 * the NVDIMM already caches everything; keeping it wastes energy (it
 * draws 17% more power than a 32-chip flash complex) and duplicates data.
 *
 * Timing here is a simple bandwidth/latency occupancy model; contents are
 * tracked at 4 KiB frame granularity with LRU replacement and a dirty
 * bit so power-failure behaviour (volatile unless a supercap drains it
 * to flash) is faithful.
 *
 * Hot-path discipline: every page-sized host I/O walks this cache once
 * per 4 KiB block, so lookup/insert/evict are allocation-free — an
 * intrusive doubly-linked LRU over a node arena, indexed by an
 * open-addressing hash table (linear probing, backward-shift delete).
 *
 * Dirty state lives in a bitmap over frame keys with one summary bit
 * per nonzero bitmap word, not in the LRU nodes. isDirty() and
 * markClean() are bit tests, and a writeback round takes the smallest
 * dirty keys by count-trailing-zeros over the summary, then over the
 * words: O(batch + summary words), whatever the number of resident
 * frames. The bitmap is sized once, at the owner's key space: one
 * bit per key plus one summary bit per 64 keys (32 KiB + 64 summary
 * words for a 1 GiB device), so dirtying a frame never allocates.
 */

#ifndef HAMS_SSD_DRAM_BUFFER_HH_
#define HAMS_SSD_DRAM_BUFFER_HH_

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/** Internal buffer parameters. */
struct DramBufferConfig
{
    std::uint64_t capacity = 512ull << 20;
    std::uint32_t frameSize = 4096;
    double bandwidth = 6.4e9;           //!< internal DDR bytes/s
};

/** Result of a buffer insertion. */
struct BufferEviction
{
    bool happened = false;
    bool dirty = false;
    std::uint64_t frameKey = 0;
};

/**
 * LRU frame cache with timing. Keys are logical frame numbers (LBA-space
 * 4 KiB frames).
 */
class DramBuffer
{
  public:
    /**
     * @param key_frames Key space: every frame key is below it (file
     *        pages for a page cache, LBA blocks for an SSD buffer). It
     *        sizes the dirty bitmap; dirtying a key beyond it is fatal.
     */
    DramBuffer(const DramBufferConfig& cfg, std::uint64_t key_frames);

    /** Occupancy-modelled access: move @p bytes through the buffer. */
    HAMS_HOT_PATH Tick access(std::uint32_t bytes, Tick at);

    /** True if @p key is resident (updates LRU order). */
    HAMS_HOT_PATH bool lookup(std::uint64_t key);

    /** True if @p key is resident, WITHOUT touching LRU order (for
     *  residency probes). */
    HAMS_HOT_PATH bool
    contains(std::uint64_t key) const
    {
        return table[findSlot(key)] != 0;
    }

    /** True if @p key is resident and dirty (a bit test, no probe:
     *  only resident frames ever carry a dirty bit). */
    HAMS_HOT_PATH bool
    isDirty(std::uint64_t key) const
    {
        std::uint64_t w = key >> 6;
        return w < dirtyBits.size() && ((dirtyBits[w] >> (key & 63)) & 1);
    }

    /**
     * Mark the resident frame @p key dirty WITHOUT touching LRU order
     * (the write-hit path has just promoted it with lookup()).
     * @return true on a clean->dirty transition; false when the frame
     *         was already dirty or is not resident.
     */
    HAMS_HOT_PATH bool markDirty(std::uint64_t key);

    /**
     * Insert @p key (possibly already present; then just update state).
     * A full buffer displaces its exact LRU tail.
     * @return eviction descriptor if a frame had to be displaced.
     */
    HAMS_HOT_PATH BufferEviction insert(std::uint64_t key, bool dirty);

    /** Clear the dirty bit of a resident frame (after writeback). */
    HAMS_HOT_PATH void markClean(std::uint64_t key);

    /** Remove a frame (invalidate). */
    HAMS_HOT_PATH void erase(std::uint64_t key);

    /** Number of dirty frames, O(1). */
    std::size_t dirtyCount() const { return dirtyTotal; }

    /**
     * Call @p fn(key) for the @p limit smallest dirty keys (all of them
     * when fewer are dirty), in ascending key order; returns how many
     * were visited. Allocation-free; costs O(visited + summary words).
     *
     * Visitor contract: @p fn may clean or erase the key it is being
     * handed — a writeback round does exactly that through
     * markClean() — because the loop works on copies of the current
     * bitmap word and summary word. It must not dirty, clean or erase
     * any other key of this buffer: an unvisited key changed behind
     * the loop may be skipped or visited anyway.
     */
    template <typename Fn>
    HAMS_HOT_PATH std::size_t forEachDirtyAscending(std::size_t limit,
                                                    Fn&& fn) const;

    /** All dirty frame keys, ascending (cold callers and tests; hot
     *  paths use forEachDirtyAscending()). */
    HAMS_COLD_PATH std::vector<std::uint64_t> dirtyFrames() const;

    /** Drop all contents (power loss without supercap). */
    HAMS_COLD_PATH void dropAll();

    std::size_t residentFrames() const { return resident; }
    std::size_t maxFrames() const { return capacityFrames; }
    std::uint64_t bytesAccessed() const { return _bytesAccessed; }
    const DramBufferConfig& config() const { return cfg; }

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    /** One resident frame: key + intrusive LRU links. */
    struct Node
    {
        std::uint64_t key;
        std::uint32_t prev;
        std::uint32_t next;
    };

    std::uint32_t idealSlot(std::uint64_t key) const
    {
        // Fibonacci hashing spreads sequential frame keys.
        return static_cast<std::uint32_t>(
                   (key * 0x9E3779B97F4A7C15ULL) >> 32) &
               tableMask;
    }

    /** Table slot holding @p key, or the empty slot to insert into. */
    std::uint32_t findSlot(std::uint64_t key) const;

    /** Backward-shift deletion keeps probe chains intact. */
    void eraseSlot(std::uint32_t slot);

    std::uint32_t allocNode();
    void freeNode(std::uint32_t node);

    /** @name Intrusive LRU list (head = most recent). */
    ///@{
    void lruUnlink(std::uint32_t node);
    void lruPushFront(std::uint32_t node);
    ///@}

    /** @name Dirty bitmap maintenance. */
    ///@{
    /** Set @p key's (clear) dirty bit. */
    void setDirty(std::uint64_t key);
    /** Clear @p key's (set) dirty bit. */
    void clearDirty(std::uint64_t key);
    ///@}

    DramBufferConfig cfg;
    std::uint64_t keyFrames; //!< key space (exclusive key bound)
    std::size_t capacityFrames;
    double psPerByte; //!< precomputed occupancy multiplier
    Tick busyUntil = 0;
    std::uint64_t _bytesAccessed = 0;

    std::vector<Node> nodes;          //!< arena, grows to capacityFrames
    std::uint32_t freeHead = nil;     //!< free node list through next
    std::uint32_t lruHead = nil;
    std::uint32_t lruTail = nil;
    std::size_t resident = 0;

    /** Open-addressing table of node index + 1 (0 = empty). */
    std::vector<std::uint32_t> table;
    std::uint32_t tableMask = 0;

    /** Bit k%64 of word k/64 = frame key k is resident and dirty. */
    std::vector<std::uint64_t> dirtyBits;
    /** Bit w%64 of word w/64 = dirtyBits[w] is nonzero. dirtyBits
     *  holds whole summary words, so every summary bit has its word. */
    std::vector<std::uint64_t> dirtySummary;
    std::size_t dirtyTotal = 0;
};

template <typename Fn>
std::size_t
DramBuffer::forEachDirtyAscending(std::size_t limit, Fn&& fn) const
{
    // Stopping after the dirty population spares the summary tail.
    std::size_t want = limit < dirtyTotal ? limit : dirtyTotal;
    std::size_t visited = 0;
    for (std::size_t s = 0; visited < want && s < dirtySummary.size();
         ++s) {
        for (std::uint64_t words = dirtySummary[s];
             words != 0 && visited < want; words &= words - 1) {
            std::uint64_t w = s * 64 + __builtin_ctzll(words);
            // A summary bit promises a nonzero word, so the first
            // count-trailing-zeros needs no test.
            std::uint64_t bits = dirtyBits[w];
            do {
                fn(w * 64 + __builtin_ctzll(bits));
                ++visited;
                bits &= bits - 1;
            } while (bits != 0 && visited < want);
        }
    }
    return visited;
}

} // namespace hams

#endif // HAMS_SSD_DRAM_BUFFER_HH_
