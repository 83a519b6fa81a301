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
 * per 4 KiB block, so lookup/insert/evict probe no hash and, once a
 * key's leaf exists, allocate nothing. The LRU is an intrusive doubly
 * linked list whose links live in a DirectTable (sim/direct_table.hh)
 * indexed by the frame key itself: a key is resident exactly when its
 * links are set. The table costs 8 B per key of every 512-key leaf a
 * run has inserted into, kept for the buffer's lifetime.
 *
 * Dirty state lives in a bitmap over frame keys with one summary bit
 * per nonzero bitmap word, not in the LRU links. isDirty() and
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
#include "sim/direct_table.hh"
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
     *        sizes the LRU link table and the dirty bitmap; inserting
     *        a key beyond it is fatal.
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
        return links.get(key).prev != absent;
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
     * A full buffer displaces its exact LRU tail. A key beyond the key
     * space is fatal.
     * @return eviction descriptor if a frame had to be displaced.
     */
    HAMS_HOT_PATH BufferEviction insert(std::uint64_t key, bool dirty);

    /** Clear the dirty bit of a resident frame (after writeback). */
    HAMS_HOT_PATH void markClean(std::uint64_t key);

    /** Number of dirty frames, O(1). */
    std::size_t dirtyCount() const { return dirtyTotal; }

    /**
     * Call @p fn(key) for the @p limit smallest dirty keys (all of them
     * when fewer are dirty), in ascending key order; returns how many
     * were visited. Allocation-free; costs O(visited + summary words).
     *
     * Visitor contract: @p fn may clean the key it is being handed —
     * a writeback round does exactly that through markClean() —
     * because the loop works on copies of the current bitmap word and
     * summary word. It must not dirty or clean any other key of this
     * buffer: an unvisited key changed behind the loop may be skipped
     * or visited anyway.
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
    /** A resident frame's LRU neighbours, by key. */
    struct Links
    {
        std::uint32_t prev;
        std::uint32_t next;
    };

    static constexpr std::uint32_t absent = ~std::uint32_t(0); //!< not resident
    static constexpr std::uint32_t nil = absent - 1;           //!< list end

    /** @name Intrusive LRU list (head = most recent). */
    ///@{
    /** The links of a resident key: its leaf exists, so this never
     *  allocates. */
    Links& linksOf(std::uint32_t key) { return links[key]; }
    /** Take @p l out of the list, leaving its key not resident. */
    void lruUnlink(Links& l);
    /** Put @p key, whose links are @p l, at the head. */
    void lruPushFront(Links& l, std::uint32_t key);
    ///@}

    /** @name Dirty bitmap maintenance. */
    ///@{
    /** Set @p key's (clear) dirty bit; @p key is in the key space. */
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

    /** Frame key -> LRU links; {absent, absent} for a key not
     *  resident. */
    DirectTable<Links> links;
    std::uint32_t lruHead = nil;
    std::uint32_t lruTail = nil;
    std::size_t resident = 0;

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
