/**
 * @file
 * One direct-indexed table for the simulator's dense key maps.
 *
 * Every per-access map in the simulator is keyed by a bounded integer:
 * an LPN, an LBA block, a file page, a frame number. DirectTable
 * indexes such a key space directly, with no hashing: a spine of leaf
 * pointers sized to the key space at construction, and leaves of
 * 4 KiB of entries allocated on the first write into their span and
 * filled with the table's empty value. A lookup is a compare, a
 * shift, an index and a load. Reads never allocate, and a key never
 * written (or beyond the key space) reads as empty, so a mostly
 * untouched key space costs only its spine.
 *
 * Users: the FTL's logical-to-physical map, the SSD's volatile-store
 * index, DramBuffer's LRU links, FlatFlash's touch counters and
 * SparseMemory's frame table.
 */

#ifndef HAMS_SIM_DIRECT_TABLE_HH_
#define HAMS_SIM_DIRECT_TABLE_HH_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/annotations.hh"
#include "sim/logging.hh"

namespace hams {

template <typename T>
class DirectTable
{
  public:
    /** Entries per leaf: 4 KiB of them. */
    static constexpr std::uint64_t leafEntries = 4096 / sizeof(T);
    static_assert(leafEntries > 0 && (leafEntries & (leafEntries - 1)) == 0,
                  "a leaf must hold a power-of-two number of entries");

    /** An empty table over no keys (assign a sized one before use). */
    DirectTable() = default;

    /** A table over keys [0, @p keys) that all read as @p empty. */
    DirectTable(std::uint64_t keys, const T& empty)
        : keyCount(keys), emptyValue(empty),
          spine((keys + leafEntries - 1) / leafEntries)
    {}

    /** The entry of @p key, or null when its leaf was never written or
     *  the key lies beyond the key space. Never allocates. */
    HAMS_HOT_PATH T*
    find(std::uint64_t key)
    {
        if (key >= keyCount)
            return nullptr;
        T* leaf = spine[key / leafEntries].get();
        return leaf ? leaf + key % leafEntries : nullptr;
    }

    HAMS_HOT_PATH const T*
    find(std::uint64_t key) const
    {
        return const_cast<DirectTable*>(this)->find(key);
    }

    /** The entry of @p key, whose leaf a write through at() has
     *  already allocated. Unchecked (builds with _GLIBCXX_ASSERTIONS
     *  trap a missing leaf): for keys known to be present. */
    HAMS_HOT_PATH T&
    operator[](std::uint64_t key)
    {
        return spine[key / leafEntries][key % leafEntries];
    }

    /** The value of @p key: the empty value wherever find() is null. */
    HAMS_HOT_PATH T
    get(std::uint64_t key) const
    {
        const T* e = find(key);
        return e ? *e : emptyValue;
    }

    /** The writable entry of @p key, allocating its leaf on the first
     *  write into its span. A key beyond the key space is fatal. */
    HAMS_HOT_PATH T&
    at(std::uint64_t key)
    {
        if (key >= keyCount)
            fatal("key ", key, " beyond the table's ", keyCount,
                  "-key space");
        std::unique_ptr<T[]>& leaf = spine[key / leafEntries];
        if (!leaf) {
            HAMS_LINT_SUPPRESS("first-touch leaf allocation; the leaf "
                               "is reused for the table's lifetime")
            leaf = std::make_unique<T[]>(leafEntries);
            std::fill_n(leaf.get(), leafEntries, emptyValue);
        }
        return leaf[key % leafEntries];
    }

    /** Reset every entry to the empty value; leaves stay allocated. */
    HAMS_COLD_PATH void
    clear()
    {
        for (std::unique_ptr<T[]>& leaf : spine) {
            if (leaf)
                std::fill_n(leaf.get(), leafEntries, emptyValue);
        }
    }

  private:
    std::uint64_t keyCount = 0;
    T emptyValue{};
    std::vector<std::unique_ptr<T[]>> spine;
};

} // namespace hams

#endif // HAMS_SIM_DIRECT_TABLE_HH_
