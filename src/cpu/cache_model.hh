/**
 * @file
 * Tag-only set-associative cache model for the core's L1D/L2 (paper
 * Table II: 64 KB L1D, 2 MB L2).
 *
 * Only hit/miss and dirty-victim behaviour matter to the platform
 * studies, so the model tracks tags and LRU state but no data.
 *
 * The probe is the single hottest operation of an end-to-end run (once
 * per memory instruction), and almost every probe of a large-footprint
 * workload misses. The tag array alone answers the hit check (an 8-way
 * set's tags fit one host cache line). Replacement state is one small
 * record per set:
 *  - a recency word: the set's way indices, one 4-bit nibble per way,
 *    MRU in the lowest nibble;
 *  - a dirty mask, one bit per way.
 * A hit finds its way's nibble with a SWAR zero-nibble test and moves
 * it to the front; a miss takes the last (LRU) nibble as the victim
 * and rotates it to the front. Neither path compares stamps, and there
 * is no clock to wrap.
 *
 * This is exact LRU with the "first invalid way" fill rule. A flushed
 * set lists way 0 at the LRU end (nibble k holds way ways-1-k). Lines
 * are only ever filled, never invalidated one at a time, so the invalid
 * ways stay at the LRU end in ascending index order until filled, and
 * every valid way ranks by its last use.
 *
 * Geometry must be power-of-two (line size and set count), so line,
 * set and tag decode with shifts; at most 16 ways fit the recency word.
 * The constructor rejects anything else with a FatalError.
 */

#ifndef HAMS_CPU_CACHE_MODEL_HH_
#define HAMS_CPU_CACHE_MODEL_HH_

#include <cstdint>
#include <vector>

#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/** Cache geometry and latency. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 4;
    Tick hitLatency = nanoseconds(1);
};

/** Result of a cache access. */
struct CacheResult
{
    bool hit = false;
    bool evictedDirty = false;
    Addr evictedLine = 0; //!< line-aligned address of the dirty victim
};

/**
 * A write-back, write-allocate, LRU, set-associative cache over tags.
 */
class CacheModel
{
  public:
    explicit CacheModel(const CacheConfig& cfg);

    /**
     * Access the line containing @p addr.
     * On a miss the line is allocated (possibly evicting a dirty
     * victim, reported in the result).
     */
    HAMS_HOT_PATH CacheResult access(Addr addr, bool is_write);

    /** Invalidate everything. */
    HAMS_COLD_PATH void flush();

    const CacheConfig& config() const { return cfg; }
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

  private:
    /** Ways one set's recency word can order. */
    static constexpr std::uint32_t maxWays = 16;

    /** Invalid-way sentinel: real tags are addr shifted right, so they
     *  can never reach the all-ones pattern. */
    static constexpr std::uint64_t emptyTag = ~std::uint64_t(0);

    /** Replacement state of one set. */
    struct SetState
    {
        std::uint64_t order; //!< way indices by recency, MRU nibble first
        std::uint32_t dirty; //!< bit w: way w holds a dirty line
    };

    CacheConfig cfg;
    std::uint32_t lineShift = 0;
    std::uint32_t setShift = 0;
    std::uint64_t setMask = 0;
    SetState flushed{};              //!< state of a set after flush()
    std::vector<std::uint64_t> tags; //!< sets x ways, emptyTag = invalid
    std::vector<SetState> state;     //!< one per set
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace hams

#endif // HAMS_CPU_CACHE_MODEL_HH_
