/**
 * @file
 * Reference LRU cache for differential tests of CacheModel: a per-way
 * last-use stamp and dirty flag, the victim the first invalid way or
 * else the smallest stamp. Plain div/mod decode and a 64-bit clock;
 * written for obviousness, not speed.
 */

#ifndef HAMS_TESTS_CACHE_REFERENCE_HH_
#define HAMS_TESTS_CACHE_REFERENCE_HH_

#include <cstdint>
#include <vector>

#include "cpu/cache_model.hh"

namespace hams {

class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig& cfg)
        : cfg(cfg), sets(cfg.sizeBytes / cfg.lineBytes / cfg.ways),
          ways(sets * cfg.ways)
    {}

    CacheResult
    access(Addr addr, bool is_write)
    {
        Addr line = addr / cfg.lineBytes;
        std::uint64_t set = line % sets, tag = line / sets;
        Way* w = &ways[set * cfg.ways];
        CacheResult res;
        ++clock;
        for (std::uint32_t i = 0; i < cfg.ways; ++i) {
            if (w[i].valid && w[i].tag == tag) {
                w[i].lru = clock;
                w[i].dirty |= is_write;
                ++hits;
                res.hit = true;
                return res;
            }
        }
        ++misses;
        std::uint32_t v = 0;
        for (std::uint32_t i = 0; i < cfg.ways; ++i) {
            if (!w[i].valid) {
                v = i;
                break;
            }
            if (w[i].lru < w[v].lru)
                v = i;
        }
        if (w[v].valid && w[v].dirty) {
            res.evictedDirty = true;
            res.evictedLine = (w[v].tag * sets + set) * cfg.lineBytes;
        }
        w[v] = Way{true, is_write, tag, clock};
        return res;
    }

    void flush() { ways.assign(ways.size(), Way{}); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;
    };

    CacheConfig cfg;
    std::uint64_t sets;
    std::vector<Way> ways;
    std::uint64_t clock = 0;
};

} // namespace hams

#endif // HAMS_TESTS_CACHE_REFERENCE_HH_
