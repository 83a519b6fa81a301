#include "cpu/cache_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

namespace {

constexpr std::uint64_t nibbleOnes = 0x1111111111111111ull;

/** Recency position of way @p w in @p order: the lowest nibble equal to
 *  @p w. Borrows of the zero-nibble test only flag nibbles above a
 *  true match, so the lowest flag is exact. */
inline std::uint32_t
positionOf(std::uint64_t order, std::uint32_t w)
{
    std::uint64_t x = order ^ (nibbleOnes * w);
    std::uint64_t zero = (x - nibbleOnes) & ~x & (nibbleOnes << 3);
    return static_cast<std::uint32_t>(__builtin_ctzll(zero)) / 4;
}

/** Move way @p w, at recency position @p pos, to the MRU nibble; the
 *  nibbles in front of it shift one place toward the LRU end. */
inline std::uint64_t
toFront(std::uint64_t order, std::uint32_t pos, std::uint32_t w)
{
    std::uint64_t through = ~std::uint64_t(0) >> (60 - 4 * pos);
    return (order & ~through) | ((order << 4) & through) | w;
}

} // namespace

CacheModel::CacheModel(const CacheConfig& cfg) : cfg(cfg)
{
    if (cfg.ways == 0 || cfg.ways > maxWays)
        fatal("cache needs 1 to ", maxWays, " ways, got ", cfg.ways);
    if (!isPow2(cfg.lineBytes))
        fatal("cache line size must be a power of two, got ",
              cfg.lineBytes, " B");
    std::uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    if (lines % cfg.ways != 0)
        fatal("cache lines not divisible by associativity");
    std::uint64_t sets = lines / cfg.ways;
    if (!isPow2(sets))
        fatal("cache set count must be a power of two: ", cfg.sizeBytes,
              " B / ", cfg.lineBytes, " B lines / ", cfg.ways,
              " ways = ", sets, " sets");

    lineShift = log2u64(cfg.lineBytes);
    setShift = log2u64(sets);
    setMask = sets - 1;
    for (std::uint32_t k = 0; k < cfg.ways; ++k)
        flushed.order |= std::uint64_t(cfg.ways - 1 - k) << (4 * k);
    tags.assign(sets * cfg.ways, emptyTag);
    state.assign(sets, flushed);
}

CacheResult
CacheModel::access(Addr addr, bool is_write)
{
    Addr line = addr >> lineShift;
    auto set = static_cast<std::uint32_t>(line & setMask);
    std::uint64_t tag = line >> setShift;
    std::uint64_t* set_tags = &tags[std::size_t(set) * cfg.ways];
    SetState& s = state[set];

    CacheResult res;
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
        if (set_tags[w] == tag) {
            s.order = toFront(s.order, positionOf(s.order, w), w);
            s.dirty |= std::uint32_t(is_write) << w;
            ++_hits;
            res.hit = true;
            return res;
        }
    }

    // Miss: the LRU nibble names the victim (the first invalid way
    // while the set is filling). Invalid ways are never dirty.
    ++_misses;
    std::uint32_t lru = cfg.ways - 1;
    auto victim = static_cast<std::uint32_t>(s.order >> (4 * lru)) & 0xf;
    if (s.dirty >> victim & 1) {
        res.evictedDirty = true;
        res.evictedLine = ((set_tags[victim] << setShift) | set) << lineShift;
    }
    set_tags[victim] = tag;
    s.dirty &= ~(1u << victim);
    s.dirty |= std::uint32_t(is_write) << victim;
    s.order = toFront(s.order, lru, victim);
    return res;
}

void
CacheModel::flush()
{
    std::fill(tags.begin(), tags.end(), emptyTag);
    std::fill(state.begin(), state.end(), flushed);
}

} // namespace hams
