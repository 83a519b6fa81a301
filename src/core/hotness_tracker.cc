#include "core/hotness_tracker.hh"

#include "sim/logging.hh"

namespace hams {

HotnessTracker::HotnessTracker(std::uint64_t span_bytes,
                               const TieringConfig& cfg)
    : cfg(cfg)
{
    if (cfg.epochAccesses == 0)
        fatal("tiering epochAccesses must be non-zero");
    if (cfg.hotThreshold == 0)
        fatal("tiering hotThreshold must be non-zero (0 would mark "
              "every frame hot and pin the whole cache)");
    std::uint64_t n = (span_bytes + frameBytes - 1) / frameBytes;
    if (n == 0)
        fatal("hotness tracker spans zero frames");
    entries.assign(n, Entry{});
}

void
HotnessTracker::hotRanges(
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) const
{
    out.clear();
    bool open = false;
    for (std::uint64_t f = 0; f < entries.size(); ++f) {
        if (countOf(f) >= cfg.hotThreshold) {
            if (open)
                ++out.back().second;
            else
                out.emplace_back(f, 1);
            open = true;
        } else {
            open = false;
        }
    }
}

void
HotnessTracker::clear()
{
    for (Entry& e : entries)
        e = Entry{};
    _epoch = 0;
    sinceEpoch = 0;
}

} // namespace hams
