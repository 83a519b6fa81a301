/**
 * @file
 * Decaying access-frequency/recency monitor and the tiering knobs it
 * feeds — the CHMU-style hotness signal behind the mmap platform's
 * hot-frame pinning (page cache and SSD buffer) and background
 * promotion/demotion between its SSD buffer and flash.
 *
 * ## Decay/epoch contract
 *
 * The tracker keeps one saturating 16-bit counter per frame in a table
 * pre-sized at construction (no growth, ever). Time is measured in
 * *epochs*: a global epoch counter advances once every
 * TieringConfig::epochAccesses touches. Counters are not swept when an
 * epoch turns — that would cost O(frames) on the hot path — instead
 * each entry carries the epoch stamp of its last touch and decays
 * *lazily*: a reader right-shifts the stored count by the number of
 * epochs elapsed since the stamp (a halving per epoch, clamped so
 * shifts >= 16 read as zero). touch() applies the same decay, then
 * saturating-increments and restamps. The observable value of a frame
 * is therefore always `count >> (epoch - stamp)` — frequency with
 * exponential recency decay — and two runs issuing the same touch
 * sequence read bit-identical values at every point: the tracker is
 * pure integer state driven only by the access stream.
 *
 * A frame is *hot* when its decayed count reaches
 * TieringConfig::hotThreshold. With the default epochAccesses = 4096
 * and hotThreshold = 4, a frame needs ~4 touches within the last
 * couple of epochs to qualify — a working-set membership test, not a
 * lifetime popularity contest.
 *
 * Hot-path discipline: touch()/isHotAddr() are O(1), allocation-free,
 * probe no hash and take no locks; the table is plain contiguous
 * memory. A power cut loses the tracker (clear() models it) — hotness
 * is volatile advice, never durable state, so losing it affects
 * performance only, never correctness.
 */

#ifndef HAMS_CORE_HOTNESS_TRACKER_HH_
#define HAMS_CORE_HOTNESS_TRACKER_HH_

#include <cstdint>
#include <utility>
#include <vector>

#include "nvme/nvme_types.hh"
#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/**
 * Tiering knobs, documented FtlConfig-style: every consumer has its own
 * enable so the signal and each policy acting on it can be toggled
 * independently. All defaults OFF — a default-constructed TieringConfig
 * is inert and the simulated outputs are bit-identical to a build
 * without the subsystem.
 */
struct TieringConfig
{
    /** Master switch: allocate the tracker and feed it every access.
     *  Off, nothing below applies and no tracker exists. On with every
     *  consumer knob off, the tracker observes but never acts — the
     *  differential tests pin that this is output-inert. */
    bool enabled = false;

    /** Touches per epoch: the decay clock. Smaller = faster forgetting
     *  (recency-biased), larger = frequency-biased. */
    std::uint32_t epochAccesses = 4096;

    /** Decayed count at/above which a frame counts as hot. */
    std::uint16_t hotThreshold = 4;

    /** Consumer 1: cold-first eviction / hot-frame pinning in the
     *  DramBuffer LRU (page cache and SSD-internal buffer). */
    bool pinHotFrames = false;

    /** How many LRU-tail candidates the cold-first victim selector
     *  examines before giving up and taking the exact LRU tail. Bounds
     *  the per-eviction work (and the pinned fraction: at most the
     *  scan window can be skipped over). */
    std::uint32_t pinScanLimit = 8;

    /** Consumer 2: background promotion (flash -> buffer) and early
     *  demotion (dirty buffer frame -> flash) of frames as
     *  background-priority tracked flash ops, paced off the GC
     *  watermark band. Schedules events; the caller's inline delivery
     *  rule orders completions against them (baselines/platform.hh). */
    bool migration = false;

    /** Tracker frames scanned per migration step while hunting for
     *  candidates (bounds per-step work on large devices). */
    std::uint32_t migScanFrames = 256;

    /** Quiet window after the last host op before a migration step
     *  fires (idle-time tiering, like the FTL's gcIdleThreshold). */
    Tick migIdleDelay = microseconds(50);
};

/**
 * Per-frame decaying hotness monitor (see the file header for the
 * decay/epoch contract). Pre-sized at construction; all methods are
 * O(1) except the cold-path extraction helpers.
 */
class HotnessTracker
{
  public:
    /** Tracking granularity in bytes (one counter per frame): the
     *  4 KiB NVMe block, so cache keys, FTL LPN groups and tracker
     *  frames coincide. */
    static constexpr std::uint32_t frameBytes = nvmeBlockSize;

    /** Track @p span_bytes of address space at frameBytes grain. */
    HotnessTracker(std::uint64_t span_bytes, const TieringConfig& cfg);

    /** Record one access to @p addr (decay + saturating increment). */
    HAMS_HOT_PATH void
    touch(Addr addr)
    {
        std::uint64_t frame = addr / frameBytes;
        if (frame >= entries.size())
            return; // folded/out-of-span addresses carry no signal
        Entry& e = entries[frame];
        std::uint32_t shift = _epoch - e.stamp;
        std::uint16_t c = shift >= 16 ? 0
                                      : static_cast<std::uint16_t>(
                                            e.count >> shift);
        if (c != 0xFFFF)
            ++c;
        e.count = c;
        e.stamp = _epoch;
        if (++sinceEpoch >= cfg.epochAccesses) {
            sinceEpoch = 0;
            ++_epoch;
        }
    }

    /** Decayed count of @p frame right now (no state change). */
    HAMS_HOT_PATH std::uint16_t
    countOf(std::uint64_t frame) const
    {
        const Entry& e = entries[frame];
        std::uint32_t shift = _epoch - e.stamp;
        return shift >= 16
                   ? 0
                   : static_cast<std::uint16_t>(e.count >> shift);
    }

    /** True when @p frame's decayed count reaches the hot threshold. */
    HAMS_HOT_PATH bool
    isHotFrame(std::uint64_t frame) const
    {
        return frame < entries.size() &&
               countOf(frame) >= cfg.hotThreshold;
    }

    /** isHotFrame() of the frame containing @p addr. */
    HAMS_HOT_PATH bool
    isHotAddr(Addr addr) const
    {
        return isHotFrame(addr / frameBytes);
    }

    std::uint64_t frames() const { return entries.size(); }
    std::uint32_t epoch() const { return _epoch; }
    const TieringConfig& config() const { return cfg; }

    /**
     * CHMU-style top-range extraction: coalesce currently-hot frames
     * into [first, count) runs, ascending. Cold path (migration steps,
     * tests); @p out is reused scratch.
     */
    HAMS_COLD_PATH void
    hotRanges(std::vector<std::pair<std::uint64_t, std::uint64_t>>& out)
        const;

    /** Forget everything (power failure: hotness is volatile advice). */
    HAMS_COLD_PATH void clear();

  private:
    /** One frame: last-touch epoch stamp + saturating counter. */
    struct Entry
    {
        std::uint16_t count = 0;
        std::uint32_t stamp = 0;
    };

    TieringConfig cfg;
    std::vector<Entry> entries;
    std::uint32_t _epoch = 0;
    std::uint32_t sinceEpoch = 0;
};

} // namespace hams

#endif // HAMS_CORE_HOTNESS_TRACKER_HH_
