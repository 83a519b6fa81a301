/**
 * @file
 * Full SSD device model: HIL + FTL + FIL + internal DRAM buffer, with a
 * functional data plane and power-failure semantics.
 *
 * The same class instantiates the ULL-Flash (Z-NAND, dual-channel
 * striping, optional supercap per the HAMS design), the comparison NVMe
 * SSD (V-NAND/TLC class) and the SATA SSD, differing only in SsdConfig.
 */

#ifndef HAMS_SSD_SSD_HH_
#define HAMS_SSD_SSD_HH_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "dram/dram_device.hh"
#include "flash/fil.hh"
#include "ftl/page_ftl.hh"
#include "mem/sparse_memory.hh"
#include "sim/annotations.hh"
#include "sim/direct_table.hh"
#include "ssd/dram_buffer.hh"
#include "ssd/hil.hh"
#include "sim/types.hh"

namespace hams {

/**
 * Pooled store for buffered-but-unflushed frame bytes (the contents a
 * power failure loses without a supercap).
 *
 * Replaces a per-write `unordered_map<block, vector<uint8_t>>` — a
 * hash probe plus a 4 KiB heap allocation per buffered write — with
 * hot-path-clean structures: a block->slot index direct-indexed over
 * the device's blocks (sim/direct_table.hh), a recycled pool of 4 KiB
 * frame buffers, and a dense key vector (insertion order) giving O(1)
 * swap-remove erase and deterministic iteration. Steady-state
 * find/insert/erase touch no heap and probe no hash.
 */
class VolatileStore
{
  public:
    /** An empty store (assign a sized one before use). */
    VolatileStore() = default;

    /** A store for blocks [0, @p blocks). */
    explicit VolatileStore(std::uint64_t blocks) : index(blocks, -1) {}

    /** Frame bytes for @p block, or null when nothing is buffered. */
    HAMS_HOT_PATH std::uint8_t*
    find(std::uint64_t block)
    {
        std::int32_t slot = index.get(block);
        return slot < 0 ? nullptr : frames[slot].get();
    }

    HAMS_HOT_PATH const std::uint8_t*
    find(std::uint64_t block) const
    {
        std::int32_t slot = index.get(block);
        return slot < 0 ? nullptr : frames[slot].get();
    }

    /** Frame bytes for @p block, buffering the block if it was not. */
    HAMS_HOT_PATH std::uint8_t*
    insert(std::uint64_t block)
    {
        std::int32_t& slot = index.at(block);
        if (slot >= 0)
            return frames[slot].get();
        if (!freeSlots.empty()) {
            slot = std::int32_t(freeSlots.back());
            freeSlots.pop_back();
        } else {
            slot = std::int32_t(frames.size());
            HAMS_LINT_SUPPRESS("frame-pool growth to the dirty "
                               "high-water mark; steady state recycles "
                               "slots off the free list")
            frames.push_back(
                std::make_unique<std::uint8_t[]>(nvmeBlockSize));
            HAMS_LINT_SUPPRESS("grows in lockstep with the frame pool "
                               "to the dirty high-water mark")
            keyPos.push_back(0);
        }
        keyPos[slot] = std::uint32_t(occupied.size());
        HAMS_LINT_SUPPRESS("key-list capacity grows to the occupancy "
                           "high-water mark and is retained across "
                           "erase/insert cycles")
        occupied.push_back(block);
        return frames[slot].get();
    }

    /** Drop @p block's buffered frame (frame buffer is recycled). */
    HAMS_HOT_PATH void
    erase(std::uint64_t block)
    {
        std::int32_t* slot = index.find(block);
        if (!slot || *slot < 0)
            return;
        std::uint32_t pos = keyPos[*slot];
        std::uint64_t last = occupied.back();
        occupied[pos] = last;
        occupied.pop_back();
        if (last != block)
            keyPos[index.get(last)] = pos;
        HAMS_LINT_SUPPRESS("free-list growth bounded by the frame pool")
        freeSlots.push_back(std::uint32_t(*slot));
        *slot = -1;
    }

    /** Drop every buffered frame (power loss without supercap). */
    HAMS_COLD_PATH void
    clear()
    {
        while (!occupied.empty())
            erase(occupied.back());
    }

    bool empty() const { return occupied.empty(); }
    std::size_t size() const { return occupied.size(); }

    /**
     * Buffered block numbers in insertion order — deterministic, so
     * bulk destage (e.g. a flush draining from the back) touches the
     * durable store in a reproducible order.
     */
    const std::vector<std::uint64_t>& keys() const { return occupied; }

    /** Frame buffers ever allocated (tests pin steady-state reuse). */
    std::size_t frameCount() const { return frames.size(); }

  private:
    /** Block -> slot id in frames (-1 = not buffered). */
    DirectTable<std::int32_t> index;
    std::vector<std::unique_ptr<std::uint8_t[]>> frames;
    std::vector<std::uint32_t> keyPos; //!< slot -> index in occupied
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint64_t> occupied; //!< insertion-ordered blocks
};

/** Complete configuration of one SSD device. */
struct SsdConfig
{
    std::string name = "ssd";
    FlashGeometry geom;
    NandTiming nand = NandTiming::zNand();
    FtlConfig ftl;
    HilConfig hil;
    bool hasBuffer = true;
    DramBufferConfig buffer;
    /** Supercap drains the volatile buffer to flash on power loss. */
    bool hasSupercap = false;
    /** Device-internal outstanding-command limit. */
    std::uint32_t maxOutstanding = 64;
    /** Allocate a functional (byte-carrying) data plane. */
    bool functionalData = true;
};

/** Device statistics beyond FTL/flash counters. */
struct SsdStats
{
    std::uint64_t bufferHits = 0;
    std::uint64_t bufferMisses = 0;
    std::uint64_t fuaWrites = 0;
    std::uint64_t flushes = 0;
    std::uint64_t throttledCommands = 0; //!< delayed by maxOutstanding
};

/**
 * One SSD. Host-visible operations are 4 KiB-block granular; timing and
 * (optionally) bytes move together so crash tests observe exactly what a
 * real device would lose.
 *
 * ## Durability and recovery contract
 *
 * Power may be cut at **any event boundary** — mid-GC-slice, with an
 * erase in flight, with background relocations suspended under a
 * foreground burst. The owner must sequence a cut exactly as:
 *
 *  1. `EventQueue::reset(false)` — every pending event (GC steps,
 *     completion deliveries) evaporates; simulated time keeps running.
 *  2. `powerFail()` — the FTL resolves its in-flight state first
 *     (`PageFtl::onPowerFail()`): an *issued* erase counts as done and
 *     its block is credited to the free pool, a half-relocated victim
 *     returns to the closed list with its surviving pages still
 *     mapped, every FlashOpHandle is released while the FIL still
 *     honours it. A handle leaked past this point is fatal — after
 *     the registry resets it would alias a post-boot op. Then the
 *     volatile buffer meets its fate: with a supercap every dirty
 *     frame destages to flash (drain time computed in integer tick
 *     arithmetic, reproducible across compilers); without one, or
 *     when a second failure cuts the drain short, unflushed frames
 *     are lost.
 *  3. `powerRestore()` — clears transient busy state (FIL registry,
 *     outstanding-command heap, latched GC schedule hints).
 *
 * What survives a cut: the L2P map and block metadata (per the paper,
 * FTL metadata is journalled/reconstructable), every byte previously
 * written with FUA or flushed, and every frame the supercap drained.
 * What does not: buffered unflushed frames (no supercap / interrupted
 * drain), in-flight commands (never acknowledged — the host must not
 * have observed their completion), and un-erased victim progress
 * beyond the pages whose relocation already reached the map.
 */
class Ssd
{
  public:
    /**
     * @param eq simulation event queue for device-internal background
     *           activity (FTL garbage collection). May be null: then
     *           GC stays synchronous regardless of FtlConfig. The
     *           queue must outlive the device.
     */
    explicit Ssd(const SsdConfig& cfg, EventQueue* eq = nullptr);

    /** Exported capacity in 4 KiB logical blocks (after FTL OP). */
    std::uint64_t logicalBlocks() const { return _logicalBlocks; }

    /** Exported capacity in bytes. */
    std::uint64_t capacityBytes() const
    {
        return _logicalBlocks * nvmeBlockSize;
    }

    /**
     * Timed+functional read. @p dst (if non-null) receives
     * blocks*4096 bytes.
     * @return completion tick.
     */
    HAMS_HOT_PATH Tick hostRead(std::uint64_t slba, std::uint32_t blocks, Tick at,
                  std::uint8_t* dst = nullptr);

    /**
     * Timed+functional write. @p src (if non-null) supplies
     * blocks*4096 bytes. FUA forces write-through to flash.
     * @return completion tick.
     */
    HAMS_HOT_PATH Tick hostWrite(std::uint64_t slba, std::uint32_t blocks, bool fua,
                   Tick at, const std::uint8_t* src = nullptr);

    /** Flush the volatile buffer to flash. */
    HAMS_HOT_PATH Tick hostFlush(Tick at);

    /**
     * Functional-only write used by DMA engines that pull host bytes at
     * their actual transfer tick (the timing ran earlier through
     * hostWrite with a null payload). Mirrors hostWrite's durability
     * decision: buffered writes land in the volatile buffer, FUA or
     * bufferless writes land in the durable store.
     */
    HAMS_HOT_PATH void pokeWrite(std::uint64_t slba, std::uint32_t blocks, bool fua,
                   const std::uint8_t* src);

    /**
     * Power loss. With a supercap, dirty buffer contents drain to flash
     * (both functionally and in time); without one they are lost. See
     * the class comment for the full sequencing contract.
     *
     * @param max_drain_frames fault-injection hook: the supercap only
     *        manages to destage this many dirty frames before a second
     *        failure cuts the drain short; the remaining frames are
     *        lost exactly as if no supercap existed. Frames destage in
     *        ascending frame-key order (deterministic), so the durable
     *        prefix of an interrupted drain is reproducible. Default:
     *        unlimited (full drain).
     * @return the time the drain took (0 without supercap).
     */
    HAMS_COLD_PATH Tick powerFail(std::uint64_t max_drain_frames = ~std::uint64_t(0));

    /** Bring the device back up (clears transient busy state). */
    HAMS_COLD_PATH void powerRestore();

    /** @name Introspection for tests and benches. */
    ///@{
    const SsdConfig& config() const { return cfg; }
    const SsdStats& stats() const { return _stats; }
    const FtlStats& ftlStats() const { return ftl->stats(); }
    const FlashActivity& flashActivity() const { return fil->activity(); }
    DramBuffer* buffer() { return buf.get(); }
    PageFtl& pageFtl() { return *ftl; }
    Fil& flashLayer() { return *fil; }
    /** The internal buffer's DRAM activity for the energy model,
     *  derived from the bytes it moved (zero without a buffer). */
    DramActivity bufferActivity() const;
    /** Buffered-but-unflushed frames in the volatile store. */
    std::size_t volatileFrames() const { return volatileData.size(); }

    /** Read bytes for verification without timing effects. */
    HAMS_COLD_PATH void peek(std::uint64_t slba, std::uint32_t blocks,
              std::uint8_t* dst) const;
    ///@}

  private:
    /** Apply internal queue-depth throttling to a start tick. */
    HAMS_HOT_PATH Tick admit(Tick at);

    /** Record a command's completion for queue accounting. */
    HAMS_HOT_PATH void retire(Tick done);

    /** Move a volatile frame's bytes into the durable store. */
    HAMS_HOT_PATH void destage(std::uint64_t block);

    SsdConfig cfg;
    std::uint64_t _logicalBlocks;
    std::unique_ptr<Fil> fil;
    std::unique_ptr<PageFtl> ftl;
    std::unique_ptr<DramBuffer> buf;
    std::unique_ptr<Hil> hil;
    SsdStats _stats;

    /** Durable (flash-backed) contents, 4 KiB frames, LBA space. */
    std::unique_ptr<SparseMemory> store;
    /** Buffered-but-unflushed contents (lost without supercap). */
    VolatileStore volatileData;

    /** Outstanding-command completion times (min-heap). */
    std::priority_queue<Tick, std::vector<Tick>, std::greater<>> inflight;
};

} // namespace hams

#endif // HAMS_SSD_SSD_HH_
