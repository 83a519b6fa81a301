/**
 * @file
 * ShardedPlatform: M full device stacks behind one MemoryPlatform.
 *
 * Each shard is a complete platform of its own — for HAMS, its own
 * controller, NVMe path, FTL, GC machines and NVDIMM — running in its
 * own event-queue *domain*. The sharded platform routes every access
 * to exactly one shard and joins the domains with a DomainConductor
 * (plus one extra *hub* domain for cross-shard coordination events),
 * so drivers see one platform and one deterministic timeline while the
 * shards share no mutable simulation state. The full driver-facing
 * contract lives in the "Sharded platforms and event-queue domains"
 * section of baselines/platform.hh.
 *
 * Routing policies (the stripe table)
 * -----------------------------------
 * The address space is cut into fixed-size stripes (>= the largest
 * page granularity any shard manages, so a device page never crosses
 * shards). A construction-time table maps each stripe to its (shard,
 * shard-local base); the per-access route is one shift plus two array
 * loads — no hash probe, no division, no allocation.
 *
 *  - Range: shard s owns the contiguous span
 *    [s * shardCapacity, (s+1) * shardCapacity). Shard-friendly
 *    traffic is constructible by address range (rangeBase()).
 *  - Hash: stripes are dealt to shards through a seeded pseudo-random
 *    permutation — balanced by construction (every shard gets exactly
 *    stripes/M) and injective (each stripe has its own local slot), so
 *    no two global addresses ever alias in a shard.
 *
 * With one shard the platform is a pure pass-through: identity
 * routing, the caller's flush callback handed straight to the shard,
 * no fence, the shard's own name — bit-identical to running the bare
 * platform (tests/test_scaleout.cc pins this).
 *
 * Cross-shard flush (two-phase barrier)
 * -------------------------------------
 * flush() fans the barrier out to every shard at the issue tick and
 * completes on the hub domain at
 *     max(per-shard flush completion) + fenceLatency,
 * so the ack covers every shard's prior acked writes. The measured
 * cost of cross-shard ordering is recorded in ShardedStats: the skew
 * the slowest shard added (flushSkewTicks) and the fence release cost
 * (fenceTicks) — the dedicated columns of BENCH_scaleout.json.
 *
 * Per-shard failure domains
 * -------------------------
 * powerFail()/recover() helpers fan over the HAMS shards, but each
 * shard is independently cuttable: fault injection may cut one shard
 * (shard(i) + HamsSystem::powerFail) while the siblings keep serving —
 * there is no shared state to tear.
 */

#ifndef HAMS_BASELINES_SHARDED_PLATFORM_HH_
#define HAMS_BASELINES_SHARDED_PLATFORM_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/platform.hh"
#include "sim/annotations.hh"
#include "sim/fields.hh"

namespace hams {

/** How global stripes map onto shards. */
enum class ShardPolicy : std::uint8_t { Range, Hash };

/** Sharding-layer configuration. */
struct ShardedConfig
{
    ShardPolicy policy = ShardPolicy::Range;

    /**
     * Routing granularity. Must be a power of two, divide every
     * shard's capacity, and be at least the largest page granularity
     * any shard manages (the HAMS MoS page, 128 KiB stock) so one
     * device page never crosses shards.
     */
    std::uint64_t stripeBytes = 128 * 1024;
};

/** What the sharding layer itself did (per-shard work is in each
 *  shard's own stats; aggregate via aggregatedHamsStats etc.). */
#define HAMS_SHARDED_STATS_FIELDS(X)                                       \
    /* accesses routed and cross-shard flushes (M > 1) */                  \
    X(sum, std::uint64_t, routedAccesses)                                  \
    X(sum, std::uint64_t, flushBarriers)                                   \
    /* Sum over barriers of (slowest - fastest shard completion). */       \
    X(sum, Tick, flushSkewTicks)                                           \
    /* Sum of fence release costs (flushBarriers * fenceLatency). */       \
    X(sum, Tick, fenceTicks)

struct ShardedStats
{
    HAMS_FIELDS(ShardedStats, HAMS_SHARDED_STATS_FIELDS)
};

struct HamsStats;    // core/hams_controller.hh
struct FtlStats;     // ftl/page_ftl.hh

class ShardedPlatform : public MemoryPlatform
{
  public:
    /**
     * Release cost of the two-phase cross-shard flush barrier (the
     * fence fan-in/fan-out round over the host interconnect), charged
     * once per flush on top of the slowest shard's completion. Only
     * paid with more than one shard.
     */
    static constexpr Tick fenceLatency = nanoseconds(120);

    /**
     * Take ownership of @p shards (>= 1, equal capacities). Shard
     * order defines shard ids and, through the conductor, the
     * cross-domain tie-break (shard 0's domain first, hub last).
     */
    ShardedPlatform(std::vector<std::unique_ptr<MemoryPlatform>> shards,
                    const ShardedConfig& cfg = {});
    ~ShardedPlatform() override;

    /** @name MemoryPlatform. */
    ///@{
    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return _capacity; }
    /** The hub (cross-shard coordination) domain only — drive the
     *  platform through conductor(). */
    EventQueue& eventQueue() override { return hub; }
    DomainConductor& conductor() override { return dc; }
    HAMS_HOT_PATH void access(const MemAccess& acc, Tick at, AccessCb cb) override;
    HAMS_HOT_PATH bool tryAccess(const MemAccess& acc, Tick at,
                   InlineCompletion& out) override;
    bool persistent() const override;
    HAMS_HOT_PATH void flush(Tick at, AccessCb cb) override;
    DeviceActivity deviceActivity() const override;
    ///@}

    /** @name Shard introspection. */
    ///@{
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards.size());
    }
    MemoryPlatform& shard(std::uint32_t i) { return *shards[i]; }
    const ShardedStats& shardedStats() const { return _stats; }
    const ShardedConfig& config() const { return cfg; }

    /** Owning shard and shard-local address of @p addr. */
    struct Route
    {
        std::uint32_t shard;
        Addr local;
    };
    HAMS_HOT_PATH Route route(Addr addr) const
    {
        if (shards.size() == 1)
            return {0, addr};
        std::uint64_t idx = addr >> stripeShift;
        return {stripeShard[idx],
                stripeLocalBase[idx] + (addr & stripeMask)};
    }

    /** Range policy: first byte of shard @p s's contiguous span
     *  (fatal under Hash — there is no contiguous span). */
    Addr rangeBase(std::uint32_t s) const;
    ///@}

    /** @name Aggregated per-shard engine stats (mergeFields).
     * Merged across the HAMS shards: counters summed, depth peaks
     * maxed. @return number of HAMS shards folded in (0 = @p out
     * untouched, e.g. an all-mmap sharded platform). */
    ///@{
    std::uint32_t aggregatedHamsStats(HamsStats& out) const;
    std::uint32_t aggregatedFtlStats(FtlStats& out) const;
    ///@}

    /** @name Whole-platform power failure (per-shard machinery).
     * Each HAMS shard fails/recovers independently; these fan over
     * all of them. Cut a single shard via shard(i) instead. */
    ///@{
    /** Cut power on every HAMS shard; drops pending hub fences.
     *  @return the slowest shard's supercap-drain ticks. */
    HAMS_COLD_PATH Tick powerFail(std::uint64_t max_drain_frames = ~std::uint64_t(0));

    /** Recover every failed HAMS shard. @return the latest tick. */
    HAMS_COLD_PATH Tick recover();
    ///@}

  private:
    HAMS_COLD_PATH void buildRouting();
    void shardFlushDone(struct ShardedFlushCtx* ctx, Tick done);

    ShardedConfig cfg;
    std::vector<std::unique_ptr<MemoryPlatform>> shards;
    std::string _name;
    std::uint64_t _capacity = 0;

    /** Cross-shard coordination domain (flush fences). */
    EventQueue hub;
    DomainConductor dc;

    /** Stripe routing tables (empty when pass-through, M == 1). */
    std::uint32_t stripeShift = 0;
    std::uint64_t stripeMask = 0;
    std::vector<std::uint32_t> stripeShard;
    std::vector<Addr> stripeLocalBase;
    std::vector<std::uint64_t> stripesPerShard;

    ShardedStats _stats;
    ObjectPool<ShardedFlushCtx> flushPool;
};

} // namespace hams

#endif // HAMS_BASELINES_SHARDED_PLATFORM_HH_
