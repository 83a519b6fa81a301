/**
 * @file
 * Workload generators reproducing the paper's Table III benchmarks.
 *
 * Three families drive the evaluation:
 *  - the MMF microbenchmark (seqRd/rndRd/seqWr/rndWr): page-granular
 *    streaming or random page access, memory intensive;
 *  - the SQLite benchmark (seqSel/rndSel/seqIns/rndIns/update):
 *    fine-grained (8-100 B) accesses through a B-tree with WAL writes
 *    and periodic durability barriers;
 *  - Rodinia kernels (BFS/KMN/NN): compute-heavy with characteristic
 *    load/store mixes.
 *
 * Each generator emits a deterministic stream of WorkloadOps: bundles of
 * compute instructions followed by at most one dataset access. Only the
 * stream's statistics (mix, footprint, locality, op structure) matter;
 * they are taken from Table III and the workloads' published structure.
 */

#ifndef HAMS_WORKLOAD_WORKLOAD_HH_
#define HAMS_WORKLOAD_WORKLOAD_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace hams {

/** Dataset traversal order. */
enum class AccessPattern : std::uint8_t { Sequential, Random };

/** Static description of one workload (Table III row). */
struct WorkloadSpec
{
    std::string name;
    std::string family;          //!< "micro" | "sqlite" | "rodinia"
    std::uint64_t datasetBytes = 1ull << 30;
    AccessPattern pattern = AccessPattern::Sequential;

    /** Fraction of dataset accesses that are reads. */
    double readFraction = 1.0;
    /** Dataset line-accesses per logical operation. */
    std::uint32_t accessesPerOp = 64;
    /** Non-memory instructions per dataset access. */
    std::uint32_t computePerAccess = 2;

    /**
     * Working-set locality of random picks: with probability
     * hotProbability the page comes from the first hotFraction of the
     * dataset. The real benchmarks touch each page hundreds of times
     * over their 38-244 G instructions (the paper measures a 94%
     * NVDIMM hit rate); a hot/cold mix reproduces that reuse within a
     * DES-sized run. hotFraction = 0 keeps uniform random.
     */
    double hotFraction = 0.0;
    double hotProbability = 0.8;

    /** @name SQLite-style structure. */
    ///@{
    /** Random B-tree page touches (reads) per op before the row. */
    std::uint32_t btreeTouches = 0;
    /** Sequential WAL bytes appended per op (0 = none). */
    std::uint32_t walBytesPerOp = 0;
    /** Durability barrier every N ops (0 = never). */
    std::uint32_t flushEveryOps = 0;
    ///@}

    /**
     * SMP sharding: start the sequential data cursor (and the WAL
     * cursor) this fraction of the way into its region, so N cores
     * running the same sequential workload stream through disjoint
     * offsets of the shared dataset instead of marching in lockstep.
     * 0 (the default) reproduces the single-core stream exactly.
     */
    double shardOffsetFrac = 0.0;

    /**
     * Scale-out placement: constant offset added to every emitted
     * address. With a sharded platform (baselines/sharded_platform.hh),
     * baseAddr = rangeBase(shard) pins this generator's whole footprint
     * inside one shard — the shard-friendly traffic of the scale-out
     * bench. 0 (the default) leaves the stream exactly where a
     * single-device run puts it. Keep it 4 KiB aligned so
     * page-transition tracking (WorkloadOp::newPage) is unchanged.
     */
    Addr baseAddr = 0;
};

/** One step of a workload: compute, then at most one memory access. */
struct WorkloadOp
{
    std::uint32_t computeInstructions = 0;
    bool hasAccess = false;
    MemAccess access;
    bool opBoundary = false;   //!< a logical op (SQL op, page) completed
    bool newPage = false;      //!< access enters a different 4 KiB page
    bool flushBarrier = false; //!< fsync-style durability point
};

/** Abstract deterministic op stream. */
class WorkloadGenerator
{
  public:
    virtual ~WorkloadGenerator() = default;

    virtual const WorkloadSpec& spec() const = 0;

    /** Produce the next op. @return false when the stream ends. */
    virtual bool next(WorkloadOp& op) = 0;

    /** Rewind to the beginning (same deterministic stream). */
    virtual void reset() = 0;
};

/**
 * The configurable engine implementing all three families.
 *
 * Per logical op it emits: btreeTouches random index-page reads (two
 * hot levels that cache well plus a uniformly random leaf), then
 * accessesPerOp dataset accesses (sequential cursor or random rows),
 * then walBytesPerOp of sequential log writes, then the op boundary
 * (with a flush barrier every flushEveryOps ops).
 */
class SyntheticWorkload : public WorkloadGenerator
{
  public:
    SyntheticWorkload(const WorkloadSpec& spec, std::uint64_t seed = 42);

    const WorkloadSpec& spec() const override { return _spec; }
    bool next(WorkloadOp& op) override;
    void reset() override;

  private:
    enum class Phase : std::uint8_t { Btree, Data, Wal, Boundary };

    Addr pickDataAddr();

    /** Cursor start for a @p span-byte region under shardOffsetFrac. */
    Addr shardStart(std::uint64_t span) const;

    /** Random page honoring the hot/cold working-set split. */
    Addr randomDataPage();

    WorkloadSpec _spec;
    std::uint64_t seed;
    Rng rng;

    Phase phase = Phase::Btree;
    std::uint32_t phaseLeft = 0;
    Addr seqCursor = 0;
    Addr walCursor = 0;
    Addr lastPage = ~Addr(0);
    std::uint64_t opsEmitted = 0;
    Addr opRowBase = 0; //!< row address chosen per op (random rows)

    /** Dataset region split: rows vs WAL tail. */
    std::uint64_t dataBytes = 0;
    Addr walBase = 0;
    std::uint64_t walBytes = 0;
};

/** Construct any of the twelve Table III workloads by name: core 0 of
 *  1 on shard 0 at base 0 of makeShardCoreWorkload, which builds every
 *  generator. */
std::unique_ptr<WorkloadGenerator> makeWorkload(const std::string& name,
                                                std::uint64_t dataset_bytes,
                                                std::uint64_t seed = 42);

/**
 * Deterministic per-core shard of a workload for SMP runs (cpu/
 * smp_model.hh): core @p core of @p ncores draws from its own seed
 * stream (random patterns) and starts its sequential/WAL cursors
 * core/ncores of the way into the region — all over the SAME shared
 * dataset, so cores contend for the same platform pages. It is
 * makeShardCoreWorkload on shard 0 at base 0, so core 0 of 1 is
 * makeWorkload(name, dataset_bytes, base_seed).
 */
std::unique_ptr<WorkloadGenerator>
makeCoreWorkload(const std::string& name, std::uint64_t dataset_bytes,
                 std::uint32_t core, std::uint32_t ncores,
                 std::uint64_t base_seed = 42);

/**
 * Root seed of shard @p shard's workload stream, split from
 * @p base_seed. The derivation depends only on (base_seed, shard) —
 * NOT on how many shards the run has — so shard s's stream is the same
 * whether the platform runs 2 shards or 8, and adding shards never
 * perturbs existing ones. Shard 0 keeps base_seed unchanged, so the
 * M = 1 platform reproduces the single-device streams bit for bit.
 * Other shards get a splitmix64-finalised mix: every bit of shard id
 * diffuses through the whole seed, keeping shard streams statistically
 * independent even for adjacent ids.
 */
std::uint64_t shardSeed(std::uint64_t base_seed, std::uint32_t shard);

/**
 * Per-(shard, core) workload for scale-out runs: the makeCoreWorkload
 * shard of the per-shard dataset, drawing from shardSeed(base_seed,
 * shard)'s stream and emitting addresses offset by @p shard_base
 * (WorkloadSpec::baseAddr — use ShardedPlatform::rangeBase for
 * shard-friendly traffic). @p dataset_bytes is the PER-SHARD dataset.
 * makeWorkload and makeCoreWorkload are its shard-0, base-0 calls.
 */
std::unique_ptr<WorkloadGenerator>
makeShardCoreWorkload(const std::string& name, std::uint64_t dataset_bytes,
                      std::uint32_t core, std::uint32_t ncores,
                      std::uint32_t shard, Addr shard_base,
                      std::uint64_t base_seed = 42);

/** The twelve workload names in the paper's figure order. */
const std::vector<std::string>& microWorkloadNames();   //!< 4 entries
const std::vector<std::string>& sqliteWorkloadNames();  //!< 5 entries
const std::vector<std::string>& rodiniaWorkloadNames(); //!< 3 entries
std::vector<std::string> allWorkloadNames();            //!< all 12

/** @name Family factories (implemented per family). */
///@{
WorkloadSpec microSpec(const std::string& name,
                       std::uint64_t dataset_bytes);
WorkloadSpec sqliteSpec(const std::string& name,
                        std::uint64_t dataset_bytes);
WorkloadSpec rodiniaSpec(const std::string& name,
                         std::uint64_t dataset_bytes);
///@}

} // namespace hams

#endif // HAMS_WORKLOAD_WORKLOAD_HH_
