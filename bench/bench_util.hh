/**
 * @file
 * Shared helpers for the figure-reproduction harnesses: the platform
 * factory (all eleven Fig. 16 platforms in scaled-down form), the run
 * path and the sweep runner over it, and table printers.
 *
 * One run path: every figure cell — single-core, multicore or sharded
 * over several devices — goes through runOn, which holds the only
 * warm-up-then-measure split. A single-core cell is its 1-core case,
 * bit-identical to the CoreModel run the tables were recorded on
 * (SmpOneCore.* in tests/test_smp.cc).
 *
 * Scaling: the paper runs 38-244 G instructions over 5-16 GB datasets
 * against an 8 GB NVDIMM on real hardware. The harnesses preserve the
 * ratios (dataset ~2x the cache, identical access mixes) at a size a
 * DES can sweep in seconds. Set HAMS_BENCH_SCALE=N to multiply the
 * instruction budgets and dataset sizes.
 */

#ifndef HAMS_BENCH_BENCH_UTIL_HH_
#define HAMS_BENCH_BENCH_UTIL_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/platform.hh"
#include "baselines/sharded_platform.hh"
#include "core/hams_controller.hh"
#include "cpu/core_model.hh"
#include "cpu/smp_model.hh"
#include "workload/workload.hh"

namespace hams {
class Ssd;
} // namespace hams

namespace hams::bench {

/** Multiplier from the HAMS_BENCH_SCALE environment variable: 1 when
 *  unset; fatal unless a positive decimal integer small enough that
 *  BenchGeometry::scaled() cannot wrap. */
std::uint64_t scale();

/** Worker cap of the cell-parallel runners: HAMS_BENCH_THREADS, or
 *  the hardware concurrency when unset (at least 1); fatal unless a
 *  positive decimal integer. */
std::size_t benchThreads();

/** Scaled run-geometry shared by the harnesses. */
struct BenchGeometry
{
    std::uint64_t datasetBytes = 128ull << 20; //!< paper: 16 GB
    std::uint64_t hostMemBytes = 64ull << 20;  //!< paper: 8 GB NVDIMM
    std::uint64_t ssdRawBytes = 1ull << 30;    //!< paper: 800 GB
    std::uint64_t instructionBudget = 300000;
    std::uint32_t mosPageBytes = 128 * 1024;

    /** Geometry with the global scale applied. */
    static BenchGeometry scaled();

    /**
     * Dataset size for one workload, preserving Table III's ratio of
     * dataset to NVDIMM: micro 16/8 GB (2x), SQLite 11/8 GB (1.375x),
     * Rodinia BFS/KMN/NN 9/5/7 GB against the 8 GB module.
     */
    std::uint64_t datasetBytesFor(const std::string& workload) const;
};

/**
 * Construct one of the eleven evaluated platforms by its paper name:
 * mmap, flatflash-P/M, nvdimm-C, optane-P/M, hams-LP/LE/TP/TE, oracle.
 * @return nullptr for unknown names.
 */
std::unique_ptr<MemoryPlatform> makePlatform(const std::string& name,
                                             const BenchGeometry& geom);

/** The eleven platform names in the paper's legend order. */
const std::vector<std::string>& allPlatformNames();

/**
 * The one run path of every figure cell: run @p workload over
 * @p cores cores on @p platform, first a warm-up of half the measured
 * budget and then the measured run on the continuing streams, which
 * is what this returns.
 *
 * Core c drives its own generator (workload/workload.hh
 * makeShardCoreWorkload). On a ShardedPlatform of M shards core c
 * drives shard c % M, as core c / M of that shard's cores, placed at
 * the shard's range base (ShardedPlatform::rangeBase) so its whole
 * footprint stays inside that shard. Any other platform counts as one
 * shard at base 0. @p cores must be a positive multiple of M
 * (std::runtime_error otherwise).
 *
 * A 1-core run is the single-core figure run: SmpModel's solo rules
 * keep it bit-identical to CoreModel, and tests/test_smp.cc
 * (SmpOneCore.*) pins that identity, so .combined is the cell's
 * single-core RunResult.
 */
SmpResult runOn(MemoryPlatform& platform, const std::string& workload,
                const BenchGeometry& geom, std::uint32_t cores = 1);

/**
 * One cell of a figure sweep: @p cores cores running @p workload on
 * platform @p platform, built with makePlatform(platform, geom) and run
 * through runOn.
 */
struct SweepCell
{
    std::string platform;
    std::string workload;
    BenchGeometry geom;
    std::uint32_t cores = 1;

    /**
     * Device stacks behind the platform. 1 (the default) runs the bare
     * single-device platform; > 1 wraps @p devices independent stacks
     * in a range-sharded ShardedPlatform (makeShardedPlatform) and
     * requires cores % devices == 0.
     */
    std::uint32_t devices = 1;
};

/** A cell's SmpResult plus its platform's contention stats. */
struct SmpCellResult
{
    SmpResult smp;
    bool hasHamsStats = false;
    /** Valid when hasHamsStats; with devices > 1 this is the
     *  mergeFields aggregate across the HAMS shards. */
    HamsStats hams;
    /** Sharding-layer stats (valid when devices > 1). */
    ShardedStats sharded;
};

/**
 * Run every cell and return the results in input order.
 *
 * Each cell owns its platform — and therefore its EventQueue, devices
 * and workload generators — so cells are embarrassingly parallel: they
 * fan out across runCells' pool and the returned table is
 * byte-identical to serial execution, which is what lets the fig*
 * harnesses print deterministic tables from parallel runs.
 *
 * All-or-nothing: if any cell fails, the whole sweep throws
 * std::runtime_error naming the failing cell by its full coordinates
 * ("hams-TE x rndRd x 8-core x 4-dev") — never a table with
 * default-constructed holes. With several failures the lowest-index
 * cell is reported, so the error is deterministic at any thread count.
 */
std::vector<SmpCellResult> runSweep(const std::vector<SweepCell>& cells);

/**
 * Build @p devices independent device stacks of platform @p name —
 * each a full stack with the complete per-shard geometry @p geom (so
 * the sweep measures weak scaling: M devices hold M x the capacity) —
 * behind one ShardedPlatform. @return nullptr for unknown names.
 */
std::unique_ptr<ShardedPlatform>
makeShardedPlatform(const std::string& name, const BenchGeometry& geom,
                    std::uint32_t devices);

/**
 * Generic cell-parallel runner behind runSweep, for
 * harnesses with custom cell types (fig_gc): invokes @p body(i) for
 * i in [0, count) across a worker pool (HAMS_BENCH_THREADS, default
 * hardware concurrency, 1 = serial). @p body writes its result by
 * index, so tables are byte-identical to serial execution. A throwing
 * cell aborts the sweep with an error naming label(i); with several
 * concurrent failures the lowest-index cell is reported, keeping the
 * error deterministic at any thread count.
 */
void runCells(std::size_t count,
              const std::function<std::string(std::size_t)>& label,
              const std::function<void(std::size_t)>& body);

/**
 * Closed-loop queue-depth driver for harnesses that issue raw platform
 * accesses (fig_gc): @p queue_depth slots share
 * @p platform, each issuing its next access at its previous completion
 * tick. Conducted like SmpModel: the idle slot with the lowest issue
 * tick (slot index breaks ties) issues next, after every strictly
 * earlier event has fired; a completion landing first may free an
 * earlier-issuing slot, so the pick is redone after any harvest.
 *
 * @p next_access is called once per issue, in issue order, and
 * @p on_done(n, issued, done) once per completion with its 0-based
 * index n. Returns once @p completions accesses have completed (one
 * harvest may report a few more); accesses still in flight stay
 * pending. Throws std::runtime_error if the platform's events drain
 * with every slot in flight.
 */
void runClosedLoop(
    MemoryPlatform& platform, std::uint32_t queue_depth,
    std::uint64_t completions, const std::function<MemAccess()>& next_access,
    const std::function<void(std::uint64_t, Tick, Tick)>& on_done);

/** The ULL-Flash behind a HAMS system or an mmap platform (panics for
 *  any other platform). */
Ssd& backingSsdOf(MemoryPlatform& platform);

/**
 * Lay data out on logical pages [0, @p pages) of @p ssd, then clear the
 * flash busy-state: the device starts the measured phase idle but
 * loaded.
 */
void prefill(Ssd& ssd, std::uint64_t pages);

/** Print a harness banner with the figure reference. */
void banner(const std::string& figure, const std::string& what);

/**
 * Output path for machine-readable benchmark results: the
 * HAMS_BENCH_JSON environment variable, or @p fallback. Every bench
 * binary that writes a BENCH_*.json (micro_hotpaths and the sweeps
 * behind harness.hh) passes its own file name as @p fallback, so run
 * from the repo root each one updates its committed trajectory file.
 */
std::string jsonOutPath(const std::string& fallback);

/**
 * Heap allocations made by the calling thread (sim/alloc_hook.hh), for
 * per-cell allocs/access measurements: a process-global counter would
 * pick up every concurrent worker's allocations whenever
 * HAMS_BENCH_THREADS > 1.
 */
std::uint64_t threadAllocCallsNow();

} // namespace hams::bench

#endif // HAMS_BENCH_BENCH_UTIL_HH_
