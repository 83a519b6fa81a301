/**
 * @file
 * Scale-out sweep: N cores driving M full device stacks behind one
 * range-sharded ShardedPlatform (baselines/sharded_platform.hh) — the
 * multi-device deployment the paper's single-device evaluation stops
 * short of, over the same HAMS configurations.
 *
 * Grid: {hams-TE, hams-TP} x {rndRd, update} x M ∈ {1, 2, 4, 8}
 * devices x {1, 4} cores per device (N = M x cores-per-device <= 32).
 * Every shard carries the full single-device geometry and its cores'
 * traffic stays inside the shard's range (weak scaling, shard-friendly
 * placement), so scaling_efficiency compares the M-device aggregate
 * against M perfectly-scaled copies of the matching 1-device cell.
 * The cost of cross-shard ordering gets its own columns: barriers, the
 * skew the slowest shard adds, and the fence release charge (update
 * carries SQLite-style durability barriers; rndRd never flushes).
 *
 * Two built-in gates land in the JSON alongside the table:
 *  - m1_identical: every M = 1 grid configuration rerun through a
 *    1-shard ShardedPlatform is bit-identical to the bare platform;
 *  - rerun_identical: an M = 4 cell rerun from scratch reproduces the
 *    sweep's result bit for bit.
 *
 * Deterministic: fixed-seed shard/core workload streams on fresh
 * platforms per cell — reruns at any HAMS_BENCH_THREADS are
 * byte-identical. Results land in BENCH_scaleout.json
 * (HAMS_BENCH_JSON overrides; HAMS_BENCH_SCALE enlarges the runs).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("scaleout",
           "N-core x M-device sharded-platform scaling (ShardedPlatform)");
    BenchGeometry geom = BenchGeometry::scaled();

    const std::vector<std::string> platforms = {"hams-TE", "hams-TP"};
    const std::vector<std::string> workloads = {"rndRd", "update"};
    const std::vector<std::uint32_t> cpds = {1, 4}; // cores per device
    const std::vector<std::uint32_t> devices = {1, 2, 4, 8};

    std::vector<SmpSweepCell> cells;
    for (const auto& p : platforms)
        for (const auto& w : workloads)
            for (std::uint32_t cpd : cpds)
                for (std::uint32_t m : devices)
                    cells.push_back({p, w, cpd * m, geom, m});
    std::vector<SmpCellResult> results = runSmpSweep(cells);

    // Gate 1: the 1-shard ShardedPlatform is a pure pass-through —
    // every M = 1 configuration must be bit-identical to the bare
    // platform the sweep ran.
    bool m1_identical = true;
    {
        std::size_t cursor = 0;
        for (const auto& p : platforms)
            for (const auto& w : workloads)
                for (std::uint32_t cpd : cpds)
                    for (std::uint32_t m : devices) {
                        if (m == 1) {
                            auto sp = makeShardedPlatform(p, geom, 1);
                            SmpResult twin =
                                runShardedSmpOn(*sp, w, cpd, geom);
                            m1_identical = m1_identical &&
                                twin == results[cursor].smp;
                        }
                        ++cursor;
                    }
    }

    // Gate 2: rerunning an M = 4 cell from scratch reproduces the
    // sweep's result bit for bit.
    bool rerun_identical = true;
    {
        std::size_t cursor = 0;
        for (const auto& p : platforms)
            for (const auto& w : workloads)
                for (std::uint32_t cpd : cpds)
                    for (std::uint32_t m : devices) {
                        if (m == 4 && p == "hams-TE" && cpd == 4) {
                            auto sp = makeShardedPlatform(p, geom, 4);
                            SmpResult twin =
                                runShardedSmpOn(*sp, w, cpd * m, geom);
                            rerun_identical = rerun_identical &&
                                twin == results[cursor].smp;
                        }
                        ++cursor;
                    }
    }

    std::printf("\n%-8s %-8s %4s %4s %6s %14s %8s %9s %11s %11s\n",
                "platform", "workload", "dev", "c/d", "cores",
                "ops/s(agg)", "scale", "barriers", "skew-ns/f",
                "fence-ns/f");

    std::string out = jsonOutPath("BENCH_scaleout.json");
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "could not write %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"m1_identical\": %s,\n  \"rerun_identical\": "
                 "%s,\n  \"benchmarks\": [\n",
                 m1_identical ? "true" : "false",
                 rerun_identical ? "true" : "false");

    std::size_t cursor = 0;
    for (const auto& p : platforms) {
        for (const auto& w : workloads) {
            for (std::uint32_t cpd : cpds) {
                double base_ops = 0;
                for (std::uint32_t m : devices) {
                    const SmpCellResult& cell = results[cursor];
                    const RunResult& comb = cell.smp.combined;
                    std::uint32_t cores = cpd * m;
                    if (m == 1)
                        base_ops = comb.opsPerSec;
                    // Weak-scaling efficiency: M devices (and M x the
                    // cores) vs M perfectly-scaled 1-device cells.
                    double eff = base_ops > 0
                                     ? comb.opsPerSec / (base_ops * m)
                                     : 0;

                    std::uint64_t barriers = cell.sharded.flushBarriers;
                    double skew_ns =
                        barriers ? static_cast<double>(
                                       cell.sharded.flushSkewTicks) /
                                       (1000.0 * barriers)
                                 : 0;
                    double fence_ns =
                        barriers ? static_cast<double>(
                                       cell.sharded.fenceTicks) /
                                       (1000.0 * barriers)
                                 : 0;

                    std::printf("%-8s %-8s %4u %4u %6u %14.0f %7.2f "
                                "%9llu %11.1f %11.1f\n",
                                p.c_str(), w.c_str(), m, cpd, cores,
                                comb.opsPerSec, eff,
                                static_cast<unsigned long long>(barriers),
                                skew_ns, fence_ns);

                    std::fprintf(
                        f,
                        "    {\"name\": \"scaleout/%s/%s/d%u/c%u\", "
                        "\"devices\": %u, \"cores\": %u, "
                        "\"ops_per_sec\": %.1f, \"bytes_per_sec\": %.1f, "
                        "\"sim_time_ticks\": %llu, "
                        "\"scaling_efficiency\": %.4f, "
                        "\"routed_accesses\": %llu, "
                        "\"flush_barriers\": %llu, "
                        "\"flush_skew_ns_per_barrier\": %.1f, "
                        "\"fence_ns_per_barrier\": %.1f}%s\n",
                        p.c_str(), w.c_str(), m, cpd, m, cores,
                        comb.opsPerSec, comb.bytesPerSec,
                        static_cast<unsigned long long>(comb.simTime),
                        eff,
                        static_cast<unsigned long long>(
                            cell.sharded.routedAccesses),
                        static_cast<unsigned long long>(barriers),
                        skew_ns, fence_ns,
                        cursor + 1 < results.size() ? "," : "");
                    ++cursor;
                }
            }
        }
    }

    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nm1_identical=%s rerun_identical=%s\n",
                m1_identical ? "yes" : "NO",
                rerun_identical ? "yes" : "NO");
    std::printf("Results written to %s\n", out.c_str());
    return !m1_identical || !rerun_identical;
}
