/**
 * @file
 * End-to-end macro benchmark: host cost of one simulated access through
 * the full driver stack (WorkloadGenerator -> CoreModel -> caches ->
 * MemoryPlatform -> EventQueue), the number the figure sweeps actually
 * pay — micro_hotpaths covers the per-component costs.
 *
 * Each cell runs twice on fresh, identical platforms: once with the
 * immediate-completion fast path disabled (every access pays the
 * EventQueue schedule+fire round trip) and once with it enabled. It
 * reports host-ns per platform access, allocs per access, the
 * speedup, and the events fired per access on the inline half — a
 * deterministic count showing how often the fast path engaged. The
 * event path is this build with the fast path off, so it already has
 * every shared model optimisation: "speedup" is the fast path's own
 * gain, not the gain over an older driver.
 *
 * Gates, checked in the binary (harness.hh; a failure exits 1):
 *  - the simulated outputs of the two halves are bit-identical in
 *    every repetition (sim_outputs_identical);
 *  - hits on idle NVDIMM frames complete inline in both HAMS modes, so
 *    the hit-dominated hams rndRd cells fire < 0.05 events per access.
 *    A count, not a timing: host noise cannot flake it.
 *
 * Results land in BENCH_macro.json (HAMS_BENCH_JSON overrides;
 * HAMS_BENCH_SCALE enlarges the runs).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness.hh"

namespace {

using namespace hams;
using namespace hams::bench;

/** One cell's BENCH_macro.json row. */
#define HAMS_CELL_REPORT_FIELDS(X)                                         \
    /* fast path off */                                                    \
    X(keep, double, eventNsPerAccess)                                      \
    /* fast path on */                                                     \
    X(keep, double, inlineNsPerAccess)                                     \
    X(keep, double, speedup)                                               \
    /* fast path on */                                                     \
    X(keep, double, allocsPerAccess)                                       \
    /* fast path on; deterministic */                                      \
    X(keep, double, inlineEventsPerAccess)                                 \
    X(keep, std::uint64_t, platformAccesses)                               \
    X(keep, bool, simOutputsIdentical)

struct CellReport
{
    HAMS_FIELDS(CellReport, HAMS_CELL_REPORT_FIELDS)
};

/** Best-of-N timing repetitions per path, to shake off host noise. */
constexpr int repetitions = 5;

/** One driver half of a cell: its own platform, generator and core. */
struct Half
{
    std::unique_ptr<MemoryPlatform> platform;
    std::unique_ptr<WorkloadGenerator> gen;
    std::unique_ptr<CoreModel> core;

    Half(const std::string& platform_name, const std::string& workload,
         const BenchGeometry& geom, bool inline_on)
    {
        platform = makePlatform(platform_name, geom);
        gen = makeWorkload(workload, geom.datasetBytesFor(workload));
        CoreConfig cc;
        cc.inlineFastPath = inline_on;
        core = std::make_unique<CoreModel>(*platform, cc);
    }

    /** Time one measured run; returns its simulated result. */
    RunResult
    measure(std::uint64_t budget, double& ns_per_access,
            double& allocs_per_access, double& events_per_access)
    {
        // Thread-local counting: a process-global counter would charge
        // this cell with whatever any concurrently running thread
        // allocates, quietly corrupting allocs_per_access.
        std::uint64_t allocs0 = threadAllocCallsNow();
        std::uint64_t fired0 = platform->eventQueue().fired();
        auto t0 = std::chrono::steady_clock::now();
        RunResult r = core->run(*gen, budget);
        auto t1 = std::chrono::steady_clock::now();
        std::uint64_t allocs1 = threadAllocCallsNow();
        std::uint64_t fired1 = platform->eventQueue().fired();

        double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        std::uint64_t accesses =
            r.platformAccesses ? r.platformAccesses : 1;
        ns_per_access = ns / static_cast<double>(accesses);
        allocs_per_access = static_cast<double>(allocs1 - allocs0) /
                            static_cast<double>(accesses);
        events_per_access = static_cast<double>(fired1 - fired0) /
                            static_cast<double>(accesses);
        return r;
    }
};

/**
 * Instructions per measured run of @p workload. SQLite update spends
 * 3000 instructions of compute per dataset access, so at the micro
 * cells' budget it reaches only ~370 platform accesses; 300x gives it
 * ~125k, enough for a stable host-time figure.
 */
std::uint64_t
budgetFor(const std::string& workload, const BenchGeometry& geom)
{
    return geom.instructionBudget * (workload == "update" ? 300 : 1);
}

CellReport
runCell(const std::string& platform_name, const std::string& workload,
        const BenchGeometry& geom, BenchReport& report,
        const std::string& name)
{
    CellReport rep;
    std::uint64_t budget = budgetFor(workload, geom);

    Half off(platform_name, workload, geom, false);
    Half on(platform_name, workload, geom, true);
    off.core->run(*off.gen, budget / 2); // warm devices
    on.core->run(*on.gen, budget / 2);

    // Interleave the repetitions so host-load drift hits both paths
    // alike, and keep the best rep of each (min-of-N noise rejection).
    rep.simOutputsIdentical = true;
    for (int i = 0; i < repetitions; ++i) {
        double off_ns = 0, on_ns = 0, off_allocs = 0, on_allocs = 0;
        double off_events = 0;
        RunResult r_off =
            off.measure(budget, off_ns, off_allocs, off_events);
        RunResult r_on =
            on.measure(budget, on_ns, on_allocs, rep.inlineEventsPerAccess);
        if (i == 0 || off_ns < rep.eventNsPerAccess)
            rep.eventNsPerAccess = off_ns;
        if (i == 0 || on_ns < rep.inlineNsPerAccess)
            rep.inlineNsPerAccess = on_ns;
        if (i == 0 || on_allocs < rep.allocsPerAccess)
            rep.allocsPerAccess = on_allocs;
        rep.platformAccesses = r_on.platformAccesses;
        rep.simOutputsIdentical &= report.same(
            r_on, r_off, name,
            "fast path on vs off, repetition " + std::to_string(i));
    }

    rep.speedup = rep.inlineNsPerAccess > 0
                      ? rep.eventNsPerAccess / rep.inlineNsPerAccess
                      : 0;
    return rep;
}

} // namespace

int
main()
{
    banner("macro", "end-to-end host cost per simulated access, "
                    "fast path off vs on");
    BenchGeometry geom = BenchGeometry::scaled();
    // A longer leash than the figure sweeps: per-access host timing
    // needs enough iterations to be stable.
    geom.instructionBudget *= 4;

    // Hit-dominated cells in both HAMS modes (where the fast path
    // matters) plus miss-heavy cells (where it must cost nothing).
    const std::vector<std::pair<std::string, std::string>> cells = {
        {"mmap", "rndRd"},    {"mmap", "rndWr"},   {"mmap", "update"},
        {"oracle", "rndRd"},  {"optane-P", "rndWr"},
        {"hams-TE", "rndRd"}, {"hams-TE", "rndWr"}, {"hams-TE", "update"},
        {"hams-TP", "rndRd"},
    };

    std::printf("\n%-10s %-8s %12s %12s %9s %11s %9s %6s\n", "platform",
                "workload", "event ns/ac", "inline ns/ac", "speedup",
                "allocs/ac", "events/ac", "same?");

    BenchReport report;
    for (const auto& [p, w] : cells) {
        std::string name = "macro/" + p + "/" + w;
        CellReport rep = runCell(p, w, geom, report, name);
        std::printf("%-10s %-8s %12.1f %12.1f %8.2fx %11.6f %9.4f %6s\n",
                    p.c_str(), w.c_str(), rep.eventNsPerAccess,
                    rep.inlineNsPerAccess, rep.speedup,
                    rep.allocsPerAccess, rep.inlineEventsPerAccess,
                    rep.simOutputsIdentical ? "yes" : "NO");
        report.row(name, rep);
        if (w == "rndRd" && (p == "hams-TE" || p == "hams-TP"))
            report.check(rep.inlineEventsPerAccess < 0.05, name,
                         "inline hit path engaged (< 0.05 events per "
                         "access)");
    }

    std::printf("\n");
    return report.finish(jsonOutPath("BENCH_macro.json"));
}
