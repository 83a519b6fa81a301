/**
 * @file
 * End-to-end macro benchmark: host cost of one simulated access through
 * the full driver stack (WorkloadGenerator -> CoreModel -> caches ->
 * MemoryPlatform -> EventQueue), the number the figure sweeps actually
 * pay — micro_hotpaths covers the per-component costs.
 *
 * Each cell runs twice on fresh, identical platforms: once with the
 * immediate-completion fast path disabled (every access pays the
 * EventQueue schedule+fire round trip) and once with it enabled. The
 * harness verifies the simulated-time outputs are bit-identical (it
 * exits non-zero otherwise, so CI smoke runs double as a correctness
 * check) and reports host-ns per platform access, allocs per access,
 * the speedup, and the events fired per access on the inline half — a
 * deterministic count showing how often the fast path engaged.
 *
 * Results land in BENCH_macro.json (HAMS_BENCH_JSON overrides;
 * HAMS_BENCH_SCALE enlarges the runs).
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace {

using namespace hams;
using namespace hams::bench;

struct CellReport
{
    std::string platform;
    std::string workload;
    double eventNsPerAccess = 0;  //!< fast path off
    double inlineNsPerAccess = 0; //!< fast path on
    double speedup = 0;
    double allocsPerAccess = 0;   //!< fast path on
    double inlineEventsPerAccess = 0; //!< fast path on; deterministic
    std::uint64_t accesses = 0;
    bool identical = false;
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

CellReport
runCell(const std::string& platform_name, const std::string& workload,
        const BenchGeometry& geom)
{
    CellReport rep;
    rep.platform = platform_name;
    rep.workload = workload;

    Half off(platform_name, workload, geom, false);
    Half on(platform_name, workload, geom, true);
    off.core->run(*off.gen, geom.instructionBudget / 2); // warm devices
    on.core->run(*on.gen, geom.instructionBudget / 2);

    // Interleave the repetitions so host-load drift hits both paths
    // alike, and keep the best rep of each (min-of-N noise rejection).
    rep.identical = true;
    for (int i = 0; i < repetitions; ++i) {
        double off_ns = 0, on_ns = 0, off_allocs = 0, on_allocs = 0;
        double off_events = 0;
        RunResult r_off = off.measure(geom.instructionBudget, off_ns,
                                      off_allocs, off_events);
        RunResult r_on = on.measure(geom.instructionBudget, on_ns,
                                    on_allocs, rep.inlineEventsPerAccess);
        if (i == 0 || off_ns < rep.eventNsPerAccess)
            rep.eventNsPerAccess = off_ns;
        if (i == 0 || on_ns < rep.inlineNsPerAccess)
            rep.inlineNsPerAccess = on_ns;
        if (i == 0 || on_allocs < rep.allocsPerAccess)
            rep.allocsPerAccess = on_allocs;
        rep.accesses = r_on.platformAccesses;
        rep.identical = rep.identical && r_on == r_off;
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

    std::vector<CellReport> reports;
    bool all_identical = true;
    for (const auto& [p, w] : cells) {
        CellReport rep = runCell(p, w, geom);
        all_identical = all_identical && rep.identical;
        std::printf("%-10s %-8s %12.1f %12.1f %8.2fx %11.6f %9.4f %6s\n",
                    rep.platform.c_str(), rep.workload.c_str(),
                    rep.eventNsPerAccess, rep.inlineNsPerAccess,
                    rep.speedup, rep.allocsPerAccess,
                    rep.inlineEventsPerAccess,
                    rep.identical ? "yes" : "NO");
        reports.push_back(rep);
    }

    std::string out = jsonOutPath("BENCH_macro.json");
    if (std::FILE* f = std::fopen(out.c_str(), "w")) {
        std::fprintf(
            f,
            "{\n  \"note\": \"event path = this build with the inline "
            "fast path disabled; it already includes the shared model "
            "optimisations, so 'speedup' understates the gain over the "
            "pre-PR driver (see ROADMAP.md end-to-end table)\",\n");
        std::fprintf(f, "  \"benchmarks\": [\n");
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const CellReport& r = reports[i];
            std::fprintf(
                f,
                "    {\"name\": \"macro/%s/%s\", "
                "\"event_ns_per_access\": %.1f, "
                "\"inline_ns_per_access\": %.1f, \"speedup\": %.2f, "
                "\"allocs_per_access\": %.6f, "
                "\"inline_events_per_access\": %.6f, "
                "\"platform_accesses\": %llu, "
                "\"sim_outputs_identical\": %s}%s\n",
                r.platform.c_str(), r.workload.c_str(),
                r.eventNsPerAccess, r.inlineNsPerAccess, r.speedup,
                r.allocsPerAccess, r.inlineEventsPerAccess,
                static_cast<unsigned long long>(r.accesses),
                r.identical ? "true" : "false",
                i + 1 < reports.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("\nResults written to %s\n", out.c_str());
    } else {
        std::fprintf(stderr, "could not write %s\n", out.c_str());
        return 1;
    }

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: simulated-time outputs diverged "
                             "between fast path on and off\n");
        return 1;
    }
    return 0;
}
