/**
 * @file
 * Recovery-time (RTO) sweep: power cuts at seeded event boundaries of
 * a loaded system, then Fig. 15 recovery — NVDIMM restore, journal
 * scan, in-flight replay — timed end to end.
 *
 * {hams-LE, hams-TE} × fill {25%, 50%, 70%} × GC debt {idle, churn}:
 * each cell prefills the backing ULL-Flash to the fill level, runs
 * dirty-miss write traffic over the MoS cache (the churn debt level
 * keeps writing until background GC is in flight and the free pool is
 * depleted), leaves reads in flight, and cuts power mid-simulation
 * with the seeded FaultInjector. Reported per cell:
 *
 *  - shutdown side: frames the supercap destaged and the drain tick
 *    (pure integer arithmetic — identical across compilers), loose
 *    topology only since advanced HAMS removes the device DRAM;
 *  - recovery side: full RTO in simulated ms, split into the NVDIMM
 *    restore floor and the journal-replay remainder, plus the online
 *    columns — time-to-first-service (a degraded read served while
 *    restore and replay are still running) and the number of journal
 *    entries the per-entry replay chain re-issued;
 *  - the GC state the cut interrupted (free-block level, live GC
 *    machines) and the number of acknowledged writes verified intact
 *    after recovery — a failed readback aborts the sweep.
 *
 * Gates, checked in the binary (harness.hh; a failure exits 1):
 *  - the whole sweep runs twice and every number of the second pass
 *    is bit-identical to the first — the determinism contract the
 *    crash fuzzer's replay depends on; the verdict lands in the JSON
 *    as "sim_outputs_identical";
 *  - every cell verifies at least one acknowledged write, and its
 *    time-to-first-service beats its full-restore RTO;
 *  - each churn cell pays for its dirty state: RTO above the matching
 *    idle cell's, and more replayed journal entries.
 *
 * Deterministic: fixed seeds, one fresh platform per cell; results in
 * BENCH_recovery.json (HAMS_BENCH_JSON overrides, HAMS_BENCH_SCALE
 * enlarges the traffic phase).
 */

#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/hams_system.hh"
#include "ftl/page_ftl.hh"
#include "harness.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/ssd.hh"

namespace {

using namespace hams;
using namespace hams::bench;

struct RecoveryCell
{
    std::string platform; //!< hams-LE | hams-TE
    double fill;          //!< prefilled fraction of logical capacity
    bool churn = false;   //!< drive GC debt before the cut
};

/** One cell's result and BENCH_recovery.json row. The _ms/_us
 *  columns are the tick columns in readable units. */
#define HAMS_RECOVERY_RESULT_FIELDS(X)                                     \
    /* verified intact after recovery */                                   \
    X(keep, std::uint64_t, ackedWritesVerified)                            \
    /* accesses pending at the cut */                                      \
    X(keep, std::uint64_t, inFlightAtCut)                                  \
    /* supercap-destaged dirty frames */                                   \
    X(keep, std::uint64_t, drainFrames)                                    \
    /* integer-path drain cost */                                          \
    X(keep, Tick, drainTicks)                                              \
    X(keep, double, drainUs)                                               \
    /* when the power failed */                                            \
    X(keep, Tick, cutTick)                                                 \
    /* cut -> recovery complete */                                         \
    X(keep, Tick, rtoTicks)                                                \
    X(keep, double, rtoMs)                                                 \
    /* cut -> first degraded service */                                    \
    X(keep, Tick, ttfsTicks)                                               \
    X(keep, double, timeToFirstServiceMs)                                  \
    /* journal entries re-issued */                                        \
    X(keep, std::uint64_t, replayEntries)                                  \
    /* restore floor inside the RTO, and the replay remainder */           \
    X(keep, Tick, nvdimmRestoreTicks)                                      \
    X(keep, double, nvdimmRestoreMs)                                       \
    X(keep, double, replayMs)                                              \
    X(keep, bool, gcActiveAtCut)                                           \
    /* free-block level the cut saw */                                     \
    X(keep, double, avgFreeAtCut)                                          \
    /* GC debt paid before the cut */                                      \
    X(keep, std::uint64_t, gcRelocations)

struct RecoveryResult
{
    HAMS_FIELDS(RecoveryResult, HAMS_RECOVERY_RESULT_FIELDS)
};

#define HAMS_RECOVERY_SUMMARY_FIELDS(X)                                    \
    /* every number of the rerun pass equals the first pass */             \
    X(keep, bool, simOutputsIdentical)

struct RecoverySummary
{
    HAMS_FIELDS(RecoverySummary, HAMS_RECOVERY_SUMMARY_FIELDS)
};

HamsSystemConfig
cellConfig(const RecoveryCell& cell)
{
    HamsSystemConfig c;
    c.mode = HamsMode::Extend;
    c.topology = cell.platform == "hams-TE" ? HamsTopology::Tight
                                            : HamsTopology::Loose;
    c.nvdimm.capacity = 128ull << 20;
    // Bench-only: a fast on-DIMM restore stream (the DDR4-1600 channel
    // rate, the upper end of what the restore path can move) pulls the
    // restore floor down to ~10 ms so the per-entry replay tail of the
    // churn cells is visible above it instead of hiding under a
    // multi-second floor.
    c.nvdimm.backupBandwidth = 12.8e9;
    c.ssdRawBytes = 1ull << 30;
    c.pinnedBytes = 32ull << 20;
    c.queueEntries = 256;
    return c;
}

RecoveryResult
runCell(const RecoveryCell& cell, std::uint64_t traffic)
{
    setQuiet(true);
    RecoveryResult res;
    HamsSystem sys(cellConfig(cell));
    EventQueue& eq = sys.eventQueue();
    Ssd& ssd = sys.ullFlash();
    PageFtl& ftl = ssd.pageFtl();

    // The device starts loaded to the fill fraction but idle.
    prefill(ssd, static_cast<std::uint64_t>(
                     static_cast<double>(ftl.logicalPages()) * cell.fill));

    // Acknowledged dirty-miss traffic over a window 3x the MoS cache:
    // evictions reach the flash, and under the churn debt level the
    // free pool depletes until background GC owes real work.
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    std::uint64_t window = std::min<std::uint64_t>(
        3 * (128ull << 20), sys.capacity());
    Rng rng(41 + static_cast<std::uint64_t>(cell.fill * 100) +
            (cell.churn ? 7 : 0));
    std::map<Addr, std::uint64_t> acked;
    std::uint64_t writes = cell.churn ? traffic * 4 : traffic;
    for (std::uint64_t i = 0; i < writes; ++i) {
        Addr addr = (cache + rng.below(window)) & ~Addr(7);
        std::uint64_t val = rng.next();
        sys.write(addr, &val, sizeof(val));
        acked[addr] = val;
    }

    // Leave a batch of miss reads in flight and cut at a seeded event
    // boundary. The batch size is the journal dirty-state knob: every
    // miss journals a fill (plus an eviction when the victim is dirty),
    // so the churn cells cut with an order of magnitude more pending
    // entries — that is what the per-entry replay charges for.
    std::uint32_t page = sys.config().mosPageBytes;
    int batch = cell.churn ? 120 : 8;
    for (int a = 0; a < batch; ++a)
        sys.access(MemAccess{cache + (rng.below(window) & ~Addr(page - 1)),
                             64, MemOp::Read},
                   eq.now(), nullptr);
    FaultInjector inj(eq, 1009);
    FaultPlan plan;
    plan.policy = CutPolicy::RandomEvent;
    plan.param = 16;
    inj.arm(plan);
    inj.pumpToCut();
    res.inFlightAtCut = eq.pending();
    res.gcActiveAtCut = ftl.gcActive();
    double free_sum = 0;
    for (std::uint64_t pu = 0; pu < ftl.parallelUnits(); ++pu)
        free_sum += ftl.freeBlocksOf(pu);
    res.avgFreeAtCut =
        free_sum / static_cast<double>(ftl.parallelUnits());
    res.gcRelocations = ftl.stats().gcRelocations;
    std::uint64_t dirty =
        ssd.buffer() ? ssd.buffer()->dirtyCount() : 0;

    res.cutTick = eq.now();
    res.drainTicks = sys.powerFail();
    res.drainFrames = dirty;

    // Pick the time-to-first-service probe: an acked address that is a
    // cache hit at the cut and whose frame no journalled command will
    // re-fill (those frames are busy until their replay entry lands —
    // a fair probe measures the degraded hit path, not the replay
    // tail). Deterministic: acked is an ordered map.
    const MosTagArray& tags = sys.controller().tagArray();
    std::vector<bool> replay_frame(tags.sets(), false);
    for (const NvmeCommand& cmd : sys.nvmeEngine().scanJournal())
        if (cmd.prp1 < cache)
            replay_frame[cmd.prp1 / page] = true;
    Addr probe = ~Addr(0);
    for (const auto& [addr, val] : acked) {
        if (tags.hit(addr) && !replay_frame[tags.indexOf(addr)]) {
            probe = addr;
            break;
        }
    }
    if (probe == ~Addr(0))
        throw std::runtime_error("no cached probe address for the "
                                 "time-to-first-service column in " +
                                 cell.platform);

    // Online recovery: service resumes (degraded) immediately; the
    // probe read stalls only until its frame's priority restore lands.
    bool rec_done = false;
    Tick rec_tick = 0;
    sys.beginRecovery([&](Tick t) {
        rec_done = true;
        rec_tick = t;
    });
    std::uint64_t got = 0;
    Tick first_service = sys.read(probe, &got, sizeof(got));
    if (got != acked[probe])
        throw std::runtime_error("degraded-mode probe read returned "
                                 "stale data in " + cell.platform);
    res.ttfsTicks = first_service - res.cutTick;
    while (!rec_done && eq.step()) {
    }
    if (!rec_done)
        throw std::runtime_error("online recovery never completed in " +
                                 cell.platform);
    res.rtoTicks = rec_tick - res.cutTick;
    res.replayEntries = sys.stats().replayedCommands;
    res.nvdimmRestoreTicks = sys.nvdimmModule().fullRestoreTicks();
    res.drainUs = static_cast<double>(res.drainTicks) * 1e-6;
    res.rtoMs = static_cast<double>(res.rtoTicks) * 1e-9;
    res.timeToFirstServiceMs = static_cast<double>(res.ttfsTicks) * 1e-9;
    res.nvdimmRestoreMs = static_cast<double>(res.nvdimmRestoreTicks) * 1e-9;
    res.replayMs = res.rtoMs - res.nvdimmRestoreMs;

    // Every acknowledged write must read back intact.
    for (const auto& [addr, val] : acked) {
        std::uint64_t got = 0;
        sys.read(addr, &got, sizeof(got));
        if (got != val)
            throw std::runtime_error(
                "acked write lost across recovery in " + cell.platform);
        ++res.ackedWritesVerified;
    }
    return res;
}

} // namespace

int
main()
{
    banner("recovery",
           "crash-recovery RTO sweep (seeded arbitrary-tick cuts, "
           "verified recovery, supercap drain on the integer path)");
    std::uint64_t traffic = 1500 * scale();

    const std::vector<std::string> platforms = {"hams-LE", "hams-TE"};
    const std::vector<double> fills = {0.25, 0.50, 0.70};

    std::vector<RecoveryCell> cells;
    std::vector<std::string> names;
    for (const auto& p : platforms)
        for (double f : fills)
            for (bool churn : {false, true}) {
                cells.push_back({p, f, churn});
                names.push_back("recovery/" + p + "/fill" +
                                std::to_string(static_cast<int>(f * 100)) +
                                (churn ? "/churn" : "/idle"));
            }

    // The sweep runs twice; pass 2 must be bit-identical to pass 1.
    std::vector<RecoveryResult> results(cells.size());
    std::vector<RecoveryResult> rerun(cells.size());
    try {
        runCells(
            cells.size(), [&](std::size_t i) { return names[i]; },
            [&](std::size_t i) {
                results[i] = runCell(cells[i], traffic);
                rerun[i] = runCell(cells[i], traffic);
            });
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::printf("\n%-8s %5s %6s %9s %9s %8s %9s %9s %8s %7s %8s %6s\n",
                "platform", "fill", "debt", "acked", "inflight",
                "drainFr", "ttfs(ms)", "rto(ms)", "restore", "replay",
                "reloc", "free");
    BenchReport report;
    bool identical = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RecoveryCell& c = cells[i];
        const RecoveryResult& r = results[i];
        std::printf("%-8s %5.2f %6s %9llu %9llu %8llu %9.2f %9.1f "
                    "%7.1f %7llu %8llu %6.1f\n",
                    c.platform.c_str(), c.fill,
                    c.churn ? "churn" : "idle",
                    static_cast<unsigned long long>(r.ackedWritesVerified),
                    static_cast<unsigned long long>(r.inFlightAtCut),
                    static_cast<unsigned long long>(r.drainFrames),
                    r.timeToFirstServiceMs, r.rtoMs, r.nvdimmRestoreMs,
                    static_cast<unsigned long long>(r.replayEntries),
                    static_cast<unsigned long long>(r.gcRelocations),
                    r.avgFreeAtCut);
        report.row(names[i], r);

        identical &= report.same(r, rerun[i], names[i], "rerun identical");
        report.check(r.ackedWritesVerified > 0, names[i],
                     "acknowledged writes verified");
        report.check(r.ttfsTicks < r.rtoTicks, names[i],
                     "time-to-first-service beats the full-restore RTO");
        // Cells alternate idle, churn within a (platform, fill) pair.
        if (c.churn) {
            const RecoveryResult& idle = results[i - 1];
            report.check(r.rtoTicks > idle.rtoTicks, names[i],
                         "churn RTO above the idle restore floor");
            report.check(r.replayEntries > idle.replayEntries, names[i],
                         "replay entries scale with churn");
        }
    }
    report.summary(RecoverySummary{identical});

    std::printf("\nsim outputs identical across reruns: %s\n",
                identical ? "yes" : "NO");
    return report.finish(jsonOutPath("BENCH_recovery.json"));
}
