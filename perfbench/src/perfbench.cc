/**
 * @file
 * The repository benchmark driver: runs one named workload for one seed
 * through the public API (makeCoreWorkload -> CoreModel/SmpModel ->
 * MemoryPlatform) on a single host thread and prints one JSON object
 * with its end-to-end and per-layer metrics, correctness checks and
 * context. perfbench/run.py builds this program and turns that object
 * into the benchmark's result line; see perfbench/README.md.
 *
 * Every invocation performs these runs of the same seed, each on a
 * freshly built platform with an identical set-up (construction,
 * prefill, warm-up):
 *  - plainReps plain runs, whose measured phases give the host and
 *    simulated end-to-end metrics;
 *  - the traced run (span tracer and workload decorators on), for the
 *    full measured phase with --traced, else for its first
 *    prefixSlices slices;
 *  - the prefix run: the first prefixSlices slices with
 *    CoreConfig::inlineFastPath off.
 * All must agree on the simulated-output fingerprint at the prefix
 * checkpoint (and the plain and full traced runs again at the end),
 * every issued access must complete, and the workload's traffic checks
 * must hold.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/mmap_platform.hh"
#include "core/hams_system.hh"
#include "cpu/core_model.hh"
#include "cpu/smp_model.hh"
#include "probe.hh"
#include "sim/alloc_hook.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

namespace {

using namespace hams;
using namespace perfbench;

/** Platform geometry: the figure harnesses' scaled-down Table II/III. */
constexpr std::uint64_t hostMemBytes = 64ull << 20;
constexpr std::uint64_t ssdRawBytes = 1ull << 30;
constexpr std::uint32_t mosPageBytes = 128 * 1024;
constexpr std::uint64_t pinnedBytes = 32ull << 20;

/** One benchmark workload. */
struct WorkloadDef
{
    const char* name;
    const char* platform;  //!< hams-TP | hams-TE | mmap
    const char* generator; //!< Table III workload name
    std::uint32_t cores;
    double datasetRatio;  //!< dataset bytes / host memory (Table III)
    double prefillFrac;   //!< SSD logical pages laid out before warm-up
    bool backgroundGc;
    std::uint64_t sliceInstr;   //!< instructions per core per slice
    std::uint64_t warmupSlices; //!< minimum warm-up, in slices
    /** Keep warming up until the FTL has erased this many blocks. */
    std::uint64_t warmupErases;
    /** Platform accesses measured per requested second. */
    double accessesPerSecond;
};

const WorkloadDef workloads[] = {
    // NVDIMM hit path: persist mode declines tryAccess, so every hit
    // pays an event round trip; the device side is nearly idle.
    {"tp_read_hits", "hams-TP", "rndRd", 1, 2.0, 0.0, false, 250000, 25, 0,
     7.0e6},
    // Miss/evict path under GC: 4 cores, ULL-Flash 70% full, background
    // GC in steady state.
    {"te_update_gc4", "hams-TE", "update", 4, 11.0 / 8.0, 0.70, true,
     8000000, 16, 2000, 0.75e6},
    // The software mmap stack: page cache, faults, writeback, msync.
    {"mmap_update", "mmap", "update", 1, 11.0 / 8.0, 0.0, false, 130000000,
     16, 0, 3.0e6},
};

/** Slices of the prefix checkpoint (and of the short traced run). */
constexpr std::uint64_t prefixSlices = 12;
/** Minimum measured slices, so the p90 slice is well defined. */
constexpr std::uint64_t minSlices = 120;
/**
 * Repetitions of the plain run. A slice's host time is the median over
 * repetitions of the identical simulated work, each scaled to the
 * reference host speed (SpeedReference): slowdowns from other tenants
 * come in bursts that rarely hit most repetitions of one slice, and
 * the median, unlike the minimum, does not pick the repetition whose
 * speed sample happened to read high.
 */
constexpr int plainReps = 5;

std::uint64_t
datasetBytes(const WorkloadDef& d)
{
    auto bytes = static_cast<std::uint64_t>(
        static_cast<double>(hostMemBytes) * d.datasetRatio);
    return (bytes + (1 << 20) - 1) >> 20 << 20; // whole MiB
}

std::unique_ptr<MemoryPlatform>
buildPlatform(const WorkloadDef& d)
{
    FtlConfig ftl;
    ftl.backgroundGc = d.backgroundGc;
    if (std::strcmp(d.platform, "mmap") == 0) {
        MmapConfig c;
        c.dramBytes = hostMemBytes;
        c.pageCacheBytes = hostMemBytes * 3 / 4;
        c.ssdRawBytes = ssdRawBytes;
        c.ftl = ftl;
        return std::make_unique<MmapPlatform>(c);
    }
    HamsSystemConfig c = std::strcmp(d.platform, "hams-TP") == 0
                             ? HamsSystemConfig::tightPersist()
                             : HamsSystemConfig::tightExtend();
    // The NVDIMM holds the MoS cache plus the pinned region, so the
    // cache matches the other platforms' host memory.
    c.pinnedBytes = pinnedBytes;
    c.nvdimm.capacity = hostMemBytes + pinnedBytes;
    c.ssdRawBytes = ssdRawBytes;
    c.mosPageBytes = mosPageBytes;
    c.queueEntries = 1024;
    c.functionalData = false;
    c.ftl = ftl;
    return std::make_unique<HamsSystem>(c);
}

/** Every simulated counter the fingerprint and the metrics read. */
struct Snapshot
{
    HamsStats hams{};
    NvmeEngineStats engine{};
    FtlStats ftl{};
    FlashActivity flash{};
    std::uint64_t mmapFaults = 0;
    std::uint64_t mmapHits = 0;
    std::uint64_t mmapWritebacks = 0;
    std::uint64_t events = 0;
    ProbeCounts probe{};
    std::uint64_t allocs = 0;
};

/** Counters of consecutive slices: sums, simTime included. */
void
addSlice(RunResult& acc, const RunResult& r)
{
    Tick t = acc.simTime + r.simTime;
    mergeRunResult(acc, r);
    acc.simTime = t;
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    // splitmix64 finaliser over the running hash.
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
mixBd(std::uint64_t h, const LatencyBreakdown& b)
{
    for (Tick t : {b.os, b.nvdimm, b.dma, b.ssd, b.cpu})
        h = mix(h, t);
    return h;
}

/**
 * Fingerprint of the simulated outputs at a slice boundary. Only
 * quantities that do not depend on the host-side path (inline or event
 * completion, tracing on or off) go in: no event count, no inline
 * count, no completion count of still-pending posted writebacks.
 */
std::uint64_t
fingerprint(const RunResult& r, const Snapshot& s)
{
    std::uint64_t h = 0x243f6a8885a308d3ull;
    for (std::uint64_t v :
         {r.simTime, r.instructions, r.memInstructions, r.platformAccesses,
          r.l1Hits, r.l2Hits, r.opsCompleted, r.pagesTouched, r.activeTime,
          r.stallTime, r.flushTime})
        h = mix(h, v);
    h = mixBd(h, r.stallBreakdown);
    const HamsStats& x = s.hams;
    for (std::uint64_t v :
         {x.accesses, x.hits, x.misses, x.fills, x.cleanVictims,
          x.dirtyEvictions, x.prpClones, x.waitQueued,
          x.redundantEvictionsAvoided, x.persistGateWaits,
          x.waiterPeakDepth, x.gateQueuePeakDepth})
        h = mix(h, v);
    h = mixBd(h, x.memoryDelay);
    for (std::uint64_t v : {s.engine.submitted, s.engine.journalSets})
        h = mix(h, v);
    const FtlStats& f = s.ftl;
    for (std::uint64_t v :
         {f.hostReads, f.hostWrites, f.gcRuns, f.gcRelocations, f.erases,
          f.gcBatches, f.gcWriteStalls, f.gcStallTicks,
          f.gcForegroundOverlap})
        h = mix(h, v);
    for (std::uint64_t v :
         {s.flash.reads, s.flash.programs, s.flash.erases,
          s.flash.gcPrograms, s.flash.suspensions})
        h = mix(h, v);
    for (std::uint64_t v : {s.mmapFaults, s.mmapHits, s.mmapWritebacks})
        h = mix(h, v);
    return mix(h, s.probe.inlined + s.probe.issued);
}

/**
 * Host cost of one set-up, in seconds at the reference host speed
 * (SpeedReference), and as wall time.
 */
struct SetupTimes
{
    double construct = 0;
    double prefill = 0;
    double warmup = 0;
    double wall = 0;
    double total() const { return construct + prefill + warmup; }
};

/** How a run's measured phase drives the platform. */
enum class Mode { Plain, Traced, InlineOff };

/**
 * One platform, its generators and its driver configuration, set up
 * and then measured slice by slice.
 */
class Run
{
  public:
    Run(const WorkloadDef& d, std::uint64_t seed) : def(d), seed(seed) {}

    /** Construct, prefill and warm up; returns the host cost. */
    SetupTimes
    setup(SpeedReference& speed)
    {
        SetupTimes t;
        // Each phase (and each warm-up slice) is timed right after a
        // speed reference sample and scaled by it.
        auto timed = [&](double& into, auto&& phase) {
            double f = speed.factor();
            std::uint64_t t0 = hostNs();
            phase();
            double secs = static_cast<double>(hostNs() - t0) * 1e-9;
            t.wall += secs;
            into += secs / f;
        };
        timed(t.construct, [&] { construct(); });
        timed(t.prefill, [&] {
            if (def.prefillFrac > 0)
                prefill();
        });

        // Warm-up fills the NVDIMM / page cache and, where asked, runs
        // the FTL into GC steady state before anything is measured.
        CoreConfig cc;
        for (std::uint64_t i = 0;
             i < def.warmupSlices || ssd->ftlStats().erases < def.warmupErases;
             ++i) {
            if (i > 200 * def.warmupSlices)
                throw std::runtime_error("warm-up never reached GC");
            timed(t.warmup, [&] { runSlice(cc, raw); });
        }
        return t;
    }

    /** Start the measured phase in @p mode. */
    void
    beginMeasure(Mode m, Tracer* tracer, std::size_t record_cap)
    {
        mode = m;
        driverCfg = CoreConfig{};
        driverCfg.inlineFastPath = m != Mode::InlineOff;
        measured = RunResult{};
        probe->setTracer(tracer);
        this->tracer = tracer;
        if (m == Mode::Traced) {
            for (std::uint32_t c = 0; c < def.cores; ++c) {
                traced.push_back(std::make_unique<TracedWorkload>(
                    *raw[c], *tracer, probe->accessSeq(),
                    c == 0 ? record_cap : 0));
                tracedRaw.push_back(traced.back().get());
            }
        }
        base = snapshot();
        probe->resetLatency();
    }

    /** One measured slice; returns its host time in ns. */
    std::uint64_t
    slice(RunResult& out)
    {
        auto& gs = mode == Mode::Traced ? tracedRaw : raw;
        std::uint64_t t0 = hostNs();
        if (tracer)
            tracer->beginRun();
        out = runSlice(driverCfg, gs);
        if (tracer)
            tracer->endRun();
        std::uint64_t ns = hostNs() - t0;
        addSlice(measured, out);
        ++slices;
        return ns;
    }

    /**
     * Pump events until every wrapped access has called back (bounded).
     * Only after the last measured slice: it fires events earlier than
     * the driver would, which must not feed into anything measured.
     */
    bool
    drain()
    {
        probe->setTracer(nullptr);
        DomainConductor& eq = platform->conductor();
        for (std::uint64_t steps = 0; steps < 50'000'000; ++steps) {
            const ProbeCounts& p = probe->counts();
            if (p.completed == p.issued && p.flushesDone == p.flushes)
                return true;
            if (!eq.step())
                return false;
        }
        return false;
    }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        if (hams) {
            s.hams = hams->stats();
            s.engine = hams->engineStats();
        }
        if (mmap) {
            s.mmapFaults = mmap->pageFaults();
            s.mmapHits = mmap->pageCacheHits();
            s.mmapWritebacks = mmap->writebacks();
        }
        s.ftl = ssd->ftlStats();
        s.flash = ssd->flashActivity();
        s.events = platform->conductor().fired();
        s.probe = probe->counts();
        s.allocs = alloc_hook::threadNewCalls();
        return s;
    }

    /** Fingerprint: measured-phase RunResult, absolute device counters. */
    std::uint64_t fp() const { return fingerprint(measured, snapshot()); }

    /**
     * After drain(), every measured access has its latency recorded
     * whichever path completed it, so the histogram joins the print.
     */
    std::uint64_t
    drainedFp() const
    {
        return mix(fp(), probe->latency().digest());
    }

    const RunResult& result() const { return measured; }
    const Snapshot& baseline() const { return base; }
    std::uint64_t sliceCount() const { return slices; }
    const ProbedPlatform& probed() const { return *probe; }
    const TracedWorkload* recorder() const
    {
        return traced.empty() ? nullptr : traced[0].get();
    }

  private:
    void
    construct()
    {
        platform = buildPlatform(def);
        probe = std::make_unique<ProbedPlatform>(*platform);
        hams = dynamic_cast<HamsSystem*>(platform.get());
        mmap = dynamic_cast<MmapPlatform*>(platform.get());
        ssd = hams ? &hams->ullFlash() : &mmap->backingSsd();
        std::uint64_t ds = datasetBytes(def);
        for (std::uint32_t c = 0; c < def.cores; ++c) {
            gens.push_back(
                makeCoreWorkload(def.generator, ds, c, def.cores, seed));
            raw.push_back(gens.back().get());
        }
    }

    RunResult
    runSlice(const CoreConfig& cc, std::vector<WorkloadGenerator*>& gs)
    {
        if (def.cores == 1) {
            CoreModel core(*probe, cc);
            return core.run(*gs[0], def.sliceInstr);
        }
        SmpConfig sc;
        sc.core = cc;
        SmpModel smp(*probe, sc);
        return smp.run(gs, def.sliceInstr).combined;
    }

    /** Lay data out on prefillFrac of the logical space, device idle. */
    void
    prefill()
    {
        PageFtl& ftl = ssd->pageFtl();
        auto pages = static_cast<std::uint64_t>(
            static_cast<double>(ftl.logicalPages()) * def.prefillFrac);
        std::uint32_t page_size = ssd->config().geom.pageSize;
        Tick t = 0;
        for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
            t = ftl.writePage(lpn, page_size, t);
        ssd->flashLayer().reset();
        ftl.onFlashReset();
    }

    const WorkloadDef& def;
    std::uint64_t seed;
    std::unique_ptr<MemoryPlatform> platform;
    std::unique_ptr<ProbedPlatform> probe;
    HamsSystem* hams = nullptr;
    MmapPlatform* mmap = nullptr;
    Ssd* ssd = nullptr;
    std::vector<std::unique_ptr<WorkloadGenerator>> gens;
    std::vector<WorkloadGenerator*> raw;
    std::vector<std::unique_ptr<TracedWorkload>> traced;
    std::vector<WorkloadGenerator*> tracedRaw;

    Mode mode = Mode::Plain;
    CoreConfig driverCfg;
    Tracer* tracer = nullptr;
    RunResult measured;
    Snapshot base;
    std::uint64_t slices = 0;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) +
                                         0.999999);
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** A metric: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetrics(std::FILE* f, const char* key, const std::vector<Metric>& ms)
{
    std::fprintf(f, "\"%s\": {", key);
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                     ms[i].unit.c_str());
    std::fprintf(f, "}");
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

const char*
compiler()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string traceOut;
};

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--traced")
            o.traced = true;
        else if (a == "--trace-out")
            o.traceOut = value();
        else
            throw std::runtime_error("unknown argument " + a);
    }
    return o;
}

int
bench(const Options& opt)
{
    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& d : workloads)
        if (opt.workload == d.name)
            def = &d;
    if (!def)
        throw std::runtime_error("unknown workload '" + opt.workload + "'");
    if (!(opt.seconds > 0))
        throw std::runtime_error("--seconds must be positive");
    setQuiet(true);

    // The requested seconds cover all plain repetitions.
    auto target = static_cast<std::uint64_t>(
        opt.seconds * def->accessesPerSecond / plainReps);
    std::vector<SetupTimes> setups;
    std::vector<std::string> failures;
    auto check = [&](bool ok, const std::string& what) {
        if (!ok)
            failures.push_back(what);
    };

    // ---- plain runs: the end-to-end measurement, plainReps times.
    SpeedReference speed;
    // Host ns per platform access of [slice][repetition], at the
    // reference speed and as wall time.
    std::vector<std::vector<double>> repNs, repWallNs;
    std::vector<double> factors;
    std::vector<double> repHostNs; // whole measured phase, per repetition
    std::uint64_t plainCkpt = 0, plainFinal = 0;
    RunResult res;
    Snapshot before, after;
    LatencyHistogram lat;
    ProbeCounts plainProbe;
    std::uint64_t slices = 0;
    bool drained = true;
    for (int rep = 0; rep < plainReps; ++rep) {
        Run run(*def, opt.seed);
        setups.push_back(run.setup(speed));
        run.beginMeasure(Mode::Plain, nullptr, 0);
        double total_ns = 0;
        std::uint64_t ckpt = 0;
        for (std::uint64_t i = 0;
             rep > 0 ? i < slices
                     : (i < minSlices || run.result().platformAccesses < target);
             ++i) {
            double f = speed.factor();
            factors.push_back(f);
            RunResult r;
            std::uint64_t ns = run.slice(r);
            total_ns += static_cast<double>(ns) / f;
            double per_access = static_cast<double>(ns) /
                                static_cast<double>(std::max<std::uint64_t>(
                                    r.platformAccesses, 1));
            if (rep == 0) {
                repNs.emplace_back();
                repWallNs.emplace_back();
            }
            repNs[i].push_back(per_access / f);
            repWallNs[i].push_back(per_access);
            if (run.sliceCount() == prefixSlices)
                ckpt = run.fp();
        }
        repHostNs.push_back(total_ns /
                            static_cast<double>(run.result().platformAccesses));
        if (rep == 0)
            after = run.snapshot();
        drained = run.drain() && drained;
        if (rep == 0) {
            plainCkpt = ckpt;
            plainFinal = run.drainedFp();
            res = run.result();
            slices = run.sliceCount();
            before = run.baseline();
            lat = run.probed().latency();
            plainProbe = run.probed().counts();
            continue;
        }
        check(ckpt == plainCkpt && run.drainedFp() == plainFinal,
              "plain runs of one seed diverged");
    }
    double plainHostNs = median(repHostNs);

    std::vector<double> sliceNs, sliceWallNs;
    for (std::uint64_t i = 0; i < slices; ++i) {
        sliceNs.push_back(median(repNs[i]));
        sliceWallNs.push_back(median(repWallNs[i]));
    }

    // ---- traced run: full length when asked, else the prefix.
    Tracer tracer(opt.traced ? (1u << 16) : 0);
    double tracedHostNs = 0;
    double replayNs = 0;
    std::vector<double> tracedFactors;
    std::uint64_t tracedAccesses = 0;
    {
        Run run(*def, opt.seed);
        setups.push_back(run.setup(speed));
        run.beginMeasure(Mode::Traced, &tracer, opt.traced ? (1u << 21) : 0);
        std::uint64_t n = opt.traced ? slices : prefixSlices;
        double total_ns = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (opt.traced && i == n / 2)
                tracer.openWindow();
            double f = speed.factor();
            tracedFactors.push_back(f);
            RunResult r;
            total_ns += static_cast<double>(run.slice(r)) / f;
            if (run.sliceCount() == prefixSlices)
                check(run.fp() == plainCkpt,
                      "traced run diverged from the plain run at the "
                      "prefix checkpoint");
        }
        tracedAccesses = run.result().platformAccesses;
        tracedHostNs = total_ns / static_cast<double>(std::max<std::uint64_t>(
                                      tracedAccesses, 1));
        check(run.drain(), "traced run: an access never completed");
        if (opt.traced) {
            check(run.drainedFp() == plainFinal,
                  "traced run diverged from the plain run at the end");
            if (!opt.traceOut.empty())
                check(tracer.writeChromeTrace(opt.traceOut),
                      "could not write " + opt.traceOut);
            double f = speed.factor();
            replayNs =
                replayCacheProbeNs(run.recorder()->recorded(), 5) / f;
        }
    }

    // ---- prefix run with the inline fast path off.
    {
        Run run(*def, opt.seed);
        setups.push_back(run.setup(speed));
        run.beginMeasure(Mode::InlineOff, nullptr, 0);
        RunResult r;
        for (std::uint64_t i = 0; i < prefixSlices; ++i)
            run.slice(r);
        check(run.fp() == plainCkpt,
              "inline-off prefix run diverged from the plain run");
        check(run.drain(), "prefix run: an access never completed");
    }

    // ---- correctness: completion and traffic checks.
    const ProbeCounts& p0 = before.probe;
    std::uint64_t attempted = (plainProbe.issued - p0.issued) +
                              (plainProbe.inlined - p0.inlined);
    std::uint64_t lost = plainProbe.issued - plainProbe.completed;
    check(drained && lost == 0, "plain run: an access never completed");
    check(attempted == res.platformAccesses,
          "probe and driver disagree on the access count");

    double acc = static_cast<double>(res.platformAccesses);
    double kacc = acc / 1000.0;
    std::uint64_t hamsAcc = after.hams.accesses - before.hams.accesses;
    double hamsHitFrac =
        ratio(static_cast<double>(after.hams.hits - before.hams.hits),
              static_cast<double>(hamsAcc));
    std::uint64_t erases = after.ftl.erases - before.ftl.erases;
    std::uint64_t relocs = after.ftl.gcRelocations - before.ftl.gcRelocations;
    std::uint64_t hostWrites = after.ftl.hostWrites - before.ftl.hostWrites;
    std::uint64_t mmapWb = after.mmapWritebacks - before.mmapWritebacks;
    std::uint64_t mmapFaults = after.mmapFaults - before.mmapFaults;
    std::uint64_t mmapHits = after.mmapHits - before.mmapHits;
    double eventsPerAccess =
        static_cast<double>(after.events - before.events) / acc;

    std::string wl = def->name;
    if (wl == "tp_read_hits") {
        check(hamsHitFrac >= 0.99, "traffic: hams.hit_frac < 0.99");
        check(erases == 0, "traffic: ftl.erases != 0");
    } else if (wl == "te_update_gc4") {
        check(erases > 0, "traffic: no FTL erases in the measured phase");
        check(relocs > 0, "traffic: no GC relocations in the measured phase");
    } else if (wl == "mmap_update") {
        check(mmapWb > 0, "traffic: no mmap writebacks");
        check(eventsPerAccess < 0.01, "traffic: sim.events_per_access >= 0.01");
    }

    bool correct = failures.empty();
    std::uint64_t failed = correct ? lost : attempted;

    std::vector<double> setupTotal, construct, prefill, warmup, setupWall;
    for (const SetupTimes& s : setups) {
        setupTotal.push_back(s.total());
        construct.push_back(s.construct);
        prefill.push_back(s.prefill);
        warmup.push_back(s.warmup);
        setupWall.push_back(s.wall);
    }
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);

    // Per-op rates over the measured phase's summed simulated time.
    RunResult fin = res;
    finalizeRunResult(fin, CoreConfig{}.freqGhz, CpuPowerModel{});

    std::vector<Metric> e2e = {
        {"host_ns_per_access", median(sliceNs), "ns"},
        {"setup_s", median(setupTotal), "s"},
        {"host_peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
         "MiB"},
        {"sim_ops_per_s", fin.opsPerSec, "ops/sim_s"},
        {"sim_access_p50_ns", lat.quantileNs(0.50), "sim_ns"},
        {"sim_access_p99_ns", lat.quantileNs(0.99), "sim_ns"},
        {"sim_access_p999_ns", lat.quantileNs(0.999), "sim_ns"},
        {"ok_frac", 1.0 - ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)),
         "frac"},
    };

    auto bdNs = [&](Tick t) { return ticksToNs(t) / acc; };
    // Traced host times, scaled to the reference speed like the plain
    // run's (one factor: the traced run's median speed sample).
    double tracedAcc = static_cast<double>(std::max<std::uint64_t>(
        tracedAccesses, 1));
    double tracedSpeed = tracedFactors.empty() ? 1.0 : median(tracedFactors);
    auto selfNs = [&](Layer l) {
        return static_cast<double>(tracer.selfNs(l)) / tracedAcc /
               tracedSpeed;
    };
    auto meanNs = [&](SpanKind k) {
        return ratio(static_cast<double>(tracer.inclusiveNs(k)),
                     static_cast<double>(tracer.calls(k))) /
               tracedSpeed;
    };
    double boundaryCost = 0;
    if (opt.traced) {
        double f = speed.factor();
        boundaryCost = Tracer::calibrateBoundaryCostNs() / f;
    }
    double selfSum = 0;
    for (int l = 0; l < static_cast<int>(Layer::Count); ++l)
        selfSum += selfNs(static_cast<Layer>(l));
    double corrected =
        selfSum - boundaryCost * static_cast<double>(tracer.clockReads()) /
                      tracedAcc;
    std::uint64_t demand = attempted;

    std::vector<Metric> layers = {
        {"host_ns_per_access_p90", percentile(sliceNs, 0.90), "ns"},
        {"host.wall_ns_per_access", median(sliceWallNs), "ns"},
        {"host.speed_factor", median(factors), "ratio"},
        {"workload.host_ns_per_next", meanNs(SpanKind::Next), "ns"},
        {"workload.next_ns_per_access", selfNs(Layer::Next), "ns"},
        {"cpu.driver_self_ns_per_access", selfNs(Layer::Driver), "ns"},
        {"cpu.cache_probe_ns", replayNs, "ns"},
        {"cpu.l1_hit_frac",
         ratio(static_cast<double>(res.l1Hits),
               static_cast<double>(res.memInstructions)),
         "frac"},
        {"cpu.l2_hit_frac",
         ratio(static_cast<double>(res.l2Hits),
               static_cast<double>(res.memInstructions - res.l1Hits)),
         "frac"},
        {"cpu.inline_frac",
         ratio(static_cast<double>(plainProbe.inlined - p0.inlined),
               static_cast<double>(demand)),
         "frac"},
        {"sim.events_per_access", eventsPerAccess, "count"},
        {"sim.event_path_host_ns", meanNs(SpanKind::Event), "ns"},
        {"sim.event_self_ns_per_access", selfNs(Layer::Event), "ns"},
        {"platform.try_host_ns", meanNs(SpanKind::Try), "ns"},
        {"platform.access_host_ns", meanNs(SpanKind::Access), "ns"},
        {"platform.try_ns_per_access", selfNs(Layer::Try), "ns"},
        {"platform.access_ns_per_access", selfNs(Layer::Access), "ns"},
        {"platform.flush_ns_per_access", selfNs(Layer::Flush), "ns"},
        {"hams.hit_frac", hamsHitFrac, "frac"},
        {"hams.dirty_evictions_per_kaccess",
         static_cast<double>(after.hams.dirtyEvictions -
                             before.hams.dirtyEvictions) /
             kacc,
         "1/kaccess"},
        {"hams.prp_clones",
         static_cast<double>(after.hams.prpClones - before.hams.prpClones),
         "count"},
        {"hams.wait_queued",
         static_cast<double>(after.hams.waitQueued - before.hams.waitQueued),
         "count"},
        {"hams.waiter_peak_depth",
         static_cast<double>(after.hams.waiterPeakDepth), "count"},
        {"nvme.cmds_per_kaccess",
         static_cast<double>(after.engine.submitted -
                             before.engine.submitted) /
             kacc,
         "1/kaccess"},
        {"ftl.write_amp",
         hostWrites ? 1.0 + static_cast<double>(relocs) /
                                static_cast<double>(hostWrites)
                    : 1.0,
         "ratio"},
        {"ftl.gc_relocations", static_cast<double>(relocs), "count"},
        {"ftl.erases", static_cast<double>(erases), "count"},
        {"ftl.gc_write_stalls",
         static_cast<double>(after.ftl.gcWriteStalls -
                             before.ftl.gcWriteStalls),
         "count"},
        {"ftl.gc_stall_us",
         ticksToUs(after.ftl.gcStallTicks - before.ftl.gcStallTicks), "us"},
        {"flash.programs",
         static_cast<double>(after.flash.programs - before.flash.programs),
         "count"},
        {"flash.suspensions",
         static_cast<double>(after.flash.suspensions -
                             before.flash.suspensions),
         "count"},
        {"sim.stall_os_ns_per_access", bdNs(res.stallBreakdown.os), "sim_ns"},
        {"sim.stall_nvdimm_ns_per_access", bdNs(res.stallBreakdown.nvdimm),
         "sim_ns"},
        {"sim.stall_dma_ns_per_access", bdNs(res.stallBreakdown.dma),
         "sim_ns"},
        {"sim.stall_ssd_ns_per_access", bdNs(res.stallBreakdown.ssd),
         "sim_ns"},
        {"mmap.page_cache_hit_frac",
         ratio(static_cast<double>(mmapHits),
               static_cast<double>(mmapHits + mmapFaults)),
         "frac"},
        {"mmap.page_faults", static_cast<double>(mmapFaults), "count"},
        {"mmap.writebacks", static_cast<double>(mmapWb), "count"},
        {"host.allocs_per_kaccess",
         static_cast<double>(after.allocs - before.allocs) / kacc,
         "1/kaccess"},
        {"setup.construct_s", median(construct), "s"},
        {"setup.prefill_s", median(prefill), "s"},
        {"setup.warmup_s", median(warmup), "s"},
        {"setup.wall_s", median(setupWall), "s"},
        {"trace.overhead_frac", ratio(tracedHostNs, plainHostNs) - 1.0,
         "frac"},
        {"trace.boundary_cost_ns", boundaryCost, "ns"},
        {"trace.residual_frac", ratio(corrected, plainHostNs) - 1.0, "frac"},
    };

    std::FILE* out = stdout;
    std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                      ", \"correct\": %s, \"attempted\": %" PRIu64
                      ", \"failed\": %" PRIu64 ", \"fingerprint\": \"%016" PRIx64
                      "\", \"failures\": [",
                 def->name, opt.seed, correct ? "true" : "false", attempted,
                 failed, plainFinal);
    for (std::size_t i = 0; i < failures.size(); ++i)
        std::fprintf(out, "%s\"%s\"", i ? ", " : "", failures[i].c_str());
    std::fprintf(out,
                 "], \"context\": {\"build_type\": \"%s\", \"compiler\": "
                 "\"%s\", \"slices\": %" PRIu64 ", \"accesses_measured\": %" PRIu64
                 ", \"latency_samples\": %" PRIu64 ", \"traced\": %s}, ",
                 PERFBENCH_BUILD_TYPE, compiler(), slices,
                 res.platformAccesses, lat.count(),
                 opt.traced ? "true" : "false");
    printMetrics(out, "end_to_end", e2e);
    std::fprintf(out, ", ");
    printMetrics(out, "per_layer", layers);
    std::fprintf(out, "}\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return bench(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
