/**
 * @file
 * Outside-in probes of the benchmark: decorators over the public
 * WorkloadGenerator and MemoryPlatform interfaces, a histogram of
 * simulated access latency, and the host-time span tracer of the traced
 * run. Nothing here reaches inside the simulator; every probe sits on a
 * virtual call the drivers (CoreModel, SmpModel) already make.
 *
 * Host-time partition
 * -------------------
 * The tracer charges every host nanosecond inside a measured run() call
 * to exactly one layer, so the layers add up to the whole by
 * construction. At each span boundary the interval since the previous
 * boundary goes to the innermost open synchronous span (next, tryAccess,
 * access, flush, completion callback); with none open it goes to the
 * event path while any access() or flush() awaits its callback, and to
 * the driver otherwise. Completion callbacks run the driver's own code
 * (SmpModel retires the next ops of the core from inside the callback),
 * so they are charged to the driver.
 */

#ifndef PERFBENCH_PROBE_HH_
#define PERFBENCH_PROBE_HH_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/platform.hh"
#include "workload/workload.hh"

namespace perfbench {

using hams::Tick;

/** Host monotonic clock in nanoseconds. */
inline std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Log-linear histogram of simulated latencies in ticks: exact below
 * 1024 ticks, 512 buckets per power of two above (0.2% resolution).
 * Recording is one array increment.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    void
    record(Tick v)
    {
        ++counts[index(v)];
        ++n;
        total += v;
    }

    void clear();

    std::uint64_t count() const { return n; }

    /** Value at quantile @p q (0..1) in nanoseconds. */
    double quantileNs(double q) const;

    /** Order-sensitive digest of every bucket (for the fingerprint). */
    std::uint64_t digest() const;

  private:
    static std::size_t index(Tick v);

    std::vector<std::uint64_t> counts;
    std::uint64_t n = 0;
    Tick total = 0;
};

/** What a span measures; fixes its Chrome-trace name. */
enum class SpanKind : std::uint8_t {
    Run,      //!< one measured CoreModel/SmpModel::run() call (the root)
    Next,     //!< WorkloadGenerator::next
    Try,      //!< MemoryPlatform::tryAccess
    Access,   //!< MemoryPlatform::access
    Flush,    //!< MemoryPlatform::flush
    Event,    //!< access()/flush() issue up to its completion callback
    Callback, //!< the driver's completion callback
    Count
};

/** The layers host time is partitioned into. */
enum class Layer : std::uint8_t {
    Driver, //!< CoreModel/SmpModel + L1/L2 CacheModel (+ callbacks)
    Next,
    Try,
    Access,
    Flush,
    Event, //!< event kernel + device events, between issue and callback
    Count
};

const char* spanName(SpanKind k);

/**
 * Span tracer of the traced run: per-kind call counts and inclusive
 * time, per-layer self time, and a pre-sized buffer of the spans of one
 * sample window, written out as Chrome trace-event JSON.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t none = ~std::uint32_t(0);

    /** @param window_spans capacity of the recorded sample window. */
    explicit Tracer(std::size_t window_spans);

    /** Record the spans that follow, until the window is full. */
    void openWindow() { windowOpen = true; }

    void beginRun();
    void endRun();

    /**
     * Open a synchronous span; @p parent defaults to the innermost.
     * @p chained reuses the timestamp of the boundary just taken
     * (openAsync/closeAsync) instead of reading the clock again.
     */
    void begin(SpanKind k, std::uint64_t access,
               std::uint32_t parent = none, bool chained = false);
    void end();

    /** Open an event-path span; returns its handle for closeAsync(). */
    std::uint32_t openAsync(std::uint64_t access);
    void closeAsync(std::uint32_t handle);

    /** Window index of the event-path span behind @p handle. */
    std::uint32_t asyncSpan(std::uint32_t handle) const
    {
        return async[handle].span;
    }

    std::uint64_t calls(SpanKind k) const
    {
        return kinds[static_cast<int>(k)].calls;
    }
    std::uint64_t inclusiveNs(SpanKind k) const
    {
        return kinds[static_cast<int>(k)].ns;
    }
    std::uint64_t selfNs(Layer l) const
    {
        return self[static_cast<int>(l)];
    }
    /** Clock reads taken at span boundaries, for the clock correction. */
    std::uint64_t clockReads() const { return reads; }

    /** Write the recorded window as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string& path) const;

    /**
     * Host cost of one span boundary (clock read plus bookkeeping) on
     * this machine, from a loop of empty spans: the overhead the traced
     * run pays per clockReads() on top of the work.
     */
    static double calibrateBoundaryCostNs();

  private:
    struct Open
    {
        SpanKind kind;
        std::uint32_t span;
        std::uint64_t start;
    };
    struct Async
    {
        std::uint64_t start = 0;
        std::uint32_t span = none;
        std::uint32_t nextFree = none;
    };
    struct Span
    {
        std::uint64_t start;
        std::uint64_t end;
        std::uint64_t access;
        std::uint32_t parent;
        std::uint16_t track;
        SpanKind kind;
    };
    struct KindStats
    {
        std::uint64_t calls = 0;
        std::uint64_t ns = 0;
    };

    /** Charge the time since the last boundary to the current owner. */
    std::uint64_t charge();
    std::uint32_t record(SpanKind k, std::uint64_t start,
                         std::uint64_t access, std::uint32_t parent,
                         std::uint16_t track);

    std::array<Open, 16> stack{};
    std::size_t depth = 0;
    std::vector<Async> async;
    std::uint32_t freeAsync = none;
    std::uint32_t liveAsync = 0;

    std::uint64_t last = 0;
    std::uint32_t runSpan = none;
    std::uint64_t runStart = 0;

    std::array<KindStats, static_cast<int>(SpanKind::Count)> kinds{};
    std::array<std::uint64_t, static_cast<int>(Layer::Count)> self{};
    std::uint64_t reads = 0;

    std::vector<Span> spans;
    std::size_t capacity;
    bool windowOpen = false;
};

/** Counters of the platform probe (identical with tracing on or off). */
struct ProbeCounts
{
    std::uint64_t issued = 0;    //!< access() calls, posted writebacks too
    std::uint64_t completed = 0; //!< their completions
    std::uint64_t inlined = 0;   //!< tryAccess() that completed the access
    std::uint64_t flushes = 0;
    std::uint64_t flushesDone = 0;
};

/**
 * MemoryPlatform decorator. Always on: it records the simulated latency
 * of every platform access (completion tick minus issue tick) and counts
 * issued against completed accesses. With a tracer attached and enabled
 * it also times each call into the platform and each issue-to-callback
 * event path. Forwards every call unchanged, so simulated outputs are
 * those of the wrapped platform.
 */
class ProbedPlatform : public hams::MemoryPlatform
{
  public:
    explicit ProbedPlatform(hams::MemoryPlatform& inner) : inner(inner) {}

    void setTracer(Tracer* t) { tracer = t; }

    const std::string& name() const override { return inner.name(); }
    std::uint64_t capacity() const override { return inner.capacity(); }
    hams::EventQueue& eventQueue() override { return inner.eventQueue(); }
    hams::DomainConductor& conductor() override { return inner.conductor(); }
    bool persistent() const override { return inner.persistent(); }
    hams::EnergyBreakdownJ
    memoryEnergy(Tick elapsed) const override
    {
        return inner.memoryEnergy(elapsed);
    }

    void access(const hams::MemAccess& acc, Tick at, AccessCb cb) override;
    bool tryAccess(const hams::MemAccess& acc, Tick at,
                   hams::InlineCompletion& out) override;
    void flush(Tick at, AccessCb cb) override;

    const ProbeCounts& counts() const { return _counts; }
    const LatencyHistogram& latency() const { return lat; }
    void resetLatency() { lat.clear(); }
    /** Id of the most recent platform call (spans of one access share it). */
    const std::uint64_t& accessSeq() const { return seq; }

  private:
    /** A wrapped callback awaiting its completion. */
    struct Pending
    {
        AccessCb cb;
        Tick at = 0;
        std::uint64_t id = 0;
        std::uint32_t async = Tracer::none;
        std::uint32_t nextFree = Tracer::none;
        bool isFlush = false;
    };

    std::uint32_t park(AccessCb cb, Tick at, bool is_flush, bool awaited);
    void onDone(std::uint32_t slot, Tick done, const hams::LatencyBreakdown& bd);

    hams::MemoryPlatform& inner;
    Tracer* tracer = nullptr;
    ProbeCounts _counts;
    LatencyHistogram lat;
    std::vector<Pending> pending;
    std::uint32_t freePending = Tracer::none;
    std::uint64_t seq = 0; //!< access id shared by the spans of one access
};

/**
 * WorkloadGenerator decorator of the traced run: a span around every
 * next(), and (optionally) a record of the emitted memory-instruction
 * stream for the standalone cache replay probe.
 */
class TracedWorkload : public hams::WorkloadGenerator
{
  public:
    TracedWorkload(hams::WorkloadGenerator& inner, Tracer& tracer,
                   const std::uint64_t& next_access,
                   std::size_t record_cap)
        : inner(inner), tracer(tracer), nextAccess(next_access)
    {
        stream.reserve(record_cap);
    }

    const hams::WorkloadSpec& spec() const override { return inner.spec(); }
    void reset() override { inner.reset(); }

    bool
    next(hams::WorkloadOp& op) override
    {
        tracer.begin(SpanKind::Next, nextAccess + 1);
        bool more = inner.next(op);
        tracer.end();
        if (more && op.hasAccess && stream.size() < stream.capacity())
            stream.push_back(op.access.addr << 1 |
                             (op.access.op == hams::MemOp::Write ? 1 : 0));
        return more;
    }

    /** Recorded stream: address << 1 | is_write. */
    const std::vector<std::uint64_t>& recorded() const { return stream; }

  private:
    hams::WorkloadGenerator& inner;
    Tracer& tracer;
    const std::uint64_t& nextAccess;
    std::vector<std::uint64_t> stream;
};

/**
 * Host-speed reference. Other tenants of a shared host slow this
 * process by up to 2x, in bursts of 0.1 s to minutes, through the
 * shared cache and memory (a pure-ALU loop does not see it). A fixed
 * kernel outside the simulator, random read-modify-writes over a 1 MiB
 * table, is timed before timed intervals; host times divided by its
 * slowdown factor read as ns at the reference speed. Of the loops tried
 * (pure ALU, pointer chases over 256 KiB and 8 MiB, read-modify-writes
 * over 1-8 MiB), it tracked the simulator's slowdowns best: under load
 * it cut the run-to-run spread of ns per access from 0.2-0.3 to
 * 0.03-0.11. The kernel evicts part of the L2, which the interval then
 * refills: a constant cost folded into every normalized time.
 */
class SpeedReference
{
  public:
    SpeedReference();

    /**
     * Run the kernel once. @return its time over the nominal time:
     * about 1 on a quiet 4-CPU Xeon VM, 2 when twice as slow.
     */
    double factor();

  private:
    std::vector<std::uint64_t> table;
    std::uint64_t state = 1;
    std::uint64_t sink = 0;
};

/**
 * Replay a recorded memory-instruction stream through a fresh L1/L2
 * pair wired as CoreModel wires them. @return host ns per instruction
 * (median of @p reps passes).
 */
double replayCacheProbeNs(const std::vector<std::uint64_t>& stream,
                          int reps);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH_
