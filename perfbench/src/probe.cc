#include "probe.hh"

#include <algorithm>
#include <cstdio>

#include "cpu/core_model.hh"

namespace perfbench {

namespace {

constexpr std::size_t exactBuckets = 1024;
constexpr std::size_t subBuckets = 512;
constexpr std::size_t histBuckets = exactBuckets + 54 * subBuckets;

int
msb(std::uint64_t v)
{
    return 63 - __builtin_clzll(v | 1);
}

/** Lower bound and width of bucket @p idx, in ticks. */
void
bucketRange(std::size_t idx, Tick& lo, Tick& width)
{
    if (idx < exactBuckets) {
        lo = idx;
        width = 1;
        return;
    }
    std::size_t shift = (idx - exactBuckets) / subBuckets + 1;
    std::size_t top = (idx - exactBuckets) % subBuckets + subBuckets;
    lo = Tick(top) << shift;
    width = Tick(1) << shift;
}

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

} // namespace

LatencyHistogram::LatencyHistogram() : counts(histBuckets, 0) {}

void
LatencyHistogram::clear()
{
    std::fill(counts.begin(), counts.end(), 0);
    n = 0;
    total = 0;
}

std::size_t
LatencyHistogram::index(Tick v)
{
    if (v < exactBuckets)
        return static_cast<std::size_t>(v);
    int shift = msb(v) - 9; // keep the top 10 bits: v >> shift in [512, 1024)
    return exactBuckets + static_cast<std::size_t>(shift - 1) * subBuckets +
           static_cast<std::size_t>((v >> shift) - subBuckets);
}

double
LatencyHistogram::quantileNs(double q) const
{
    if (n == 0)
        return 0;
    // Linear interpolation inside the bucket that holds the rank, as
    // histogram quantile estimators do: the rank's position among the
    // bucket's samples places it between the bucket's bounds.
    double rank = std::max(1.0, q * static_cast<double>(n));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0 || static_cast<double>(seen + counts[i]) < rank) {
            seen += counts[i];
            continue;
        }
        Tick lo = 0, width = 0;
        bucketRange(i, lo, width);
        double frac = (rank - static_cast<double>(seen)) /
                      static_cast<double>(counts[i]);
        return hams::ticksToNs(lo) + hams::ticksToNs(width) * frac;
    }
    return 0;
}

std::uint64_t
LatencyHistogram::digest() const
{
    std::uint64_t h = mix(n, total);
    for (std::size_t i = 0; i < counts.size(); ++i)
        if (counts[i])
            h = mix(mix(h, i), counts[i]);
    return h;
}

const char*
spanName(SpanKind k)
{
    switch (k) {
      case SpanKind::Run: return "cpu.run";
      case SpanKind::Next: return "workload.next";
      case SpanKind::Try: return "platform.tryAccess";
      case SpanKind::Access: return "platform.access";
      case SpanKind::Flush: return "platform.flush";
      case SpanKind::Event: return "sim.event_path";
      case SpanKind::Callback: return "cpu.callback";
      case SpanKind::Count: break;
    }
    return "?";
}

namespace {

Layer
layerOf(SpanKind k)
{
    switch (k) {
      case SpanKind::Next: return Layer::Next;
      case SpanKind::Try: return Layer::Try;
      case SpanKind::Access: return Layer::Access;
      case SpanKind::Flush: return Layer::Flush;
      case SpanKind::Event: return Layer::Event;
      default: return Layer::Driver;
    }
}

} // namespace

Tracer::Tracer(std::size_t window_spans) : capacity(window_spans)
{
    spans.reserve(window_spans);
    async.reserve(64);
}

std::uint64_t
Tracer::charge()
{
    std::uint64_t t = hostNs();
    ++reads;
    Layer owner = depth > 0 ? layerOf(stack[depth - 1].kind)
                            : (liveAsync > 0 ? Layer::Event : Layer::Driver);
    self[static_cast<int>(owner)] += t - last;
    last = t;
    return t;
}

std::uint32_t
Tracer::record(SpanKind k, std::uint64_t start, std::uint64_t access,
               std::uint32_t parent, std::uint16_t track)
{
    if (!windowOpen || spans.size() >= capacity)
        return none;
    spans.push_back(Span{start, start, access, parent, track, k});
    return static_cast<std::uint32_t>(spans.size() - 1);
}

void
Tracer::beginRun()
{
    runStart = last = hostNs();
    ++reads;
    runSpan = record(SpanKind::Run, runStart, 0, none, 0);
}

void
Tracer::endRun()
{
    std::uint64_t t = charge();
    KindStats& ks = kinds[static_cast<int>(SpanKind::Run)];
    ++ks.calls;
    ks.ns += t - runStart;
    if (runSpan != none)
        spans[runSpan].end = t;
    runSpan = none;
}

void
Tracer::begin(SpanKind k, std::uint64_t access, std::uint32_t parent,
              bool chained)
{
    std::uint64_t t = chained ? last : charge();
    if (parent == none)
        parent = depth > 0 ? stack[depth - 1].span : runSpan;
    stack[depth++] = Open{k, record(k, t, access, parent, 0), t};
}

void
Tracer::end()
{
    std::uint64_t t = charge();
    const Open& o = stack[--depth];
    KindStats& ks = kinds[static_cast<int>(o.kind)];
    ++ks.calls;
    ks.ns += t - o.start;
    if (o.span != none)
        spans[o.span].end = t;
}

std::uint32_t
Tracer::openAsync(std::uint64_t access)
{
    std::uint64_t t = charge();
    std::uint32_t h = freeAsync;
    if (h == none) {
        h = static_cast<std::uint32_t>(async.size());
        async.emplace_back();
    } else {
        freeAsync = async[h].nextFree;
    }
    Async& a = async[h];
    a.start = t;
    // One Chrome-trace track per live slot keeps overlapping event
    // paths (SMP) apart.
    a.span = record(SpanKind::Event, t, access, runSpan,
                    static_cast<std::uint16_t>(1 + h));
    ++liveAsync;
    return h;
}

void
Tracer::closeAsync(std::uint32_t handle)
{
    std::uint64_t t = charge();
    Async& a = async[handle];
    KindStats& ks = kinds[static_cast<int>(SpanKind::Event)];
    ++ks.calls;
    ks.ns += t - a.start;
    if (a.span != none)
        spans[a.span].end = t;
    a.nextFree = freeAsync;
    freeAsync = handle;
    --liveAsync;
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::uint64_t base = spans.empty() ? 0 : spans.front().start;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %lld, "
                     "\"access\": %llu}}%s\n",
                     spanName(s.kind), static_cast<unsigned>(s.track),
                     static_cast<double>(s.start - base) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i,
                     s.parent == none ? -1LL
                                      : static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.access),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

double
Tracer::calibrateBoundaryCostNs()
{
    constexpr int pairs = 1 << 20;
    std::vector<double> costs;
    for (int rep = 0; rep < 5; ++rep) {
        Tracer t(0);
        t.beginRun();
        std::uint64_t t0 = hostNs();
        for (int i = 0; i < pairs; ++i) {
            t.begin(SpanKind::Next, static_cast<std::uint64_t>(i));
            t.end();
        }
        std::uint64_t t1 = hostNs();
        t.endRun();
        costs.push_back(static_cast<double>(t1 - t0) / (2.0 * pairs));
    }
    std::sort(costs.begin(), costs.end());
    return costs[costs.size() / 2];
}

std::uint32_t
ProbedPlatform::park(AccessCb cb, Tick at, bool is_flush, bool awaited)
{
    std::uint32_t slot = freePending;
    if (slot == Tracer::none) {
        slot = static_cast<std::uint32_t>(pending.size());
        pending.emplace_back();
    } else {
        freePending = pending[slot].nextFree;
    }
    Pending& p = pending[slot];
    p.cb = std::move(cb);
    p.at = at;
    p.id = seq;
    p.isFlush = is_flush;
    // A posted writeback is not waited for: no event-path span, or the
    // driver's work behind it would be charged to the event path.
    p.async = tracer && awaited ? tracer->openAsync(seq) : Tracer::none;
    return slot;
}

void
ProbedPlatform::onDone(std::uint32_t slot, Tick done,
                       const hams::LatencyBreakdown& bd)
{
    // Free the slot before calling out: the driver's callback may issue
    // again and grow the table.
    Pending& p = pending[slot];
    AccessCb cb = std::move(p.cb);
    std::uint64_t id = p.id;
    bool traced = tracer && p.async != Tracer::none;
    if (p.isFlush) {
        ++_counts.flushesDone;
    } else {
        ++_counts.completed;
        lat.record(done - p.at);
    }
    if (traced)
        tracer->closeAsync(p.async);
    p.nextFree = freePending;
    freePending = slot;

    if (!cb)
        return;
    if (traced)
        tracer->begin(SpanKind::Callback, id, Tracer::none, true);
    cb(done, bd);
    if (traced)
        tracer->end();
}

void
ProbedPlatform::access(const hams::MemAccess& acc, Tick at, AccessCb cb)
{
    ++seq;
    ++_counts.issued;
    bool awaited = static_cast<bool>(cb);
    // Posted writebacks are wrapped too: the platform schedules their
    // completion event either way, so wrapping only lets the probe see
    // their completion tick.
    std::uint32_t slot = park(std::move(cb), at, false, awaited);
    std::uint32_t async = pending[slot].async;
    if (tracer)
        tracer->begin(SpanKind::Access, seq,
                      async == Tracer::none ? Tracer::none
                                            : tracer->asyncSpan(async),
                      async != Tracer::none);
    inner.access(acc, at,
                 [this, slot](Tick done, const hams::LatencyBreakdown& bd) {
                     onDone(slot, done, bd);
                 });
    if (tracer)
        tracer->end();
}

bool
ProbedPlatform::tryAccess(const hams::MemAccess& acc, Tick at,
                          hams::InlineCompletion& out)
{
    ++seq;
    if (tracer)
        tracer->begin(SpanKind::Try, seq);
    bool done = inner.tryAccess(acc, at, out);
    if (tracer)
        tracer->end();
    if (done) {
        ++_counts.inlined;
        lat.record(out.done - at);
    } else {
        --seq; // the fallback access() is the same access
    }
    return done;
}

void
ProbedPlatform::flush(Tick at, AccessCb cb)
{
    ++seq;
    if (!cb) {
        inner.flush(at, nullptr);
        return;
    }
    ++_counts.flushes;
    std::uint32_t slot = park(std::move(cb), at, true, true);
    if (tracer)
        tracer->begin(SpanKind::Flush, seq,
                      tracer->asyncSpan(pending[slot].async), true);
    inner.flush(at,
                [this, slot](Tick done, const hams::LatencyBreakdown& bd) {
                    onDone(slot, done, bd);
                });
    if (tracer)
        tracer->end();
}

namespace {

constexpr std::size_t refTableWords = (1u << 20) / sizeof(std::uint64_t);
constexpr int refIterations = 100000;
/** Kernel time per iteration on a quiet 4-CPU Xeon VM. */
constexpr double refNominalNsPerIteration = 4.0;

} // namespace

SpeedReference::SpeedReference() : table(refTableWords, 1) {}

double
SpeedReference::factor()
{
    std::uint64_t t0 = hostNs();
    std::uint64_t x = state, acc = sink;
    for (int i = 0; i < refIterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::uint64_t& e = table[(x >> 40) % refTableWords];
        acc += e;
        e += x;
    }
    std::uint64_t t1 = hostNs();
    state = x;
    sink = acc;
    return static_cast<double>(t1 - t0) /
           (refIterations * refNominalNsPerIteration);
}

double
replayCacheProbeNs(const std::vector<std::uint64_t>& stream, int reps)
{
    if (stream.empty())
        return 0;
    hams::CoreConfig cc;
    std::vector<double> ns;
    std::uint64_t sink = 0;
    for (int r = 0; r < reps; ++r) {
        hams::CacheModel l1(cc.l1);
        hams::CacheModel l2(cc.l2);
        std::uint64_t t0 = hostNs();
        for (std::uint64_t rec : stream) {
            hams::Addr addr = rec >> 1;
            bool is_write = rec & 1;
            hams::CacheResult r1 = l1.access(addr, is_write);
            if (r1.hit)
                continue;
            if (r1.evictedDirty)
                l2.access(r1.evictedLine, true);
            sink += l2.access(addr, is_write).hit;
        }
        std::uint64_t t1 = hostNs();
        sink += l1.hits();
        ns.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(stream.size()));
    }
    // Keep the replay observable so it cannot be folded away.
    if (sink == ~std::uint64_t(0))
        std::fprintf(stderr, "replay sink %llu\n",
                     static_cast<unsigned long long>(sink));
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

} // namespace perfbench
