/**
 * @file
 * Sweep-runner tests: a failing cell's error names the exact
 * (platform × workload) cell at any thread count and never yields a
 * partial table, and sweep tables — 1-core, multicore and sharded
 * cells alike — are bit-identical across HAMS_BENCH_THREADS
 * settings — the property that lets the figure
 * harnesses print deterministic tables from parallel runs — and the
 * closed-loop queue-depth driver reports every completion once. The
 * bench harness (harness.hh) writes snake_case keys, nests listed
 * structs, round-trips doubles exactly, escapes strings, rejects
 * duplicate keys, and fails a run whose identity gate finds a
 * difference, naming the field. Each platform prices exactly the
 * energy sections of the devices it models, and a sharded platform's
 * energy is the sum of its shards'. HAMS_BENCH_SCALE and
 * HAMS_BENCH_THREADS take only positive decimal integers (and a scale
 * small enough not to wrap the scaled geometry); anything else is
 * fatal, naming the variable and the value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "harness.hh"

#include "expect_fields.hh"
#include "tie_platform.hh"

namespace hams {
namespace {

using bench::BenchGeometry;
using bench::SmpCellResult;
using bench::SweepCell;

/** Tiny geometry so a sweep cell runs in milliseconds. */
BenchGeometry
tinyGeom()
{
    BenchGeometry g;
    g.datasetBytes = 16ull << 20;
    g.hostMemBytes = 16ull << 20;
    g.ssdRawBytes = 1ull << 30;
    g.instructionBudget = 20000;
    return g;
}

/** Scoped override of the environment variable @p name; a null
 *  @p value unsets it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name(name)
    {
        if (const char* old = std::getenv(name))
            saved = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (saved)
            setenv(name, saved->c_str(), 1);
        else
            unsetenv(name);
    }

  private:
    const char* name;
    std::optional<std::string> saved;
};

std::string
sweepErrorMessage(const std::vector<SweepCell>& cells)
{
    try {
        bench::runSweep(cells);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return {};
}

// ---------------------------------------------------------------------
// The HAMS_BENCH_SCALE and HAMS_BENCH_THREADS variables.
// ---------------------------------------------------------------------

TEST(BenchEnv, UnsetMeansDefault)
{
    ScopedEnv scale_env("HAMS_BENCH_SCALE", nullptr);
    ScopedEnv threads_env("HAMS_BENCH_THREADS", nullptr);
    EXPECT_EQ(bench::scale(), 1u);
    EXPECT_GE(bench::benchThreads(), 1u);
}

TEST(BenchEnv, PositiveDecimalIsTaken)
{
    ScopedEnv scale_env("HAMS_BENCH_SCALE", "4");
    ScopedEnv threads_env("HAMS_BENCH_THREADS", "3");
    EXPECT_EQ(bench::scale(), 4u);
    EXPECT_EQ(bench::benchThreads(), 3u);
}

TEST(BenchEnv, MalformedValuesAreFatal)
{
    const std::pair<const char*, void (*)()> vars[] = {
        {"HAMS_BENCH_SCALE", [] { bench::scale(); }},
        {"HAMS_BENCH_THREADS", [] { bench::benchThreads(); }},
    };
    for (const auto& [name, parse] : vars) {
        for (const char* value :
             {"-1", "4x", "abc", "0", "", " 4", "+4",
              "18446744073709551616"}) {
            ScopedEnv env(name, value);
            std::string msg;
            try {
                parse();
            } catch (const FatalError& e) {
                msg = e.what();
            }
            ASSERT_FALSE(msg.empty()) << name << "='" << value << "'";
            EXPECT_NE(msg.find(name), std::string::npos) << msg;
            EXPECT_NE(msg.find(std::string("'") + value + "'"),
                      std::string::npos)
                << msg;
        }
    }
}

TEST(BenchEnv, ScaleThatWouldWrapIsFatal)
{
    // The largest scale scaled() can apply without wrapping is taken
    // and keeps every product exact; one more is rejected.
    const BenchGeometry g;
    std::uint64_t largest = std::max({g.datasetBytes, g.hostMemBytes,
                                      g.ssdRawBytes, g.instructionBudget});
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() / largest;
    {
        ScopedEnv env("HAMS_BENCH_SCALE", std::to_string(limit).c_str());
        ASSERT_EQ(bench::scale(), limit);
        BenchGeometry s = BenchGeometry::scaled();
        EXPECT_EQ(s.datasetBytes / limit, g.datasetBytes);
        EXPECT_EQ(s.hostMemBytes / limit, g.hostMemBytes);
        EXPECT_EQ(s.ssdRawBytes / limit, g.ssdRawBytes);
        EXPECT_EQ(s.instructionBudget / limit, g.instructionBudget);
    }
    ScopedEnv env("HAMS_BENCH_SCALE", std::to_string(limit + 1).c_str());
    EXPECT_THROW(bench::scale(), FatalError);
}

// ---------------------------------------------------------------------
// Error identity and the no-partial-table guarantee.
// ---------------------------------------------------------------------

TEST(RunSweepErrors, UnknownPlatformNamesTheCellSerial)
{
    ScopedEnv env("HAMS_BENCH_THREADS", "1");
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"no-such-platform", "rndWr", tinyGeom()},
    };
    std::string msg = sweepErrorMessage(cells);
    ASSERT_FALSE(msg.empty()) << "sweep with a bogus cell must throw";
    EXPECT_NE(msg.find("no-such-platform"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rndWr"), std::string::npos) << msg;
}

TEST(RunSweepErrors, UnknownPlatformNamesTheCellParallel)
{
    ScopedEnv env("HAMS_BENCH_THREADS", "4");
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"no-such-platform", "rndWr", tinyGeom()},
        {"oracle", "seqRd", tinyGeom()},
        {"mmap", "rndRd", tinyGeom()},
    };
    std::string msg = sweepErrorMessage(cells);
    ASSERT_FALSE(msg.empty()) << "sweep with a bogus cell must throw";
    EXPECT_NE(msg.find("no-such-platform"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rndWr"), std::string::npos) << msg;
}

TEST(RunSweepErrors, LowestIndexFailureWinsDeterministically)
{
    // Two failing cells: the reported one must be the lower index no
    // matter which worker trips first.
    ScopedEnv env("HAMS_BENCH_THREADS", "4");
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"bogus-a", "seqWr", tinyGeom()},
        {"bogus-b", "rndWr", tinyGeom()},
    };
    for (int i = 0; i < 3; ++i) {
        std::string msg = sweepErrorMessage(cells);
        ASSERT_FALSE(msg.empty());
        EXPECT_NE(msg.find("bogus-a"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("bogus-b"), std::string::npos) << msg;
    }
}

// ---------------------------------------------------------------------
// Determinism across thread counts.
// ---------------------------------------------------------------------

TEST(RunSweepDeterminism, TableIdenticalAcrossThreadCounts)
{
    // 1-core, multicore and sharded cells in one sweep.
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"mmap", "rndWr", tinyGeom()},
        {"nvdimm-C", "seqRd", tinyGeom()},
        {"optane-P", "rndRd", tinyGeom()},
        {"hams-TE", "rndRd", tinyGeom(), 2},
        {"hams-TE", "rndRd", tinyGeom(), 4},
        {"mmap", "rndRd", tinyGeom(), 2},
        {"hams-TE", "update", tinyGeom(), 2, 2},
    };

    std::vector<SmpCellResult> serial, parallel;
    {
        ScopedEnv env("HAMS_BENCH_THREADS", "1");
        serial = bench::runSweep(cells);
    }
    {
        ScopedEnv env("HAMS_BENCH_THREADS", "3");
        parallel = bench::runSweep(cells);
    }
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        std::string cell = cells[i].platform + " x " + cells[i].workload +
                           " x " + std::to_string(cells[i].cores) +
                           "-core x " + std::to_string(cells[i].devices) +
                           "-dev";
        ASSERT_EQ(serial[i].smp.cores(), cells[i].cores) << cell;
        ASSERT_EQ(parallel[i].smp.cores(), cells[i].cores) << cell;
        for (std::uint32_t c = 0; c < serial[i].smp.cores(); ++c)
            expectSameFields(serial[i].smp.perCore[c],
                             parallel[i].smp.perCore[c], cell + " per-core");
        expectSameFields(serial[i].smp.combined, parallel[i].smp.combined,
                         cell + " combined");
        ASSERT_EQ(serial[i].hasHamsStats, parallel[i].hasHamsStats) << cell;
        expectSameFields(serial[i].hams, parallel[i].hams,
                         cell + " HamsStats");
        expectSameFields(serial[i].sharded, parallel[i].sharded,
                         cell + " ShardedStats");
    }
}

/**
 * Drive @p qd closed loops of 64 B writes on a small mmap platform and
 * check the runClosedLoop contract: every completion reported once, in
 * index order, at most @p qd accesses left in flight, and (for QD 1)
 * each access issued at its predecessor's completion tick.
 */
void
closedLoopContract(std::uint32_t qd)
{
    auto platform = bench::makePlatform("mmap", tinyGeom());
    std::uint64_t issues = 0, seen = 0;
    Tick prev_done = 0;
    bench::runClosedLoop(
        *platform, qd, 300,
        [&] {
            Addr addr = (issues++ * 7919 * 64) % (64ull << 20);
            return MemAccess{addr, 64, MemOp::Write};
        },
        [&](std::uint64_t n, Tick issued, Tick done) {
            EXPECT_EQ(n, seen++);
            EXPECT_LT(issued, done);
            if (qd == 1) {
                EXPECT_EQ(issued, prev_done);
            }
            prev_done = done;
        });
    EXPECT_GE(seen, 300u);
    EXPECT_LE(issues - seen, qd);
}

TEST(ClosedLoop, LockStepAtQueueDepthOne) { closedLoopContract(1); }

TEST(ClosedLoop, EveryCompletionReportedOnceAtDepthEight)
{
    closedLoopContract(8);
}

TEST(ClosedLoop, SlotPickFollowsTheRecordedScript)
{
    // Three slots on a fixed-latency platform; access k is lines[k]
    // 64 B lines long, so it completes lines[k] * L after issue. The
    // recorded script pins the slot-pick contract as far as a client
    // can see it: the three slots idle at tick 0 issue back to back;
    // after that the access that completed earliest frees the next
    // issue, at its completion tick; and a slot freed at tick t issues
    // before a completion event already queued at the same t fires.
    // Which slot index carries an access is not observable: after the
    // first three issues exactly one slot is idle at every pick.
    constexpr Tick L = TiePlatform::latency;
    const std::vector<std::uint32_t> lines{3, 1, 2, 1, 1, 2, 1, 2, 1, 1};
    TiePlatform tie;
    std::uint32_t issued_n = 0;
    std::string trace; // "I<k>" per issue, "D<n>" per completion
    std::vector<std::pair<Tick, Tick>> reported;
    bench::runClosedLoop(
        tie, /*queue_depth=*/3, /*completions=*/8,
        [&] {
            std::uint32_t k = issued_n++;
            trace += " I" + std::to_string(k);
            return MemAccess{Addr(k) * 4096, lines.at(k) * 64, MemOp::Read};
        },
        [&](std::uint64_t n, Tick issued, Tick done) {
            EXPECT_EQ(n, reported.size()) << "completion reported out of order";
            trace += " D" + std::to_string(n);
            reported.emplace_back(issued, done);
        });

    EXPECT_EQ(trace, " I0 I1 I2 D0 I3 D1 I4 D2 I5 D3 I6 D4 I7 D5 I8 D6 I9 D7");
    // Issue ticks, in issue order (the platform sees access k at k's
    // address).
    const std::vector<Tick> issue_at{0,     0,     0,     L,     2 * L,
                                     2 * L, 3 * L, 3 * L, 4 * L, 4 * L};
    ASSERT_EQ(tie.calls.size(), issue_at.size());
    for (std::size_t k = 0; k < issue_at.size(); ++k) {
        EXPECT_EQ(tie.calls[k].at, issue_at[k]) << "issue " << k;
        EXPECT_EQ(tie.calls[k].addr, Addr(k) * 4096) << "issue " << k;
    }
    // Every completion reported once, in completion order: accesses
    // 1, 2, 3, 0, 4, 5, 6, 7; accesses 8 and 9 stay in flight.
    const std::vector<std::pair<Tick, Tick>> completions{
        {0, L},         {0, 2 * L},     {L, 2 * L},     {0, 3 * L},
        {2 * L, 3 * L}, {2 * L, 4 * L}, {3 * L, 4 * L}, {3 * L, 5 * L}};
    EXPECT_EQ(reported, completions);
}

// ---------------------------------------------------------------------
// Energy: which devices each platform reports, and sharded merge.
// ---------------------------------------------------------------------

/** Which Fig. 19 memory-side sections a platform prices. */
struct EnergySections
{
    const char* platform;
    bool nvdimm;
    bool internalDram;
    bool flash;
    FlashMedia media; //!< checked when flash
};

TEST(EnergySections, EachPlatformPricesItsOwnDevices)
{
    const EnergySections table[] = {
        {"mmap", true, true, true, FlashMedia::ZNand},
        {"mmap-nvme", true, true, true, FlashMedia::VNand},
        {"mmap-sata", true, true, true, FlashMedia::VNand},
        {"flatflash-P", false, true, true, FlashMedia::ZNand},
        {"flatflash-M", true, true, true, FlashMedia::ZNand},
        // Its SSD has a buffer, but nvdimm-C prices none.
        {"nvdimm-C", true, false, true, FlashMedia::ZNand},
        // Optane media draws no energy in this model.
        {"optane-P", false, false, false, FlashMedia::ZNand},
        {"optane-M", true, false, false, FlashMedia::ZNand},
        {"hams-LP", true, true, true, FlashMedia::ZNand},
        {"hams-LE", true, true, true, FlashMedia::ZNand},
        // hams-T moves data by direct DMA: no SSD buffer.
        {"hams-TP", true, false, true, FlashMedia::ZNand},
        {"hams-TE", true, false, true, FlashMedia::ZNand},
        {"oracle", true, false, false, FlashMedia::ZNand},
    };
    std::vector<std::string> covered;
    for (const EnergySections& row : table) {
        SCOPED_TRACE(row.platform);
        covered.push_back(row.platform);
        auto p = bench::makePlatform(row.platform, tinyGeom());
        ASSERT_NE(p, nullptr);
        RunResult r = bench::runOn(*p, "rndRd", tinyGeom()).combined;
        EnergyBreakdownJ e = p->memoryEnergy(r.simTime);
        EXPECT_EQ(e.cpu, 0.0);
        EXPECT_EQ(e.nvdimm > 0, row.nvdimm);
        EXPECT_EQ(e.internalDram > 0, row.internalDram);
        EXPECT_EQ(e.znand > 0, row.flash);
        DeviceActivity a = p->deviceActivity();
        EXPECT_EQ(a.memoryRanks > 0, row.nvdimm);
        EXPECT_EQ(a.bufferRanks > 0, row.internalDram);
        EXPECT_EQ(a.dies > 0, row.flash);
        if (row.flash) {
            EXPECT_EQ(a.media, row.media);
        }
    }
    for (const std::string& name : bench::allPlatformNames())
        EXPECT_NE(std::find(covered.begin(), covered.end(), name),
                  covered.end())
            << name;
}

TEST(EnergySections, ShardedEnergyIsTheSumOfItsShards)
{
    // Pricing the merged activity rounds differently from summing
    // per-shard prices, so this is the one comparison with a tolerance.
    BenchGeometry geom = tinyGeom();
    for (const char* name : {"hams-LE", "mmap-nvme"}) {
        SCOPED_TRACE(name);
        auto sp = bench::makeShardedPlatform(name, geom, 2);
        ASSERT_NE(sp, nullptr);
        SmpResult r = bench::runOn(*sp, "rndRd", geom, 2);
        Tick t = r.combined.simTime;
        EnergyBreakdownJ sum{};
        for (std::uint32_t i = 0; i < sp->shardCount(); ++i)
            mergeFields(sum, sp->shard(i).memoryEnergy(t));
        EnergyBreakdownJ merged = sp->memoryEnergy(t);
        EXPECT_GT(merged.znand, 0.0);
        EnergyBreakdownJ::forEachField(
            merged, sum, [](auto, const char* field, double m, double s) {
                EXPECT_NEAR(m, s, 1e-12 * s) << field;
            });
        EXPECT_EQ(sp->deviceActivity().media,
                  sp->shard(0).deviceActivity().media);
    }
}

// ---------------------------------------------------------------------
// The bench harness: generated JSON, fingerprints and gates.
// ---------------------------------------------------------------------

#define HAMS_TEST_INNER_FIELDS(X)                                          \
    X(keep, std::uint64_t, gcStallTicks)                                   \
    X(keep, double, p99Us)

struct TestInner
{
    HAMS_FIELDS(TestInner, HAMS_TEST_INNER_FIELDS)
};

#define HAMS_TEST_ROW_FIELDS(X)                                            \
    X(keep, double, opsPerSec)                                             \
    X(keep, bool, rerunIdentical)                                          \
    X(keep, std::string, label)                                            \
    X(keep, TestInner, innerStats)

struct TestRow
{
    HAMS_FIELDS(TestRow, HAMS_TEST_ROW_FIELDS)
};

/** Two fields that map to the same snake_case key. */
#define HAMS_TEST_CLASH_FIELDS(X)                                          \
    X(keep, std::uint64_t, hitRate)                                        \
    X(keep, std::uint64_t, hit_rate)

struct TestClash
{
    HAMS_FIELDS(TestClash, HAMS_TEST_CLASH_FIELDS)
};

TEST(BenchHarness, KeysAreSnakeCaseAndListedStructsNest)
{
    EXPECT_EQ(bench::snakeCase("gcStallTicks"), "gc_stall_ticks");
    EXPECT_EQ(bench::snakeCase("p999Us"), "p999_us");
    EXPECT_EQ(bench::snakeCase("cores"), "cores");

    TestRow row{1.5, true, "cell", {7, 0.25}};
    EXPECT_EQ(bench::toJson(row),
              "{\"ops_per_sec\": 1.5, \"rerun_identical\": true, "
              "\"label\": \"cell\", \"inner_stats\": "
              "{\"gc_stall_ticks\": 7, \"p99_us\": 0.25}}");
}

TEST(BenchHarness, DoublesParseBackBitEqual)
{
    const double values[] = {0.1,
                             1.0 / 3.0,
                             -2.5e-7,
                             123456.789,
                             6.02214076e23,
                             1e-300,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
    for (double v : values) {
        std::string json = bench::toJson(TestInner{0, v});
        std::string key = "\"p99_us\": ";
        std::size_t at = json.find(key);
        ASSERT_NE(at, std::string::npos) << json;
        double back = std::strtod(json.c_str() + at + key.size(), nullptr);
        EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << json;
    }
    // Shortest form: no print-precision padding.
    EXPECT_EQ(bench::toJson(TestInner{0, 0.1}),
              "{\"gc_stall_ticks\": 0, \"p99_us\": 0.1}");
}

TEST(BenchHarness, StringsAreEscapedAndBoolsSpelledOut)
{
    TestRow row{0, false, "a\"b\\c\nd", {}};
    std::string json = bench::toJson(row);
    EXPECT_NE(json.find("\"label\": \"a\\\"b\\\\c\\u000ad\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"rerun_identical\": false"), std::string::npos)
        << json;
}

TEST(BenchHarness, DuplicateKeysAreRejected)
{
    EXPECT_THROW(bench::toJson(TestClash{}), std::logic_error);
    // A row's own name key is taken too.
    bench::BenchReport report;
    EXPECT_THROW(report.row("cell", TestClash{}), std::logic_error);
}

TEST(BenchHarness, FingerprintCoversNestedFields)
{
    TestRow a{1.5, true, "cell", {7, 0.25}};
    TestRow b = a;
    EXPECT_EQ(bench::fingerprint(a), bench::fingerprint(b));
    b.innerStats.gcStallTicks = 8;
    EXPECT_NE(bench::fingerprint(a), bench::fingerprint(b));
}

TEST(BenchHarness, FailingIdentityGateNamesTheFieldAndFailsTheRun)
{
    std::string path = ::testing::TempDir() + "bench_harness_gate.json";
    TestRow a{1.5, true, "cell", {7, 0.25}};
    TestRow b = a;

    bench::BenchReport pass;
    EXPECT_TRUE(pass.same(a, b, "sweep/cell", "rerun identical"));
    pass.row("sweep/cell", a);
    EXPECT_EQ(pass.finish(path), 0);

    b.innerStats.p99Us = 0.5;
    bench::BenchReport fail;
    EXPECT_FALSE(fail.same(a, b, "sweep/cell", "rerun identical"));
    fail.row("sweep/cell", a);
    ASSERT_EQ(fail.failures().size(), 1u);
    const std::string& msg = fail.failures()[0];
    EXPECT_NE(msg.find("sweep/cell"), std::string::npos) << msg;
    EXPECT_NE(msg.find("innerStats.p99Us"), std::string::npos) << msg;
    EXPECT_EQ(fail.finish(path), 1);

    // The document is still written for the failing run.
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("{\"name\": \"sweep/cell\", "
                              "\"ops_per_sec\": 1.5"),
              std::string::npos)
        << text.str();
    EXPECT_NE(text.str().find("\"context\": {\"compiler\""),
              std::string::npos)
        << text.str();
    std::remove(path.c_str());
}

} // namespace
} // namespace hams
