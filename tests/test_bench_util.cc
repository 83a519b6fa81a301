/**
 * @file
 * Sweep-runner tests: a failing cell's error names the exact
 * (platform × workload) cell at any thread count and never yields a
 * partial table, and sweep tables are bit-identical across
 * HAMS_BENCH_THREADS settings — the property that lets the figure
 * harnesses print deterministic tables from parallel runs — and the
 * closed-loop queue-depth driver reports every completion once.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hh"

#include "expect_fields.hh"

namespace hams {
namespace {

using bench::BenchGeometry;
using bench::SmpCellResult;
using bench::SmpSweepCell;
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

/** Scoped HAMS_BENCH_THREADS override. */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(const char* value)
    {
        if (const char* old = std::getenv("HAMS_BENCH_THREADS"))
            saved = old;
        setenv("HAMS_BENCH_THREADS", value, 1);
    }

    ~ThreadsEnv()
    {
        if (saved.empty())
            unsetenv("HAMS_BENCH_THREADS");
        else
            setenv("HAMS_BENCH_THREADS", saved.c_str(), 1);
    }

  private:
    std::string saved;
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
// Error identity and the no-partial-table guarantee.
// ---------------------------------------------------------------------

TEST(RunSweepErrors, UnknownPlatformNamesTheCellSerial)
{
    ThreadsEnv env("1");
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
    ThreadsEnv env("4");
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
    ThreadsEnv env("4");
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
    std::vector<SweepCell> cells = {
        {"oracle", "rndRd", tinyGeom()},
        {"mmap", "rndWr", tinyGeom()},
        {"nvdimm-C", "seqRd", tinyGeom()},
        {"optane-P", "rndRd", tinyGeom()},
    };

    std::vector<RunResult> serial, parallel;
    {
        ThreadsEnv env("1");
        serial = bench::runSweep(cells);
    }
    {
        ThreadsEnv env("4");
        parallel = bench::runSweep(cells);
    }
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectSameFields(serial[i], parallel[i],
                         cells[i].platform + " x " + cells[i].workload);
}

TEST(RunSweepDeterminism, SmpSweepIdenticalAcrossThreadCounts)
{
    std::vector<SmpSweepCell> cells = {
        {"hams-TE", "rndRd", 2, tinyGeom()},
        {"hams-TE", "rndRd", 4, tinyGeom()},
        {"mmap", "rndRd", 2, tinyGeom()},
    };

    std::vector<SmpCellResult> serial, parallel;
    {
        ThreadsEnv env("1");
        serial = bench::runSmpSweep(cells);
    }
    {
        ThreadsEnv env("3");
        parallel = bench::runSmpSweep(cells);
    }
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].smp.cores(), parallel[i].smp.cores());
        for (std::uint32_t c = 0; c < serial[i].smp.cores(); ++c)
            expectSameFields(serial[i].smp.perCore[c],
                             parallel[i].smp.perCore[c], "per-core");
        expectSameFields(serial[i].smp.combined, parallel[i].smp.combined,
                         "combined");
        ASSERT_EQ(serial[i].hasHamsStats, parallel[i].hasHamsStats);
        expectSameFields(serial[i].hams, parallel[i].hams, "HamsStats");
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
            if (qd == 1)
                EXPECT_EQ(issued, prev_done);
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

} // namespace
} // namespace hams
