/**
 * @file
 * Workload-generator tests: determinism, footprint bounds, access-mix
 * properties per family (Table III) and op structure.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/logging.hh"
#include "workload/workload.hh"

namespace hams {
namespace {

constexpr std::uint64_t datasetBytes = 64ull << 20;

struct StreamStats
{
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t ops = 0;
    std::uint64_t flushes = 0;
    std::uint64_t compute = 0;
    Addr maxAddr = 0;
    std::set<std::uint64_t> pages;
};

StreamStats
collect(WorkloadGenerator& gen, std::uint64_t n_ops)
{
    StreamStats s;
    WorkloadOp op;
    for (std::uint64_t i = 0; i < n_ops; ++i) {
        EXPECT_TRUE(gen.next(op));
        s.compute += op.computeInstructions;
        if (op.hasAccess) {
            ++s.accesses;
            if (op.access.op == MemOp::Read)
                ++s.reads;
            else
                ++s.writes;
            s.maxAddr = std::max(s.maxAddr,
                                 Addr(op.access.addr + op.access.size));
            s.pages.insert(op.access.addr / 4096);
        }
        s.ops += op.opBoundary;
        s.flushes += op.flushBarrier;
    }
    return s;
}

TEST(Workloads, AllTwelveNamesConstruct)
{
    auto names = allWorkloadNames();
    EXPECT_EQ(names.size(), 12u);
    for (const auto& n : names) {
        auto gen = makeWorkload(n, datasetBytes);
        ASSERT_NE(gen, nullptr);
        EXPECT_EQ(gen->spec().name, n);
    }
}

TEST(Workloads, UnknownNameRejected)
{
    EXPECT_THROW(makeWorkload("nonsense", datasetBytes), FatalError);
}

TEST(Workloads, DeterministicStreams)
{
    auto a = makeWorkload("rndRd", datasetBytes, 7);
    auto b = makeWorkload("rndRd", datasetBytes, 7);
    WorkloadOp oa, ob;
    for (int i = 0; i < 5000; ++i) {
        a->next(oa);
        b->next(ob);
        ASSERT_EQ(oa.hasAccess, ob.hasAccess);
        if (oa.hasAccess) {
            ASSERT_EQ(oa.access.addr, ob.access.addr);
            ASSERT_EQ(oa.access.op, ob.access.op);
        }
    }
}

TEST(Workloads, ResetReplaysIdentically)
{
    auto gen = makeWorkload("update", datasetBytes, 3);
    WorkloadOp op;
    std::vector<Addr> first;
    for (int i = 0; i < 1000; ++i) {
        gen->next(op);
        if (op.hasAccess)
            first.push_back(op.access.addr);
    }
    gen->reset();
    std::size_t idx = 0;
    for (int i = 0; i < 1000; ++i) {
        gen->next(op);
        if (op.hasAccess) {
            ASSERT_EQ(op.access.addr, first[idx++]);
        }
    }
}

TEST(Workloads, AccessesStayInsideDataset)
{
    for (const auto& n : allWorkloadNames()) {
        auto gen = makeWorkload(n, datasetBytes);
        StreamStats s = collect(*gen, 20000);
        EXPECT_LE(s.maxAddr, datasetBytes) << n;
        EXPECT_GT(s.accesses, 0u) << n;
    }
}

TEST(Workloads, AccessesAreCacheLineAlignedAndSized)
{
    for (const auto& n : allWorkloadNames()) {
        auto gen = makeWorkload(n, datasetBytes);
        WorkloadOp op;
        for (int i = 0; i < 5000; ++i) {
            gen->next(op);
            if (op.hasAccess) {
                ASSERT_EQ(op.access.addr % 64, 0u) << n;
                ASSERT_EQ(op.access.size, 64u) << n;
            }
        }
    }
}

TEST(Workloads, ReadWorkloadsRead)
{
    auto gen = makeWorkload("seqRd", datasetBytes);
    StreamStats s = collect(*gen, 10000);
    EXPECT_EQ(s.writes, 0u);
}

TEST(Workloads, WriteWorkloadsWrite)
{
    auto gen = makeWorkload("rndWr", datasetBytes);
    StreamStats s = collect(*gen, 10000);
    EXPECT_EQ(s.reads, 0u);
}

TEST(Workloads, SequentialStreamsTouchConsecutivePages)
{
    auto gen = makeWorkload("seqRd", datasetBytes);
    WorkloadOp op;
    Addr prev = 0;
    bool first = true;
    for (int i = 0; i < 1000; ++i) {
        gen->next(op);
        if (!op.hasAccess)
            continue;
        if (!first) {
            ASSERT_EQ(op.access.addr, prev + 64);
        }
        prev = op.access.addr;
        first = false;
    }
}

TEST(Workloads, RandomStreamsSpreadAcrossPages)
{
    auto gen = makeWorkload("rndRd", datasetBytes);
    StreamStats s = collect(*gen, 64 * 256);
    // 256 random page-ops touch many distinct pages.
    EXPECT_GT(s.pages.size(), 100u);
}

TEST(Workloads, MicroOpsAreWholePages)
{
    auto gen = makeWorkload("seqRd", datasetBytes);
    StreamStats s = collect(*gen, 6500);
    // 64 accesses + 1 boundary per op.
    EXPECT_NEAR(static_cast<double>(s.accesses) / s.ops, 64.0, 1.0);
}

TEST(Workloads, SqliteSelectsAreComputeHeavy)
{
    auto gen = makeWorkload("rndSel", datasetBytes);
    StreamStats s = collect(*gen, 20000);
    // Selects: >80% of instructions are compute (paper Fig. 7a: 83%).
    double compute_frac =
        static_cast<double>(s.compute) / (s.compute + s.accesses);
    EXPECT_GT(compute_frac, 0.95);
    EXPECT_EQ(s.writes, 0u);
    EXPECT_EQ(s.flushes, 0u);
}

TEST(Workloads, SqliteInsertsJournalAndFlush)
{
    auto gen = makeWorkload("rndIns", datasetBytes);
    StreamStats s = collect(*gen, 50000);
    EXPECT_GT(s.writes, 0u);
    EXPECT_GT(s.flushes, 0u);
    // Group commit: one flush per 32 ops.
    EXPECT_NEAR(static_cast<double>(s.ops) / s.flushes, 32.0, 2.0);
}

TEST(Workloads, RodiniaHasLowStoreRatio)
{
    for (const char* n : {"BFS", "KMN", "NN"}) {
        auto gen = makeWorkload(n, datasetBytes);
        StreamStats s = collect(*gen, 30000);
        double store_frac =
            static_cast<double>(s.writes) / s.accesses;
        EXPECT_LT(store_frac, 0.1) << n;
    }
}

TEST(Workloads, TinyDatasetRejected)
{
    EXPECT_THROW(makeWorkload("seqRd", 1024), FatalError);
}

} // namespace
} // namespace hams
