/**
 * @file
 * Power-failure and recovery tests (paper SSIV-B, SSV-C, Fig. 15):
 * journal-tag scanning, replay of pending commands, tag-array
 * persistence, and end-to-end data integrity across crashes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/hams_system.hh"
#include "flash/fil.hh"
#include "sim/alloc_hook.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/device_configs.hh"
#include "ssd/ssd.hh"

namespace hams {
namespace {

HamsSystemConfig
crashConfig(HamsMode mode, HamsTopology topo = HamsTopology::Loose)
{
    HamsSystemConfig c;
    c.mode = mode;
    c.topology = topo;
    c.nvdimm.capacity = 256ull << 20;
    c.ssdRawBytes = 2ull << 30;
    c.pinnedBytes = 64ull << 20;
    c.queueEntries = 256;
    return c;
}

TEST(Recovery, CleanShutdownRecoversInstantly)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    std::uint32_t v = 42;
    sys.write(0, &v, sizeof(v));
    sys.powerFail();
    sys.recover();
    EXPECT_EQ(sys.engineStats().replayed, 0u);
    std::uint32_t out = 0;
    sys.read(0, &out, sizeof(out));
    EXPECT_EQ(out, v);
}

TEST(Recovery, AckedWritesSurviveCrash)
{
    // Every acked write must be readable after a crash: the NVDIMM is
    // battery-backed and dirty state is replayable.
    HamsSystem sys(crashConfig(HamsMode::Extend));
    std::vector<std::uint32_t> vals;
    for (std::uint32_t i = 0; i < 16; ++i) {
        std::uint32_t v = 0xD000 + i;
        sys.write(Addr(i) * 333 * 1024, &v, sizeof(v));
        vals.push_back(v);
    }
    sys.powerFail();
    sys.recover();
    for (std::uint32_t i = 0; i < 16; ++i) {
        std::uint32_t out = 0;
        sys.read(Addr(i) * 333 * 1024, &out, sizeof(out));
        EXPECT_EQ(out, vals[i]) << "address " << i;
    }
}

TEST(Recovery, InFlightFillIsReplayed)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    EventQueue& eq = sys.eventQueue();

    // Seed ULL-Flash with data via a write + eviction.
    std::uint64_t magic = 0xABCDEF01;
    sys.write(0, &magic, sizeof(magic));
    std::uint32_t zero = 0;
    sys.write(sys.pinnedRegion().cacheBytes(), &zero, sizeof(zero));

    // Start a fill of page 0 again but crash before it completes.
    bool completed = false;
    sys.access(MemAccess{0, 64, MemOp::Read}, eq.now(),
               [&](Tick, const LatencyBreakdown&) { completed = true; });
    EXPECT_GT(sys.nvmeEngine().scanJournal().size(), 0u);
    sys.powerFail();
    EXPECT_FALSE(completed);

    // Recovery must replay the journalled fill (Fig. 15 phase 2/3).
    sys.recover();
    EXPECT_GT(sys.engineStats().replayed, 0u);
    EXPECT_GT(sys.stats().replayedCommands, 0u);

    std::uint64_t out = 0;
    sys.read(0, &out, sizeof(out));
    EXPECT_EQ(out, magic);
}

TEST(Recovery, InFlightEvictionIsReplayedFromPrpClone)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    EventQueue& eq = sys.eventQueue();

    // Dirty page 0 in the cache.
    std::uint64_t magic = 0x1BADB002;
    sys.write(0, &magic, sizeof(magic));

    // Touch the aliasing page: this issues evict(page0)+fill and we
    // crash immediately, while both commands are journalled.
    sys.access(MemAccess{sys.pinnedRegion().cacheBytes(), 64, MemOp::Read},
               eq.now(), nullptr);
    auto pending = sys.nvmeEngine().scanJournal();
    ASSERT_GE(pending.size(), 2u); // evict + fill
    sys.powerFail();
    sys.recover();

    // The eviction data came from the PRP-pool clone in pinned NVDIMM,
    // so ULL-Flash now has the dirty page even though the crash hit
    // mid-flight.
    std::uint64_t out = 0;
    sys.read(0, &out, sizeof(out));
    EXPECT_EQ(out, magic);
}

TEST(Recovery, JournalTagSetWhileInFlightClearAfter)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    EventQueue& eq = sys.eventQueue();

    sys.access(MemAccess{0, 64, MemOp::Read}, 0, nullptr);
    EXPECT_EQ(sys.nvmeEngine().scanJournal().size(), 1u);
    eq.run();
    EXPECT_TRUE(sys.nvmeEngine().scanJournal().empty());
    EXPECT_GT(sys.engineStats().journalClears, 0u);
}

TEST(Recovery, PersistModeCrashSafety)
{
    HamsSystem sys(crashConfig(HamsMode::Persist));
    std::vector<std::uint32_t> vals;
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    // Alternate aliasing pages: every write misses, evicting with FUA.
    for (std::uint32_t i = 0; i < 8; ++i) {
        std::uint32_t v = 0xF00D + i;
        sys.write((i % 2) ? cache : 0, &v, sizeof(v));
        vals.push_back(v);
    }
    sys.powerFail();
    sys.recover();
    std::uint32_t out = 0;
    sys.read(cache, &out, sizeof(out));
    EXPECT_EQ(out, vals[7]); // last write to the aliasing page
    sys.read(0, &out, sizeof(out));
    EXPECT_EQ(out, vals[6]);
}

TEST(Recovery, TightTopologyCrashSafety)
{
    HamsSystem sys(crashConfig(HamsMode::Extend, HamsTopology::Tight));
    std::uint64_t magic = 0x7E57AB1E;
    sys.write(12345, &magic, sizeof(magic));
    sys.powerFail();
    sys.recover();
    std::uint64_t out = 0;
    sys.read(12345, &out, sizeof(out));
    EXPECT_EQ(out, magic);
}

TEST(Recovery, RepeatedCrashesConverge)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    std::uint64_t v = 0xCAFE;
    sys.write(4096, &v, sizeof(v));
    for (int i = 0; i < 4; ++i) {
        sys.powerFail();
        sys.recover();
    }
    std::uint64_t out = 0;
    sys.read(4096, &out, sizeof(out));
    EXPECT_EQ(out, v);
}

TEST(Recovery, BusyBitsClearedOnRecovery)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    sys.access(MemAccess{0, 64, MemOp::Read}, 0, nullptr); // in flight
    sys.powerFail();
    sys.recover();
    const MosTagArray& tags = sys.controller().tagArray();
    for (std::uint64_t i = 0; i < tags.sets(); ++i)
        ASSERT_FALSE(tags.entry(i).busy);
}

TEST(Recovery, RandomisedCrashConsistency)
{
    // Property test: random writes with crashes injected between them;
    // every acked write must be durable, reads must never see torn or
    // foreign data.
    HamsSystem sys(crashConfig(HamsMode::Extend));
    Rng rng(2024);
    std::unordered_map<std::uint64_t, std::uint64_t> expected;

    for (int round = 0; round < 40; ++round) {
        Addr addr = rng.below(sys.capacity() / 64) * 64;
        std::uint64_t val = rng.next();
        sys.write(addr, &val, sizeof(val));
        expected[addr] = val;
        if (round % 7 == 3) {
            sys.powerFail();
            sys.recover();
        }
    }
    sys.powerFail();
    sys.recover();
    for (const auto& [addr, val] : expected) {
        std::uint64_t out = 0;
        sys.read(addr, &out, sizeof(out));
        ASSERT_EQ(out, val) << "addr " << addr;
    }
}

TEST(Recovery, PooledContextsReclaimedAcrossPowerCycles)
{
    // A power failure drops every in-flight event; the pooled contexts
    // those events referenced (controller Ops, NVMe completion/data
    // contexts) must be reclaimed, not stranded: the pools' high-water
    // marks have to stabilise no matter how many crash cycles hit
    // mid-I/O.
    HamsSystem sys(crashConfig(HamsMode::Extend));
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();

    auto cycle = [&](int i) {
        // Dirty-miss traffic (aliasing pages) plus an access left
        // in flight at the moment of the crash.
        std::uint32_t v = static_cast<std::uint32_t>(i);
        sys.write((i % 2) ? cache : 0, &v, sizeof(v));
        sys.write((i % 2) ? 0 : cache, &v, sizeof(v));
        sys.access(MemAccess{(i % 2) ? Addr(0) : cache, 64, MemOp::Read},
                   sys.eventQueue().now(), nullptr);
        sys.powerFail();
        sys.recover();
    };

    for (int i = 0; i < 4; ++i)
        cycle(i);
    std::size_t ops = sys.controller().opContextsAllocated();
    std::size_t staging = sys.controller().stagingFramesAllocated();
    std::size_t cpl = sys.nvmeController().cplContextsAllocated();
    std::size_t data = sys.nvmeController().dataContextsAllocated();
    std::uint32_t prp_free = sys.pinnedRegion().prpFramesFree();

    for (int i = 4; i < 16; ++i)
        cycle(i);
    EXPECT_EQ(sys.controller().opContextsAllocated(), ops);
    EXPECT_EQ(sys.controller().stagingFramesAllocated(), staging);
    EXPECT_EQ(sys.nvmeController().cplContextsAllocated(), cpl);
    EXPECT_EQ(sys.nvmeController().dataContextsAllocated(), data);
    // Replay returns every stranded PRP clone frame to the pool.
    EXPECT_EQ(sys.pinnedRegion().prpFramesFree(), prp_free);
}

TEST(Recovery, SupercapDrainInterruptedBySecondFailure)
{
    // A second power failure mid-drain: only the frames the supercap
    // managed to destage (the lowest-keyed prefix — the drain visits
    // dirty keys in ascending order) are durable; everything past the
    // interruption point reverts to its last durable version, not to
    // torn bytes.
    SsdConfig cfg = ullFlashConfig(1ull << 30, /*functional_data=*/true,
                                   /*with_supercap=*/true,
                                   /*with_buffer=*/true);
    cfg.buffer.capacity = 1ull << 20;
    EventQueue eq;
    Ssd ssd(cfg, &eq);

    std::vector<std::uint8_t> frame(nvmeBlockSize), out(nvmeBlockSize);
    constexpr std::uint64_t frames = 8;
    for (std::uint64_t b = 0; b < frames; ++b) {
        std::memset(frame.data(), static_cast<int>(0x10 + b),
                    frame.size());
        ssd.hostWrite(b, 1, /*fua=*/false, 0, frame.data());
    }
    ASSERT_EQ(ssd.buffer()->dirtyCount(), frames);

    constexpr std::uint64_t budget = 3;
    eq.reset(false);
    Tick drain = ssd.powerFail(budget);
    ssd.powerRestore();

    // The drain tick covers exactly the saved prefix.
    std::uint64_t programs =
        (budget * nvmeBlockSize + cfg.geom.pageSize - 1) /
        cfg.geom.pageSize;
    std::uint64_t pus = cfg.geom.parallelUnits();
    EXPECT_EQ(drain, ((programs + pus - 1) / pus) * cfg.nand.tPROG);

    for (std::uint64_t b = 0; b < frames; ++b) {
        ssd.peek(b, 1, out.data());
        std::uint8_t expect =
            b < budget ? static_cast<std::uint8_t>(0x10 + b) : 0;
        EXPECT_EQ(out[0], expect) << "block " << b;
        EXPECT_EQ(out[nvmeBlockSize - 1], expect) << "block " << b;
    }
    // The interrupted drain leaves no dirty residue to resurrect.
    EXPECT_TRUE(ssd.buffer()->dirtyFrames().empty());
}

TEST(Recovery, LeakedFlashOpHandleAcrossPowerFailIsFatal)
{
    // The FTL must release every FlashOpHandle in onPowerFail();
    // powerRestore() resets the handle registry, so a survivor would
    // alias a post-boot op. A handle the FTL does not own models
    // exactly that bug and must trip the fatal check.
    SsdConfig cfg = ullFlashConfig(1ull << 30);
    EventQueue eq;
    Ssd ssd(cfg, &eq);

    FlashOp op;
    op.type = FlashOp::Type::Program;
    op.ppn = 0;
    op.bytes = cfg.geom.pageSize;
    op.background = true;
    FlashOpHandle leak = ssd.flashLayer().submitTracked(op, 0);
    ASSERT_EQ(ssd.flashLayer().trackedOps(), 1u);
    EXPECT_THROW(ssd.powerFail(), FatalError);
    ssd.flashLayer().release(leak);
}

TEST(Recovery, BackToBackPowerFailuresWithoutRecovery)
{
    // A failure during the failure handling itself (e.g. supercap
    // glitch): powerFail lands twice before anyone calls recover().
    // The second pass must be idempotent — no double-free of pooled
    // contexts, no fatal — and recovery must still produce a system
    // that serves acked data and reclaims every pool across further
    // cycles.
    HamsSystem sys(crashConfig(HamsMode::Extend));
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();

    std::uint32_t v = 0xFEED;
    sys.write(0, &v, sizeof(v));
    sys.write(cache, &v, sizeof(v));
    sys.access(MemAccess{0, 64, MemOp::Read}, sys.eventQueue().now(),
               nullptr); // in flight
    sys.powerFail();
    sys.powerFail(); // second failure before recovery
    sys.recover();

    std::uint32_t got = 0;
    sys.read(0, &got, sizeof(got));
    EXPECT_EQ(got, v);
    sys.read(cache, &got, sizeof(got));
    EXPECT_EQ(got, v);

    std::size_t cpl = sys.nvmeController().cplContextsAllocated();
    std::size_t ops = sys.controller().opContextsAllocated();
    for (int i = 0; i < 6; ++i) {
        std::uint32_t w = static_cast<std::uint32_t>(i);
        sys.write((i % 2) ? cache : 0, &w, sizeof(w));
        sys.access(MemAccess{(i % 2) ? Addr(0) : cache, 64, MemOp::Read},
                   sys.eventQueue().now(), nullptr);
        sys.powerFail();
        sys.powerFail();
        sys.recover();
    }
    EXPECT_EQ(sys.nvmeController().cplContextsAllocated(), cpl);
    EXPECT_EQ(sys.controller().opContextsAllocated(), ops);
}

TEST(Recovery, OnlineRecoveryServesDuringRestore)
{
    // Degraded-service mode: a read issued while the NVDIMM is still
    // streaming back must be served long before recovery completes —
    // stalled on its frame's priority restore, never served stale —
    // and return exactly what a blocking-recovery twin returns.
    HamsSystem sys(crashConfig(HamsMode::Extend));
    std::uint64_t magic = 0x0DDC0FFEEull;
    sys.write(0, &magic, sizeof(magic));
    sys.powerFail();

    bool rec_done = false;
    Tick rec_tick = 0;
    sys.beginRecovery([&](Tick t) {
        rec_done = true;
        rec_tick = t;
    });
    EXPECT_TRUE(sys.recovering());

    std::uint64_t out = 0;
    Tick served = sys.read(0, &out, sizeof(out));
    EXPECT_EQ(out, magic);
    EXPECT_FALSE(rec_done)
        << "first service did not beat the full restore";
    EXPECT_GT(sys.stats().degradedAccesses, 0u);
    EXPECT_GT(sys.stats().restoreStalls, 0u)
        << "the read was never stalled on an unrestored frame";

    while (!rec_done && sys.eventQueue().step()) {
    }
    ASSERT_TRUE(rec_done);
    EXPECT_FALSE(sys.recovering());
    EXPECT_LT(served, rec_tick);

    // Bit-identical to a twin that recovers with the blocking wrapper
    // before serving anything.
    HamsSystem twin(crashConfig(HamsMode::Extend));
    twin.write(0, &magic, sizeof(magic));
    twin.powerFail();
    twin.recover();
    std::uint64_t twin_out = 0;
    twin.read(0, &twin_out, sizeof(twin_out));
    EXPECT_EQ(out, twin_out);
}

TEST(Recovery, SecondFailureMidRestoreIsRecoverable)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    EventQueue& eq = sys.eventQueue();
    FaultInjector inj(eq, 31);
    inj.watchSystem(&sys);

    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    std::vector<std::pair<Addr, std::uint32_t>> acked;
    for (std::uint32_t i = 0; i < 8; ++i) {
        Addr a = (i % 2 ? cache : 0) + Addr(i) * 512 * 1024;
        std::uint32_t v = 0xAB00 + i;
        sys.write(a, &v, sizeof(v));
        acked.emplace_back(a, v);
    }
    // An aliasing miss in flight keeps the journal non-empty at the cut.
    sys.access(MemAccess{cache, 64, MemOp::Read}, eq.now(), nullptr);
    sys.powerFail();

    bool first_done = false;
    sys.beginRecovery([&](Tick) { first_done = true; });
    FaultPlan plan;
    plan.policy = CutPolicy::MidRestore;
    inj.arm(plan);
    ASSERT_TRUE(inj.pumpToCut());
    EXPECT_FALSE(first_done);
    EXPECT_EQ(sys.nvdimmModule().state(), Nvdimm::State::Restoring);
    EXPECT_GT(sys.nvdimmModule().framesRestored(), 0u);
    EXPECT_LT(sys.nvdimmModule().framesRestored(),
              sys.nvdimmModule().restoreFrames());

    inj.cut(sys); // the second failure lands mid-restore
    sys.recover();

    for (const auto& [a, v] : acked) {
        std::uint32_t got = 0;
        sys.read(a, &got, sizeof(got));
        EXPECT_EQ(got, v) << "addr " << a;
    }
}

TEST(Recovery, SecondFailureMidReplayIsRecoverable)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    EventQueue& eq = sys.eventQueue();
    FaultInjector inj(eq, 32);
    inj.watchSystem(&sys);

    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    std::uint64_t magic0 = 0x5EED0001, magic1 = 0x5EED0002;
    sys.write(0, &magic0, sizeof(magic0));
    sys.write(512 * 1024, &magic1, sizeof(magic1));
    // Aliasing misses left in flight: the dirty evictions + fills sit
    // journalled when the power dies, so the recovery has a replay
    // phase for the second cut to land in.
    sys.access(MemAccess{cache, 64, MemOp::Read}, eq.now(), nullptr);
    sys.access(MemAccess{cache + 512 * 1024, 64, MemOp::Read}, eq.now(),
               nullptr);
    ASSERT_GE(sys.nvmeEngine().scanJournal().size(), 2u);
    sys.powerFail();

    sys.beginRecovery(nullptr);
    FaultPlan plan;
    plan.policy = CutPolicy::MidReplay;
    inj.arm(plan);
    ASSERT_TRUE(inj.pumpToCut());
    EXPECT_TRUE(sys.controller().replayInFlight());

    inj.cut(sys); // the second failure lands mid-replay
    sys.recover();
    EXPECT_GT(sys.stats().replayedCommands, 0u);

    std::uint64_t got = 0;
    sys.read(0, &got, sizeof(got));
    EXPECT_EQ(got, magic0);
    sys.read(512 * 1024, &got, sizeof(got));
    EXPECT_EQ(got, magic1);
}

TEST(Recovery, DegradedModeAccessPathIsAllocFree)
{
    // The standing hot-path discipline extends to degraded mode: once
    // the pools are warm, admitting an access during recovery — parked
    // on its frame's restore stall included — allocates nothing.
    HamsSystem sys(crashConfig(HamsMode::Extend));
    EventQueue& eq = sys.eventQueue();
    std::uint64_t page = sys.controller().pageBytes();

    std::vector<Addr> addrs;
    for (std::uint32_t i = 0; i < 8; ++i) {
        Addr a = Addr(i) * page;
        sys.write(a, &i, sizeof(i));
        addrs.push_back(a);
    }

    auto degraded_burst = [&]() {
        sys.powerFail();
        sys.beginRecovery(nullptr);
        alloc_hook::AllocCounter c;
        for (Addr a : addrs)
            sys.access(MemAccess{a, 64, MemOp::Read}, eq.now(), nullptr);
        std::uint64_t delta = c.delta();
        while (sys.recovering() && eq.step()) {
        }
        EXPECT_FALSE(sys.recovering());
        return delta;
    };

    degraded_burst(); // warm the pools, waiter arena, queue storage
    EXPECT_EQ(degraded_burst(), 0u)
        << "degraded-mode admission allocated on the access path";
    EXPECT_GT(sys.stats().restoreStalls, 0u);
    EXPECT_GT(sys.stats().degradedAccesses, 0u);
}

TEST(Recovery, RecoveryTimeDominatedByNvdimmRestore)
{
    HamsSystem sys(crashConfig(HamsMode::Extend));
    std::uint32_t v = 5;
    sys.write(0, &v, sizeof(v));
    sys.powerFail();
    Tick recovered = sys.recover();
    // NVDIMM restore of 256 MiB at 400 MB/s ~ 0.67 s.
    EXPECT_GT(recovered, milliseconds(300));
    EXPECT_LT(recovered, seconds(5));
}

} // namespace
} // namespace hams
