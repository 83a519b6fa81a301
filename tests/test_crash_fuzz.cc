/**
 * @file
 * Seeded crash fuzzer: power cuts at arbitrary event boundaries.
 *
 * Extends the FTL shadow-model suite (ftl_shadow_model.hh) from a
 * rerun property to a recovery property. Three rigs:
 *
 *  - **FTL rig**: a live background-GC FTL (pacing + victim
 *    quality) is driven through mixed write/trim/read traffic
 *    while a FaultInjector pumps the event queue and cuts power at
 *    seeded boundaries — random-event, mid-GC-slice
 *    (victim checked out, relocation cursor live) and mid-erase
 *    (erase issued, credit pending) cells. Every cut runs the
 *    device's power-failure chain (queue reset → PageFtl::onPowerFail
 *    → handle-leak check → Fil::reset) and then holds the recovered
 *    state to the full shadow model: every acknowledged persist (the
 *    model's mappings) still mapped, no trimmed LPN resurrected,
 *    valid counts / wear / block-list partition intact.
 *
 *  - **SSD rig**: buffered writes + FUA traffic + flushes against a
 *    supercap device; cuts interrupt the supercap drain after a
 *    seeded number of frames (second failure mid-drain) or land at
 *    the k-th flush. A byte-level model checks the durable prefix
 *    and that the lost suffix never resurrects; the drain tick is
 *    re-derived with the integer formula and must match exactly.
 *
 *  - **System rig**: whole-stack HamsSystem cuts with accesses in
 *    flight (persist-gate waiters, journalled fills/evictions), then
 *    Fig. 15 recovery; every acknowledged write must read back.
 *
 * Everything is seeded: a failing seed replays bit-identically (the
 * determinism test pins this with per-cut fingerprints).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "core/hams_system.hh"
#include "flash/fil.hh"
#include "ftl/page_ftl.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "ssd/device_configs.hh"
#include "ssd/ssd.hh"

#include "ftl_shadow_model.hh"

namespace hams {
namespace {

using testing_support::ShadowFtl;
using testing_support::tinyGeom;

FtlConfig
crashBgConfig()
{
    FtlConfig cfg = testing_support::bgConfig();
    cfg.gcAdaptivePacing = true;
    cfg.gcVictimQuality = true;
    return cfg;
}

/**
 * A personality whose victims span GC slices: one relocation per
 * batch and no quality gate, so a checked-out victim stays live
 * across event boundaries — the state the mid-GC-slice cell cuts in.
 */
FtlConfig
multiSliceConfig()
{
    FtlConfig cfg = crashBgConfig();
    cfg.gcBatchPages = 1;
    cfg.gcVictimQuality = false;
    return cfg;
}

/** One cut's replay fingerprint (bit-identical across reruns). */
struct CutFingerprint
{
    Tick cutTick;
    std::uint64_t eventsPumped;
    std::uint64_t erases;
    std::uint64_t relocations;
    std::uint64_t l2pHash;

    bool
    operator==(const CutFingerprint& o) const
    {
        return cutTick == o.cutTick && eventsPumped == o.eventsPumped &&
               erases == o.erases && relocations == o.relocations &&
               l2pHash == o.l2pHash;
    }
};

struct CrashFuzzReport
{
    std::uint64_t cuts = 0;
    std::uint64_t midGcCuts = 0;    //!< victim live at the cut
    std::uint64_t midEraseCuts = 0; //!< erase credit pending at the cut
    std::vector<CutFingerprint> fingerprints;
};

/**
 * FTL-level crash fuzz: @p ops host operations; the injector stays
 * armed throughout (policies rotate per cut, with a patience cap so a
 * state policy that never materialises cannot stall the run) and
 * every triggered cut runs the full power-failure chain followed by a
 * complete shadow sweep on the same live instance.
 */
CrashFuzzReport
crashFuzz(const FtlConfig& cfg, std::uint64_t ops, std::uint64_t seed,
          const std::vector<CutPolicy>& policies)
{
    FlashGeometry geom = tinyGeom();
    Fil fil(geom, NandTiming::zNand());
    PageFtl ftl(geom, fil, cfg);
    EventQueue eq;
    ftl.attachEventQueue(&eq);
    ShadowFtl shadow(ftl, geom);
    FaultInjector inj(eq, seed);
    inj.watchFtl(&ftl);

    CrashFuzzReport rep;
    std::uint64_t hot = ftl.logicalPages() / 2;
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    Tick t = 0;
    std::size_t next_policy = 0;
    std::uint64_t armed_since = 0; //!< ops since the current arm
    constexpr std::uint64_t patience = 64;

    auto arm_next = [&](std::uint64_t now_op) {
        FaultPlan plan;
        plan.policy = policies[next_policy % policies.size()];
        ++next_policy;
        plan.param = 1 + rng.below(8); // short windows: frequent cuts
        inj.arm(plan);
        armed_since = now_op;
    };
    arm_next(0);

    for (std::uint64_t i = 0; i < ops; ++i) {
        // Pump the queue up to the op's issue tick, watching every
        // event boundary for the armed cut condition.
        while (inj.pumpToCut(t)) {
            bool mid_gc = ftl.gcVictimLive();
            bool mid_erase = ftl.gcEraseInFlight();

            // --- The device's power-failure chain, exactly as
            // Ssd::powerFail sequences it.
            eq.reset(false);
            ftl.onPowerFail();
            EXPECT_EQ(fil.trackedOps(), 0u)
                << "seed " << seed << " cut " << rep.cuts
                << ": FTL leaked op handles across the cut";
            fil.reset();

            ++rep.cuts;
            rep.midGcCuts += mid_gc;
            rep.midEraseCuts += mid_erase;
            rep.fingerprints.push_back({eq.now(),
                                        inj.stats().eventsPumped,
                                        ftl.stats().erases,
                                        ftl.stats().gcRelocations,
                                        shadow.l2pHash()});
            inj.noteCut();

            // --- Recovery verification: shadow invariants double as
            // acknowledged-persist durability (model mappings) and
            // no-resurrection (model-dropped LPNs must stay unmapped).
            shadow.check(hot, "post-cut");
            t = std::max(t, eq.now());
            arm_next(i);
        }
        if (inj.armed() && i - armed_since > patience) {
            // The armed state policy never materialised (e.g. GC went
            // quiet); rotate rather than stall the rest of the run.
            arm_next(i);
        }

        std::uint64_t dice = rng.below(100);
        std::uint64_t lpn = rng.below(hot);
        if (dice < 62) {
            t = ftl.writePage(lpn, geom.pageSize, t);
            shadow.noteWrite(lpn);
        } else if (dice < 78) {
            ftl.trim(lpn);
            shadow.noteTrim(lpn);
        } else {
            t = ftl.readPage(lpn, geom.pageSize, t);
        }
    }
    eq.run();
    shadow.check(hot, "final drain");
    EXPECT_EQ(fil.trackedOps(), 0u);
    EXPECT_GT(ftl.stats().erases, 0u)
        << "crash fuzz never forced garbage collection";
    return rep;
}

std::uint64_t
envSeeds(const char* name, std::uint64_t fallback)
{
    const char* v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoull(v, nullptr, 10);
}

TEST(CrashFuzz, FtlArbitraryTickCutMatrix)
{
    // The scale workhorse: a seed matrix of arbitrary-boundary cuts
    // with rotating policies, alternating the quality-gated and the
    // multi-slice GC personalities. The default matrix alone clears
    // the 10k-verified-cuts bar for the suite.
    std::vector<CutPolicy> rotation{CutPolicy::RandomEvent,
                                    CutPolicy::MidGcSlice,
                                    CutPolicy::MidErase};
    // CI fans the matrix across disjoint seed ranges via
    // HAMS_CRASH_FUZZ_BASE; HAMS_CRASH_FUZZ_SEEDS widens one run.
    std::uint64_t base = envSeeds("HAMS_CRASH_FUZZ_BASE", 1);
    std::uint64_t seeds = envSeeds("HAMS_CRASH_FUZZ_SEEDS", 12);
    std::uint64_t total = 0, mid_gc = 0, mid_erase = 0;
    for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
        FtlConfig cfg =
            (seed % 2) ? multiSliceConfig() : crashBgConfig();
        CrashFuzzReport rep = crashFuzz(cfg, 48000, seed, rotation);
        total += rep.cuts;
        mid_gc += rep.midGcCuts;
        mid_erase += rep.midEraseCuts;
    }
    // The acceptance bar: ≥ 10k seeded arbitrary-tick cuts per run,
    // with the mid-GC-slice and mid-erase states well represented.
    EXPECT_GE(total, 10000u * seeds / 12);
    EXPECT_GT(mid_gc, 25u * seeds);
    EXPECT_GT(mid_erase, 25u * seeds);
}

TEST(CrashFuzz, FtlMidGcSliceCell)
{
    // Every cut of this cell lands with a victim checked out and the
    // relocation cursor live — the state where a torn block-list
    // partition would hide.
    CrashFuzzReport rep = crashFuzz(multiSliceConfig(), 15000, 1234,
                                    {CutPolicy::MidGcSlice});
    EXPECT_GT(rep.cuts, 60u);
    EXPECT_EQ(rep.midGcCuts, rep.cuts)
        << "mid-GC-slice cell cut outside the victim-live state";
}

TEST(CrashFuzz, FtlMidEraseCell)
{
    CrashFuzzReport rep = crashFuzz(crashBgConfig(), 6000, 4321,
                                    {CutPolicy::MidErase});
    EXPECT_GT(rep.cuts, 50u);
    EXPECT_EQ(rep.midEraseCuts, rep.cuts)
        << "mid-erase cell cut outside the erase-pending state";
}

TEST(CrashFuzz, FtlCutsWithoutPacing)
{
    // The plain background personality (no pacer, no quality gate) recovers under the same cuts.
    FtlConfig cfg = crashBgConfig();
    cfg.gcAdaptivePacing = false;
    cfg.gcVictimQuality = false;
    CrashFuzzReport rep =
        crashFuzz(cfg, 10000, 77,
                  {CutPolicy::RandomEvent, CutPolicy::MidGcSlice,
                   CutPolicy::MidErase});
    EXPECT_GT(rep.cuts, 100u);
}

TEST(CrashFuzz, FailingSeedReplaysBitIdentically)
{
    // The contract that makes a fuzz failure debuggable: the same
    // seed replays the same cuts at the same ticks with the same
    // state, bit-identically.
    std::vector<CutPolicy> rotation{CutPolicy::RandomEvent,
                                    CutPolicy::MidGcSlice,
                                    CutPolicy::MidErase};
    CrashFuzzReport a = crashFuzz(crashBgConfig(), 3000, 555, rotation);
    CrashFuzzReport b = crashFuzz(crashBgConfig(), 3000, 555, rotation);
    ASSERT_EQ(a.cuts, b.cuts);
    ASSERT_EQ(a.fingerprints.size(), b.fingerprints.size());
    for (std::size_t i = 0; i < a.fingerprints.size(); ++i)
        ASSERT_TRUE(a.fingerprints[i] == b.fingerprints[i])
            << "cut " << i << " diverged on replay";
}

// ---------------------------------------------------------------------
// SSD rig: supercap drain interruption and k-th-flush cuts with a
// byte-level durability model.
// ---------------------------------------------------------------------

SsdConfig
drainRigConfig()
{
    SsdConfig c;
    c.name = "crash-fuzz-ssd";
    c.geom = tinyGeom();
    c.nand = NandTiming::zNand();
    c.ftl = crashBgConfig();
    c.hasBuffer = true;
    c.buffer.capacity = 4ull << 20; // whole device fits: no evictions
    c.hasSupercap = true;
    c.maxOutstanding = 16;
    c.functionalData = true;
    return c;
}

/** Expected drain tick for @p frames dirty frames (integer formula). */
Tick
expectedDrain(const SsdConfig& cfg, std::uint64_t frames)
{
    if (frames == 0)
        return 0;
    std::uint64_t programs =
        (frames * nvmeBlockSize + cfg.geom.pageSize - 1) /
        cfg.geom.pageSize;
    std::uint64_t pus = cfg.geom.parallelUnits();
    return ((programs + pus - 1) / pus) * cfg.nand.tPROG;
}

TEST(CrashFuzz, SsdSupercapDrainInterruption)
{
    SsdConfig cfg = drainRigConfig();
    EventQueue eq;
    Ssd ssd(cfg, &eq);
    FaultInjector inj(eq, 2026);
    inj.watchSsd(&ssd);
    Rng rng(99);

    std::uint64_t blocks = ssd.logicalBlocks();
    std::uint64_t hot = std::min<std::uint64_t>(blocks, 160);
    // Byte models: what the host was acknowledged (buffered) and what
    // is durably on flash.
    std::map<std::uint64_t, std::uint8_t> durable, buffered;
    std::vector<std::uint8_t> frame(nvmeBlockSize), out(nvmeBlockSize);

    Tick t = 0;
    std::uint64_t cuts = 0, interrupted = 0;
    for (int round = 0; round < 40; ++round) {
        FaultPlan plan;
        plan.policy = (round % 4 == 3) ? CutPolicy::KthFlush
                                       : CutPolicy::MidSupercapDrain;
        plan.param = plan.policy == CutPolicy::KthFlush
                         ? ssd.stats().flushes + 1
                         : 8 + rng.below(32);
        inj.arm(plan);

        for (int op = 0; op < 120 && !inj.cutDue(); ++op) {
            inj.pumpToCut(t);
            if (inj.cutDue())
                break;
            std::uint64_t blk = rng.below(hot);
            auto fill = static_cast<std::uint8_t>(1 + rng.below(255));
            std::memset(frame.data(), fill, frame.size());
            std::uint64_t dice = rng.below(100);
            if (dice < 55) {
                t = ssd.hostWrite(blk, 1, /*fua=*/false, t, frame.data());
                buffered[blk] = fill;
            } else if (dice < 85) {
                // FUA traffic keeps the FTL and its background GC
                // busy, so drain cuts land under live GC events too.
                t = ssd.hostWrite(blk, 1, /*fua=*/true, t, frame.data());
                durable[blk] = fill;
                buffered.erase(blk);
            } else {
                t = ssd.hostFlush(t);
                for (auto& [k, v] : buffered)
                    durable[k] = v;
                buffered.clear();
            }
        }

        // --- Cut. The injector's frame budget interrupts the drain:
        // the supercap destages only the lowest-keyed budget frames
        // (dirtyFrames() is sorted) before the second failure.
        auto dirty = ssd.buffer() ? ssd.buffer()->dirtyFrames()
                                  : std::vector<std::uint64_t>{};
        std::uint64_t budget = inj.drainFrameBudget();
        eq.reset(false);
        Tick drain = ssd.powerFail(budget);
        inj.noteCut();
        ++cuts;

        std::uint64_t saved =
            std::min<std::uint64_t>(dirty.size(), budget);
        ASSERT_EQ(drain, expectedDrain(cfg, saved))
            << "round " << round
            << ": drain tick diverged from the integer formula";
        for (std::uint64_t i = 0; i < saved; ++i) {
            // A frame can be dirty in the buffer yet hold no newer
            // bytes (FUA overwrote it in place); destaging it is a
            // functional no-op, so only model-buffered keys promote.
            auto it = buffered.find(dirty[i]);
            if (it != buffered.end())
                durable[dirty[i]] = it->second; // drained prefix
        }
        if (saved < dirty.size())
            ++interrupted;
        buffered.clear(); // suffix lost with the second failure

        ssd.powerRestore();

        // --- Byte-level durability sweep: acknowledged-durable data
        // reads back, lost frames fall back to their last durable
        // version (never the lost bytes, never foreign data).
        for (std::uint64_t blk = 0; blk < hot; ++blk) {
            ssd.peek(blk, 1, out.data());
            std::uint8_t expect =
                durable.count(blk) ? durable[blk] : 0;
            ASSERT_EQ(out[0], expect)
                << "round " << round << " block " << blk;
            ASSERT_EQ(out[nvmeBlockSize - 1], expect)
                << "round " << round << " block " << blk;
        }
    }
    EXPECT_EQ(cuts, 40u);
    EXPECT_GT(interrupted, 5u)
        << "the drain was never actually interrupted mid-way";
}

// ---------------------------------------------------------------------
// System rig: whole-stack cuts with accesses in flight.
// ---------------------------------------------------------------------

HamsSystemConfig
systemRigConfig()
{
    HamsSystemConfig c;
    c.mode = HamsMode::Extend;
    c.nvdimm.capacity = 256ull << 20;
    c.ssdRawBytes = 2ull << 30;
    c.pinnedBytes = 64ull << 20;
    c.queueEntries = 256;
    return c;
}

TEST(CrashFuzz, SystemArbitraryTickCuts)
{
    HamsSystem sys(systemRigConfig());
    EventQueue& eq = sys.eventQueue();
    FaultInjector inj(eq, 7);
    inj.watchSsd(&sys.ullFlash());
    Rng rng(7);

    std::map<std::uint64_t, std::uint64_t> expected;
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();
    std::uint64_t in_flight_cuts = 0;

    for (int cycle = 0; cycle < 30; ++cycle) {
        // Acknowledged writes: recorded the moment sys.write returns.
        for (int w = 0; w < 6; ++w) {
            Addr addr = (rng.below(2) ? cache : 0) +
                        rng.below(1024) * 4096 + 8 * rng.below(8);
            std::uint64_t val = rng.next();
            sys.write(addr, &val, sizeof(val));
            expected[addr] = val;
        }
        // Put accesses in flight (journalled fills/evictions, persist
        // -gate waiters) and cut at a seeded event boundary while
        // they pend.
        for (int a = 0; a < 4; ++a)
            sys.access(MemAccess{rng.below(2) ? cache : Addr(0), 64,
                                 MemOp::Read},
                       eq.now(), nullptr);
        FaultPlan plan;
        plan.policy = CutPolicy::RandomEvent;
        plan.param = 2 + rng.below(30);
        inj.arm(plan);
        if (inj.pumpToCut() && eq.pending() > 0)
            ++in_flight_cuts;
        inj.cut(sys); // drives HamsSystem::powerFail at this boundary
        sys.recover();

        // Every acknowledged write must read back (Fig. 15 recovery
        // replays journalled in-flight work; acked data is NVDIMM-
        // backed and therefore durable).
        for (const auto& [addr, val] : expected) {
            std::uint64_t got = 0;
            sys.read(addr, &got, sizeof(got));
            ASSERT_EQ(got, val)
                << "cycle " << cycle << " addr " << addr;
        }
    }
    EXPECT_EQ(inj.stats().cuts, 30u);
    EXPECT_GT(in_flight_cuts, 10u)
        << "cuts kept landing on a drained queue: no in-flight state";
}

// ---------------------------------------------------------------------
// Mid-recovery cuts: the second failure lands during the recovery of
// the first — mid-restore (frames partially streamed back) and
// mid-replay (journal entries issued but not all completed).
// ---------------------------------------------------------------------

/** One mid-recovery cut's replay fingerprint. */
struct RecoveryCutFingerprint
{
    Tick cutTick;
    std::uint64_t eventsPumped;
    std::uint64_t framesRestored;
    std::uint64_t replayCompleted;

    bool
    operator==(const RecoveryCutFingerprint& o) const
    {
        return cutTick == o.cutTick && eventsPumped == o.eventsPumped &&
               framesRestored == o.framesRestored &&
               replayCompleted == o.replayCompleted;
    }
};

struct RecoveryCutReport
{
    std::uint64_t midRestoreCuts = 0;
    std::uint64_t midReplayCuts = 0;
    /** Recoveries that completed before the hunted state materialised
     *  (e.g. an empty journal cannot be cut mid-replay). */
    std::uint64_t completedRecoveries = 0;
    std::vector<RecoveryCutFingerprint> fingerprints;
};

/**
 * Per cycle: acked writes + journalled in-flight reads, a first cut at
 * a seeded boundary, then an online recovery hunted by a second cut —
 * MidRestore on even cycles, MidReplay on odd ones. Every triggered
 * second cut is followed by a third boot (blocking recover()) and a
 * full acked-durability sweep.
 */
RecoveryCutReport
recoveryCutFuzz(std::uint64_t seed, int cycles)
{
    HamsSystem sys(systemRigConfig());
    EventQueue& eq = sys.eventQueue();
    FaultInjector inj(eq, seed);
    inj.watchSystem(&sys);
    Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);

    RecoveryCutReport rep;
    std::map<std::uint64_t, std::uint64_t> expected;
    std::uint64_t cache = sys.pinnedRegion().cacheBytes();

    for (int cycle = 0; cycle < cycles; ++cycle) {
        for (int w = 0; w < 5; ++w) {
            Addr addr = (rng.below(2) ? cache : 0) +
                        rng.below(512) * 4096 + 8 * rng.below(8);
            std::uint64_t val = rng.next();
            sys.write(addr, &val, sizeof(val));
            expected[addr] = val;
        }
        // Aliasing reads left in flight: journalled evictions/fills
        // give the recovery a replay phase to cut in.
        for (int a = 0; a < 3; ++a)
            sys.access(MemAccess{rng.below(2) ? cache : Addr(0), 64,
                                 MemOp::Read},
                       eq.now(), nullptr);

        FaultPlan first;
        first.policy = CutPolicy::RandomEvent;
        first.param = 2 + rng.below(24);
        inj.arm(first);
        inj.pumpToCut();
        inj.cut(sys);

        bool rec_done = false;
        sys.beginRecovery([&](Tick) { rec_done = true; });
        FaultPlan second;
        second.policy = (cycle % 2) ? CutPolicy::MidReplay
                                    : CutPolicy::MidRestore;
        inj.arm(second);
        if (inj.pumpToCut()) {
            rep.fingerprints.push_back(
                {eq.now(), inj.stats().eventsPumped,
                 sys.nvdimmModule().framesRestored(),
                 static_cast<std::uint64_t>(
                     sys.controller().recoveryReplayCompleted())});
            if (second.policy == CutPolicy::MidReplay)
                ++rep.midReplayCuts;
            else
                ++rep.midRestoreCuts;
            inj.cut(sys);  // the second failure, mid-recovery
            sys.recover(); // the third boot completes
        } else {
            // The queue drained: the recovery ran to completion under
            // the pump without the hunted state ever holding.
            EXPECT_TRUE(rec_done)
                << "seed " << seed << " cycle " << cycle
                << ": queue drained without finishing recovery";
            ++rep.completedRecoveries;
        }

        for (const auto& [addr, val] : expected) {
            std::uint64_t got = 0;
            sys.read(addr, &got, sizeof(got));
            EXPECT_EQ(got, val)
                << "seed " << seed << " cycle " << cycle << " addr "
                << addr;
        }
    }
    return rep;
}

TEST(CrashFuzz, MidRecoveryCutMatrix)
{
    // CI fans seed ranges via HAMS_CRASH_FUZZ_BASE;
    // HAMS_CRASH_FUZZ_RECOVERY_SEEDS widens one run. Every seed runs
    // twice and must replay its mid-recovery cuts bit-identically.
    std::uint64_t base = envSeeds("HAMS_CRASH_FUZZ_BASE", 1);
    std::uint64_t seeds = envSeeds("HAMS_CRASH_FUZZ_RECOVERY_SEEDS", 3);
    constexpr int cycles = 8;

    std::uint64_t mid_restore = 0, mid_replay = 0;
    for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
        RecoveryCutReport a = recoveryCutFuzz(seed, cycles);
        RecoveryCutReport b = recoveryCutFuzz(seed, cycles);
        ASSERT_EQ(a.fingerprints.size(), b.fingerprints.size())
            << "seed " << seed << " cut count diverged on replay";
        for (std::size_t i = 0; i < a.fingerprints.size(); ++i)
            ASSERT_TRUE(a.fingerprints[i] == b.fingerprints[i])
                << "seed " << seed << " mid-recovery cut " << i
                << " diverged on replay";
        mid_restore += a.midRestoreCuts;
        mid_replay += a.midReplayCuts;
    }
    // The restore phase dominates every recovery, so each even cycle
    // must land its cut; replay windows exist only when the first cut
    // caught journalled work, so demand a presence, not a quota.
    EXPECT_GE(mid_restore, seeds * cycles / 4);
    EXPECT_GE(mid_replay, 1u)
        << "no cut ever landed with journal replay in flight";
}

} // namespace
} // namespace hams
