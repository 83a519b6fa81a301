/**
 * @file
 * Crash-consistency fault injection: power cuts at arbitrary event
 * boundaries of a live simulation.
 *
 * The simulator's power-failure chain (`HamsSystem::powerFail()`,
 * `Ssd::powerFail()`, `PageFtl::onPowerFail()`) is exercised by tests
 * mostly at quiescent points — between synchronous operations, with
 * no GC slice mid-flight and no erase pending. The states where torn
 * metadata hides are exactly the other ones. This layer arms a cut
 * against the `EventQueue` and pumps it one event at a time, probing
 * the watched components at every boundary until the armed policy's
 * condition holds; the simulation stops *there*, with all in-flight
 * state live, and the owner (or the `cut()` helper) drives the
 * power-failure chain.
 *
 * Everything is seeded and allocation-free in the pump loop: the same
 * seed replays the same cut at the same boundary, bit-identically —
 * a failing fuzz seed is a deterministic reproducer.
 */

#ifndef HAMS_SIM_FAULT_INJECTOR_HH_
#define HAMS_SIM_FAULT_INJECTOR_HH_

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace hams {

class PageFtl;
class Ssd;
class HamsSystem;

/** Which device state the cut hunts for. */
enum class CutPolicy
{
    /** Cut after a seeded-random number of fired events (1..param). */
    RandomEvent,
    /** First boundary with a GC victim mid-relocation (watched FTL). */
    MidGcSlice,
    /** First boundary with an issued-but-uncredited erase. */
    MidErase,
    /**
     * Like RandomEvent, but the supercap drain of the cut itself is
     * interrupted after a seeded number of frames — a second failure
     * mid-drain. drainFrameBudget() carries the surviving prefix.
     */
    MidSupercapDrain,
    /** First boundary at/after the watched SSD's param-th flush. */
    KthFlush,
    /**
     * First boundary with the watched system's NVDIMM mid-restore:
     * some but not all frames streamed back. A cut here exercises the
     * partial re-backup path (second failure during recovery).
     */
    MidRestore,
    /**
     * First boundary with the watched system's journal replay in
     * flight: entries issued but not all completed. A cut here must
     * find the compacted journal rescannable.
     */
    MidReplay,
};

/** One armed cut. */
struct FaultPlan
{
    CutPolicy policy = CutPolicy::RandomEvent;
    /** RandomEvent/MidSupercapDrain window; KthFlush flush ordinal. */
    std::uint64_t param = 64;
};

/** Injection accounting. */
struct FaultStats
{
    std::uint64_t cuts = 0;         //!< cuts performed (noteCut()/cut())
    std::uint64_t eventsPumped = 0; //!< events stepped by pumpToCut()
    /** Frames the last MidSupercapDrain cut let the supercap save. */
    std::uint64_t drainFramesAllowed = 0;
};

/**
 * Seeded power-cut driver over one event queue. Watch the components
 * whose state the policies probe, arm a plan, pump to the cut, then
 * either call cut() (whole-system rigs) or perform the component
 * chain manually and acknowledge with noteCut().
 */
class FaultInjector
{
  public:
    FaultInjector(EventQueue& eq, std::uint64_t seed);

    /** @name Component probes (optional; policies needing one fatal). */
    ///@{
    void watchFtl(PageFtl* f) { ftl = f; }
    /** Watches the SSD and (for the GC policies) its FTL. */
    void watchSsd(Ssd* s);
    /** Watches a whole system: its NVDIMM/controller recovery state
     *  (mid-recovery policies) plus its ULL-Flash. */
    void watchSystem(HamsSystem* s);
    ///@}

    /** Arm @p plan. Replaces any previously armed plan. */
    void arm(const FaultPlan& plan);

    bool armed() const { return _armed; }

    /**
     * True when the armed policy's condition holds at the current
     * event boundary (the next step would execute with the condition
     * already visible). RandomEvent counts down fired events.
     */
    bool cutDue() const;

    /**
     * Step the queue until the armed condition holds or the queue
     * drains (or passes @p horizon). The queue stops exactly at the
     * triggering boundary; nothing past it has fired.
     * @return true when the cut is due (still armed, not performed).
     */
    bool pumpToCut(Tick horizon = maxTick);

    /**
     * Frames the supercap may destage before the second failure:
     * seeded draw in [0, dirty_frames) for MidSupercapDrain,
     * unlimited otherwise. Stable once drawn for the armed plan.
     */
    std::uint64_t drainFrameBudget();

    /**
     * Cut power on a whole system at the current boundary: drives
     * HamsSystem::powerFail() with the drain budget and disarms.
     * The caller runs HamsSystem::recover() when ready.
     */
    void cut(HamsSystem& sys);

    /**
     * The owner performed the power-failure chain itself (component
     * rigs own their queue reset): count the cut and disarm.
     */
    void noteCut();

    const FaultStats& stats() const { return _stats; }
    const FaultPlan& plan() const { return _plan; }

  private:
    EventQueue& eq;
    Rng rng;
    PageFtl* ftl = nullptr;
    Ssd* ssd = nullptr;
    HamsSystem* sys = nullptr;

    FaultPlan _plan;
    FaultStats _stats;
    bool _armed = false;
    std::uint64_t countdown = 0;    //!< RandomEvent/MidSupercapDrain
    std::uint64_t drainBudget = 0;
    bool drainBudgetDrawn = false;
};

} // namespace hams

#endif // HAMS_SIM_FAULT_INJECTOR_HH_
