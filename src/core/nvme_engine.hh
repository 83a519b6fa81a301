/**
 * @file
 * The hardware NVMe engine inside the HAMS controller (paper SSV-B/C).
 *
 * This block is what lets HAMS hide the entire NVMe protocol from the
 * OS: it composes 64 B commands, enqueues them in the SQ that lives in
 * the pinned NVDIMM region, rings the device doorbell (or, in advanced
 * HAMS, streams the command over the DDR4 register interface), tracks
 * completions, and maintains the *journal tag* of every in-flight
 * command so a power failure can be repaired by rescanning the SQ.
 *
 * Hot-path discipline: completion callbacks are inline-stored
 * (InlineFunction) and the in-flight command table is a fixed,
 * cid-indexed array instead of a hash map, so submit/complete never
 * allocate in steady state.
 */

#ifndef HAMS_CORE_NVME_ENGINE_HH_
#define HAMS_CORE_NVME_ENGINE_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/pinned_region.hh"
#include "core/register_interface.hh"
#include "nvme/nvme_controller.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/fields.hh"
#include "sim/inline_function.hh"

namespace hams {

/** Engine statistics. */
#define HAMS_NVME_ENGINE_STATS_FIELDS(X) \
    X(sum, std::uint64_t, submitted)     \
    X(sum, std::uint64_t, completed)     \
    X(sum, std::uint64_t, journalSets)   \
    X(sum, std::uint64_t, journalClears) \
    X(sum, std::uint64_t, replayed)

struct NvmeEngineStats
{
    HAMS_FIELDS(NvmeEngineStats, HAMS_NVME_ENGINE_STATS_FIELDS)
};

/**
 * Submits NVMe commands on behalf of the HAMS cache logic and owns the
 * journal-tag lifecycle.
 */
class HamsNvmeEngine
{
  public:
    /** Completion callback: (command, latency trace, completion tick). */
    using DoneCb = InlineFunction<void(const NvmeCommand&,
                                       const NvmeCmdTrace&, Tick)>;

    /**
     * @param reg_if register-based interface for advanced HAMS, or
     *               nullptr for the baseline PCIe doorbell path
     */
    HamsNvmeEngine(EventQueue& eq, NvmeController& ctrl,
                   PinnedRegion& pinned, RegisterInterface* reg_if);

    /**
     * Submit one command. The engine assigns the cid, sets the journal
     * tag, writes the SQ slot (persistently) and notifies the device.
     * If the command's PRP points into the PRP pool, the frame is
     * returned to the pool automatically on completion.
     * @return the assigned cid.
     */
    HAMS_HOT_PATH std::uint16_t submit(NvmeCommand cmd, Tick at, DoneCb done);

    /** Commands submitted but not yet completed. */
    std::uint32_t outstanding() const { return _outstanding; }

    /**
     * Scan the (persistent) SQ region for commands whose journal tag is
     * still set — exactly the power-up check of paper Fig. 15.
     */
    HAMS_COLD_PATH std::vector<NvmeCommand> scanJournal() const;

    /**
     * Drop volatile state after a power failure. Ring contents and
     * journal tags survive in the pinned region; the cid map does not.
     */
    HAMS_COLD_PATH void onPowerFail();

    /**
     * @name Phase-2/3 recovery (paper Fig. 15), split so the caller can
     * charge replay per entry as scheduled events.
     *
     * prepareReplay() rebuilds the SQ for replay: it resets the ring
     * pointers and *compacts* the journal — the @p pending commands
     * (from scanJournal()) are rewritten into slots [0, n) with their
     * journal tags still set, and every other slot's tag is cleared.
     * The journal is therefore complete at every event boundary: a cut
     * at any point mid-replay rescans exactly the not-yet-replayed
     * entries. The caller then calls submitReplay() once per entry, in
     * order — entry i's push lands on slot i, overwriting its own
     * compacted copy with a freshly-journalled duplicate, so replay is
     * idempotent. Foreground submits must be held off until every
     * prepared entry has been re-pushed (the controller's recovery
     * gate), or the slot correspondence breaks.
     */
    ///@{
    HAMS_COLD_PATH void prepareReplay(const std::vector<NvmeCommand>& pending);

    /** Re-issue one journalled command; counts into stats().replayed. */
    HAMS_COLD_PATH std::uint16_t submitReplay(const NvmeCommand& cmd, Tick at,
                               DoneCb done);
    ///@}

    const NvmeEngineStats& stats() const { return _stats; }

  private:
    /** Deliver a doorbell/command notification to the device. */
    HAMS_HOT_PATH Tick notifyDevice(Tick at);

    HAMS_HOT_PATH void handleCompletion(const NvmeCompletion& cqe, const NvmeCommand& cmd,
                          const NvmeCmdTrace& trace, Tick at);

    EventQueue& eq;
    NvmeController& ctrl;
    PinnedRegion& pinned;
    RegisterInterface* regIf;
    std::uint16_t qid;
    std::uint16_t nextCid = 1;
    NvmeEngineStats _stats;
    std::uint32_t _outstanding = 0;

    /**
     * In-flight table indexed directly by the 16-bit cid (SQ slots
     * free at fetch time, so outstanding commands are NOT bounded by
     * SQ depth — only the full cid space guarantees no collision).
     * Stale completions from before a power failure fail the live
     * check; a submit that would overwrite a live entry (cid space
     * exhausted by 64 Ki outstanding commands) panics instead of
     * silently dropping a completion callback.
     */
    struct Pending
    {
        std::uint16_t slot = 0;
        bool live = false;
        DoneCb done;
    };
    std::vector<Pending> inFlight;
};

} // namespace hams

#endif // HAMS_CORE_NVME_ENGINE_HH_
