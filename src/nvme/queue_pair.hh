/**
 * @file
 * NVMe submission/completion queue pair.
 *
 * The rings are plain FIFO arrays living in real (simulated) memory: the
 * host posts 64 B SQ entries at the tail and rings a doorbell; the device
 * consumes from the head, posts 16 B CQ entries, and signals MSI. Backing
 * the rings with a SparseMemory region is what lets HAMS scan the SQ
 * after a power failure and find commands whose journal tag is still set.
 */

#ifndef HAMS_NVME_QUEUE_PAIR_HH_
#define HAMS_NVME_QUEUE_PAIR_HH_

#include <cstdint>
#include <optional>

#include "mem/sparse_memory.hh"
#include "nvme/nvme_types.hh"
#include "sim/annotations.hh"
#include "sim/types.hh"

namespace hams {

/**
 * One SQ/CQ pair with explicit head/tail registers.
 *
 * The ring contents live in @p backing at the given base addresses so
 * they share the fate of that memory across power events. Head/tail
 * state mirrors the doorbell registers; recovery code re-derives pending
 * work from the ring contents plus the journal tags.
 */
class QueuePair
{
  public:
    /**
     * @param backing memory that holds both rings (e.g. the pinned
     *                NVDIMM region)
     * @param sq_base byte address of the SQ ring
     * @param cq_base byte address of the CQ ring
     * @param entries ring size (entries), applies to both queues
     */
    QueuePair(SparseMemory& backing, Addr sq_base, Addr cq_base,
              std::uint16_t entries);

    /** @name Host-side operations. */
    ///@{
    /** True if the SQ has room for another entry. */
    HAMS_HOT_PATH bool sqFull() const;

    /**
     * Write @p cmd at the SQ tail and advance it (the doorbell write is
     * timed by the caller).
     * @return the slot index used.
     */
    HAMS_HOT_PATH std::uint16_t push(const NvmeCommand& cmd);

    /** Consume one completion at the CQ head, if any. */
    HAMS_HOT_PATH std::optional<NvmeCompletion> popCompletion();
    ///@}

    /** @name Device-side operations. */
    ///@{
    /** True if un-fetched submissions remain. */
    HAMS_HOT_PATH bool hasWork() const;

    /** Fetch the command at the SQ head and advance the head. */
    HAMS_HOT_PATH NvmeCommand fetch();

    /** Post a completion at the CQ tail (sets the phase bit). */
    HAMS_HOT_PATH void complete(NvmeCompletion cqe);
    ///@}

    /** @name Raw ring state (recovery + tests). */
    ///@{
    std::uint16_t sqHead() const { return _sqHead; }
    std::uint16_t sqTail() const { return _sqTail; }
    std::uint16_t cqHead() const { return _cqHead; }
    std::uint16_t cqTail() const { return _cqTail; }
    std::uint16_t entries() const { return _entries; }
    Addr sqBase() const { return _sqBase; }
    Addr cqBase() const { return _cqBase; }

    /** Read an SQ slot directly (recovery scan). */
    HAMS_HOT_PATH NvmeCommand readSlot(std::uint16_t idx) const;

    /** Overwrite an SQ slot directly (journal tag updates). */
    HAMS_HOT_PATH void writeSlot(std::uint16_t idx, const NvmeCommand& cmd);

    /**
     * Reset pointer state after a power cycle, as the HAMS init sequence
     * does: ring contents in persistent memory survive; volatile
     * head/tail registers do not.
     */
    HAMS_COLD_PATH void resetPointers();
    ///@}

  private:
    SparseMemory& backing;
    Addr _sqBase;
    Addr _cqBase;
    std::uint16_t _entries;
    std::uint16_t _sqHead = 0;
    std::uint16_t _sqTail = 0;
    std::uint16_t _cqHead = 0;
    std::uint16_t _cqTail = 0;
    bool cqPhase = true;
};

} // namespace hams

#endif // HAMS_NVME_QUEUE_PAIR_HH_
