/**
 * @file
 * Shared FTL shadow model for the differential and crash-fuzz suites,
 * plus the tiny geometry and background-GC config the FTL suites run.
 *
 * A plain std::map-based reference model shadows the real PageFtl and
 * checks the full observable FTL state against it:
 *
 *  - **L2P integrity**: every LPN the model holds is mapped, to a PPN
 *    no other LPN shares; every LPN the model dropped (trimmed or
 *    never written) is unmapped. GC relocation may move a mapping —
 *    the model adopts the move — but can never lose, duplicate or
 *    resurrect one. After a power cut this doubles as the durability
 *    check: the model holds exactly the acknowledged persists, so a
 *    lost mapping is a durability violation and a mapping for a
 *    dropped LPN is resurrected trimmed data.
 *  - **Valid-page counts**: per-block validCount equals the number of
 *    model mappings decoding into that block.
 *  - **Wear**: per-block erase counts never decrease and their sum
 *    equals FtlStats::erases (erase conservation).
 *  - **Block-list partition**: every block of a unit sits on exactly
 *    one list — free, closed, active, in-relocation victim, or
 *    pending erase credit.
 */

#ifndef HAMS_TESTS_FTL_SHADOW_MODEL_HH_
#define HAMS_TESTS_FTL_SHADOW_MODEL_HH_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "flash/fil.hh"
#include "ftl/page_ftl.hh"

namespace hams {
namespace testing_support {

inline FlashGeometry
tinyGeom()
{
    FlashGeometry g;
    g.channels = 2;
    g.packagesPerChannel = 1;
    g.diesPerPackage = 1;
    g.planesPerDie = 2;
    g.blocksPerPlane = 16;
    g.pagesPerBlock = 8;
    g.pageSize = 2048;
    return g;
}

/** Background GC with a one-block reserve under the 2/4 watermarks. */
inline FtlConfig
bgConfig()
{
    FtlConfig cfg;
    cfg.backgroundGc = true;
    cfg.gcReserveBlocks = 1;
    cfg.gcLowWater = 2;
    cfg.gcHighWater = 4;
    cfg.gcBatchPages = 4;
    return cfg;
}

/** The reference model plus the differential checker. */
class ShadowFtl
{
  public:
    ShadowFtl(PageFtl& ftl, const FlashGeometry& geom)
        : ftl(ftl), geom(geom),
          prevErase(geom.parallelUnits() * geom.blocksPerPlane, 0)
    {
    }

    void
    noteWrite(std::uint64_t lpn)
    {
        l2p[lpn] = ftl.physicalOf(lpn);
    }

    void noteTrim(std::uint64_t lpn) { l2p.erase(lpn); }

    /** Full differential sweep; call after every operation. */
    void
    check(std::uint64_t lpn_space, const char* what)
    {
        // --- L2P: model mappings exist, pairwise distinct, and moved
        // entries (GC relocation) are adopted; dropped LPNs unmapped.
        std::set<std::uint64_t> ppns;
        for (auto& [lpn, ppn] : l2p) {
            ASSERT_TRUE(ftl.isMapped(lpn))
                << what << ": model lpn " << lpn << " lost its mapping";
            std::uint64_t now = ftl.physicalOf(lpn);
            if (now != ppn)
                ppn = now; // relocated by GC: adopt
            ASSERT_TRUE(ppns.insert(now).second)
                << what << ": PPN " << now << " mapped twice (lpn " << lpn
                << ")";
        }
        for (std::uint64_t lpn = 0; lpn < lpn_space; ++lpn) {
            if (!l2p.count(lpn)) {
                ASSERT_FALSE(ftl.isMapped(lpn))
                    << what << ": lpn " << lpn
                    << " mapped but the model dropped it";
            }
        }

        // --- Valid-page counts per block, rebuilt from the model.
        std::vector<std::uint32_t> model_valid(
            geom.parallelUnits() * geom.blocksPerPlane, 0);
        for (auto& [lpn, ppn] : l2p) {
            (void)lpn;
            std::uint64_t blk = ppn / geom.pagesPerBlock;
            ++model_valid[blk];
        }
        std::uint64_t erase_sum = 0;
        for (std::uint64_t pu = 0; pu < geom.parallelUnits(); ++pu) {
            for (std::uint32_t b = 0; b < geom.blocksPerPlane; ++b) {
                std::uint64_t gi = pu * geom.blocksPerPlane + b;
                ASSERT_EQ(ftl.blockValidCount(pu, b), model_valid[gi])
                    << what << ": valid-count drift on pu " << pu
                    << " block " << b;
                std::uint32_t wear = ftl.blockEraseCount(pu, b);
                ASSERT_GE(wear, prevErase[gi])
                    << what << ": erase count went backwards on pu " << pu
                    << " block " << b;
                prevErase[gi] = wear;
                erase_sum += wear;
            }
        }
        ASSERT_EQ(erase_sum, ftl.stats().erases)
            << what << ": per-block erase counts do not add up to "
            << "FtlStats::erases";

        // --- Partition: every block on exactly one list.
        for (std::uint64_t pu = 0; pu < geom.parallelUnits(); ++pu) {
            PageFtl::UnitView v = ftl.unitView(pu);
            std::vector<std::uint32_t> all;
            all.insert(all.end(), v.freeBlocks.begin(),
                       v.freeBlocks.end());
            all.insert(all.end(), v.closedBlocks.begin(),
                       v.closedBlocks.end());
            if (v.activeBlock >= 0)
                all.push_back(static_cast<std::uint32_t>(v.activeBlock));
            if (v.victim >= 0)
                all.push_back(static_cast<std::uint32_t>(v.victim));
            if (v.pendingFree >= 0)
                all.push_back(static_cast<std::uint32_t>(v.pendingFree));
            std::sort(all.begin(), all.end());
            ASSERT_EQ(all.size(), geom.blocksPerPlane)
                << what << ": pu " << pu << " lists hold " << all.size()
                << " blocks (double-listed or leaked block)";
            for (std::uint32_t b = 0; b < geom.blocksPerPlane; ++b)
                ASSERT_EQ(all[b], b)
                    << what << ": pu " << pu << " block " << b
                    << " is double-listed or on no list";
        }
    }

    std::size_t mapped() const { return l2p.size(); }

    /** Order-sensitive hash of the model's L2P (replay fingerprints). */
    std::uint64_t
    l2pHash() const
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const auto& [lpn, ppn] : l2p) {
            h = (h ^ lpn) * 0x100000001b3ULL;
            h = (h ^ ppn) * 0x100000001b3ULL;
        }
        return h;
    }

  private:
    PageFtl& ftl;
    FlashGeometry geom;
    std::map<std::uint64_t, std::uint64_t> l2p;
    std::vector<std::uint32_t> prevErase;
};

} // namespace testing_support
} // namespace hams

#endif // HAMS_TESTS_FTL_SHADOW_MODEL_HH_
