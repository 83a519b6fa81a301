/**
 * @file
 * Test helper: a small HAMS machine whose ULL-Flash runs background GC.
 */

#ifndef HAMS_TESTS_BG_GC_HAMS_HH_
#define HAMS_TESTS_BG_GC_HAMS_HH_

#include <memory>

#include "core/hams_system.hh"
#include "ftl/page_ftl.hh"
#include "ssd/ssd.hh"

namespace hams {

/**
 * A small HAMS machine whose ULL-Flash runs background GC, prefilled
 * to 65% so the dirty evictions of a cache-overflowing write workload
 * overwrite live LBAs and drive real collection during the run.
 */
inline std::unique_ptr<HamsSystem>
smallHamsBgGc()
{
    HamsSystemConfig c = HamsSystemConfig::tightExtend();
    c.nvdimm.capacity = 96ull << 20;
    c.ssdRawBytes = 512ull << 20; // 8 blocks/plane: GC within reach
    c.pinnedBytes = 32ull << 20;
    c.functionalData = false;
    c.ftl.backgroundGc = true;
    auto sys = std::make_unique<HamsSystem>(c);

    Ssd& ssd = sys->ullFlash();
    PageFtl& ftl = ssd.pageFtl();
    std::uint64_t pages = ftl.logicalPages() * 65 / 100;
    Tick t = 0;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn)
        t = ftl.writePage(lpn, ssd.config().geom.pageSize, t);
    sys->eventQueue().run(); // drain the prefill's pressure kicks
    ssd.flashLayer().reset(); // prefilled but idle device
    ftl.onFlashReset();       // handles died with the FIL's registry
    return sys;
}

} // namespace hams

#endif // HAMS_TESTS_BG_GC_HAMS_HH_
