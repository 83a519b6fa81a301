#include "flash/nand_package.hh"

namespace hams {

NandPackagePool::NandPackagePool(const FlashGeometry& geom)
    : geom(geom), totalPages(geom.totalPages()),
      pagesPerUnit(geom.pagesPerPlane()), dieCount(geom.dies())
{
    if (isPow2(pagesPerUnit) && isPow2(dieCount) && isPow2(geom.channels)) {
        pow2 = true;
        unitShift = log2u64(pagesPerUnit);
        channelMask = geom.channels - 1;
        dieMask = dieCount - 1;
    }
    dieFree.assign(dieCount, 0);
    planeFree.assign(geom.parallelUnits(), 0);
    dieBgFree.assign(dieCount, 0);
    planeBgFree.assign(geom.parallelUnits(), 0);
    dieHead.assign(dieCount, none);
    chanHead.assign(geom.channels, none);
}

void
NandPackagePool::pushBackgroundOut(const FlashUnit& u, Tick from, Tick delta)
{
    Tick& d = dieBgFree[u.die];
    if (d > from)
        d += delta;
    Tick& p = planeBgFree[u.plane];
    if (p > from)
        p += delta;
    // Every cell-tailed tracked op on this die still in flight at the
    // suspension point finishes later by the stolen window. Each op is
    // extended by exactly one mechanism — cell-tailed ops by the die
    // push here, transfer-tailed ops by bumpChannelOps — so one
    // foreground op that both claims the channel and suspends the die
    // can never double-count against a single record. Uniform
    // extension preserves the relative order of ops on the same die,
    // so the latest-latched op stays the latest — the FTL relies on
    // this to track one handle per GC slice.
    for (std::uint32_t s = dieHead[u.die]; s != none; s = ops[s].next)
        if (ops[s].completion > from)
            ops[s].completion += delta;
}

FlashOpHandle
NandPackagePool::trackOp(const FlashUnit& u, Tick completion,
                         bool transfer_tailed)
{
    std::uint32_t slot = freeHead;
    if (slot != none) {
        freeHead = ops[slot].next;
    } else {
        slot = static_cast<std::uint32_t>(ops.size());
        HAMS_LINT_SUPPRESS("op-arena growth to the high-water mark of "
                           "tracked flash ops; steady state recycles "
                           "slots off the free list")
        ops.emplace_back();
    }
    OpRecord& r = ops[slot];
    r.live = true;
    r.transferTailed = transfer_tailed;
    r.list = transfer_tailed ? u.channel : u.die;
    r.completion = completion;
    std::uint32_t& head = headOf(r);
    r.prev = none;
    r.next = head;
    if (head != none)
        ops[head].prev = slot;
    head = slot;
    ++liveCount;
    return {slot, r.gen};
}

void
NandPackagePool::checkLive(FlashOpHandle h, const char* what) const
{
    if (h.slot >= ops.size() || ops[h.slot].gen != h.gen ||
        !ops[h.slot].live)
        panic(what, " on a stale or invalid FlashOpHandle (slot ", h.slot,
              " gen ", h.gen, ")");
}

Tick
NandPackagePool::completionOf(FlashOpHandle h) const
{
    checkLive(h, "completionOf");
    return ops[h.slot].completion;
}

void
NandPackagePool::releaseOp(FlashOpHandle h)
{
    checkLive(h, "releaseOp");
    OpRecord& r = ops[h.slot];
    if (r.prev != none)
        ops[r.prev].next = r.next;
    else
        headOf(r) = r.next;
    if (r.next != none)
        ops[r.next].prev = r.prev;
    r.live = false;
    ++r.gen;
    r.next = freeHead;
    freeHead = h.slot;
    --liveCount;
}

void
NandPackagePool::bumpChannelOps(std::uint32_t ch, Tick from, Tick delta)
{
    for (std::uint32_t s = chanHead[ch]; s != none; s = ops[s].next)
        if (ops[s].completion > from)
            ops[s].completion += delta;
}

void
NandPackagePool::reset()
{
    std::fill(dieFree.begin(), dieFree.end(), 0);
    std::fill(planeFree.begin(), planeFree.end(), 0);
    std::fill(dieBgFree.begin(), dieBgFree.end(), 0);
    std::fill(planeBgFree.begin(), planeBgFree.end(), 0);
    // Power cycle: every outstanding handle dies with the in-flight
    // work. Generation bumps make pre-reset handles detectably stale.
    for (std::uint32_t slot = 0; slot < ops.size(); ++slot) {
        OpRecord& r = ops[slot];
        if (!r.live)
            continue;
        r.live = false;
        ++r.gen;
        r.next = freeHead;
        freeHead = slot;
    }
    std::fill(dieHead.begin(), dieHead.end(), none);
    std::fill(chanHead.begin(), chanHead.end(), none);
    liveCount = 0;
}

} // namespace hams
