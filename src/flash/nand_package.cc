#include "flash/nand_package.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

NandPackagePool::NandPackagePool(const FlashGeometry& geom) : geom(geom)
{
    std::size_t dies = geom.dies();
    dieFree.assign(dies, 0);
    planeFree.assign(dies * geom.planesPerDie, 0);
    dieBgFree.assign(dies, 0);
    planeBgFree.assign(dies * geom.planesPerDie, 0);
    dieHead.assign(dies, none);
    chanHead.assign(geom.channels, none);
}

std::size_t
NandPackagePool::dieIndex(const FlashAddress& a) const
{
    return (std::size_t(a.channel) * geom.packagesPerChannel + a.package) *
               geom.diesPerPackage + a.die;
}

std::size_t
NandPackagePool::planeIndex(const FlashAddress& a) const
{
    return dieIndex(a) * geom.planesPerDie + a.plane;
}

Tick
NandPackagePool::dieFreeAt(const FlashAddress& a) const
{
    std::size_t i = dieIndex(a);
    return std::max(dieFree[i], dieBgFree[i]);
}

Tick
NandPackagePool::planeFreeAt(const FlashAddress& a) const
{
    std::size_t i = planeIndex(a);
    return std::max(planeFree[i], planeBgFree[i]);
}

Tick
NandPackagePool::dieFgFreeAt(const FlashAddress& a) const
{
    return dieFree[dieIndex(a)];
}

Tick
NandPackagePool::planeFgFreeAt(const FlashAddress& a) const
{
    return planeFree[planeIndex(a)];
}

void
NandPackagePool::occupyDie(const FlashAddress& a, Tick until)
{
    Tick& t = dieFree[dieIndex(a)];
    t = std::max(t, until);
}

void
NandPackagePool::occupyPlane(const FlashAddress& a, Tick until)
{
    Tick& t = planeFree[planeIndex(a)];
    t = std::max(t, until);
}

void
NandPackagePool::occupyDieBg(const FlashAddress& a, Tick until)
{
    Tick& t = dieBgFree[dieIndex(a)];
    t = std::max(t, until);
}

void
NandPackagePool::occupyPlaneBg(const FlashAddress& a, Tick until)
{
    Tick& t = planeBgFree[planeIndex(a)];
    t = std::max(t, until);
}

void
NandPackagePool::pushBackgroundOut(const FlashAddress& a, Tick from,
                                   Tick delta)
{
    Tick& d = dieBgFree[dieIndex(a)];
    if (d > from)
        d += delta;
    Tick& p = planeBgFree[planeIndex(a)];
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
    for (std::uint32_t s = dieHead[dieIndex(a)]; s != none; s = ops[s].next)
        if (ops[s].completion > from)
            ops[s].completion += delta;
}

FlashOpHandle
NandPackagePool::trackOp(const FlashAddress& a, Tick completion,
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
    r.list = transfer_tailed ? a.channel
                             : static_cast<std::uint32_t>(dieIndex(a));
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
