#include "sim/fault_injector.hh"

#include "core/hams_system.hh"
#include "ftl/page_ftl.hh"
#include "sim/logging.hh"
#include "ssd/ssd.hh"

namespace hams {

FaultInjector::FaultInjector(EventQueue& eq, std::uint64_t seed)
    : eq(eq), rng(seed)
{
}

void
FaultInjector::watchSsd(Ssd* s)
{
    ssd = s;
    if (s)
        ftl = &s->pageFtl();
}

void
FaultInjector::watchSystem(HamsSystem* s)
{
    sys = s;
    watchSsd(s ? &s->ullFlash() : nullptr);
}

void
FaultInjector::arm(const FaultPlan& plan)
{
    _plan = plan;
    _armed = true;
    drainBudgetDrawn = false;
    drainBudget = 0;
    switch (plan.policy) {
      case CutPolicy::RandomEvent:
      case CutPolicy::MidSupercapDrain:
        countdown = 1 + rng.below(plan.param ? plan.param : 1);
        break;
      case CutPolicy::MidGcSlice:
      case CutPolicy::MidErase:
        if (!ftl)
            fatal("fault injector: GC cut policy armed without an FTL "
                  "to watch");
        countdown = 0;
        break;
      case CutPolicy::KthFlush:
        if (!ssd)
            fatal("fault injector: kth-flush policy armed without an "
                  "SSD to watch");
        countdown = 0;
        break;
      case CutPolicy::MidRestore:
      case CutPolicy::MidReplay:
        if (!sys)
            fatal("fault injector: mid-recovery cut policy armed "
                  "without a system to watch");
        countdown = 0;
        break;
    }
}

bool
FaultInjector::cutDue() const
{
    if (!_armed)
        return false;
    switch (_plan.policy) {
      case CutPolicy::RandomEvent:
      case CutPolicy::MidSupercapDrain:
        return countdown == 0;
      case CutPolicy::MidGcSlice:
        return ftl->gcVictimLive();
      case CutPolicy::MidErase:
        return ftl->gcEraseInFlight();
      case CutPolicy::KthFlush:
        return ssd->stats().flushes >= _plan.param;
      case CutPolicy::MidRestore: {
        const Nvdimm& n = sys->nvdimmModule();
        return n.state() == Nvdimm::State::Restoring &&
               n.framesRestored() > 0 &&
               n.framesRestored() < n.restoreFrames();
      }
      case CutPolicy::MidReplay:
        return sys->controller().replayInFlight();
    }
    return false;
}

bool
FaultInjector::pumpToCut(Tick horizon)
{
    while (_armed) {
        if (cutDue())
            return true;
        if (eq.empty() || eq.nextTick() > horizon)
            return false;
        if (!eq.step())
            return false;
        ++_stats.eventsPumped;
        if (countdown > 0)
            --countdown;
    }
    return false;
}

std::uint64_t
FaultInjector::drainFrameBudget()
{
    if (_plan.policy != CutPolicy::MidSupercapDrain)
        return ~std::uint64_t(0);
    if (!drainBudgetDrawn) {
        // Drawn against the dirty population at cut time so the
        // interrupted prefix is always a strict subset.
        std::uint64_t dirty = 0;
        if (ssd && ssd->buffer())
            dirty = ssd->buffer()->dirtyCount();
        drainBudget = dirty ? rng.below(dirty) : 0;
        drainBudgetDrawn = true;
        _stats.drainFramesAllowed = drainBudget;
    }
    return drainBudget;
}

void
FaultInjector::cut(HamsSystem& sys)
{
    if (!_armed)
        fatal("fault injector: cut() without an armed plan");
    sys.powerFail(drainFrameBudget());
    ++_stats.cuts;
    _armed = false;
}

void
FaultInjector::noteCut()
{
    if (!_armed)
        fatal("fault injector: noteCut() without an armed plan");
    ++_stats.cuts;
    _armed = false;
}

} // namespace hams
