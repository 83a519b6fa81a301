/**
 * @file
 * Test-only MemoryPlatform that forwards every call to a real platform,
 * conductor included. Spies derive from it and override just the calls
 * they watch.
 */

#ifndef HAMS_TESTS_FORWARDING_PLATFORM_HH_
#define HAMS_TESTS_FORWARDING_PLATFORM_HH_

#include <string>
#include <utility>

#include "baselines/platform.hh"

namespace hams {

class ForwardingPlatform : public MemoryPlatform
{
  public:
    explicit ForwardingPlatform(MemoryPlatform& inner) : inner(inner) {}

    const std::string& name() const override { return inner.name(); }
    std::uint64_t capacity() const override { return inner.capacity(); }
    EventQueue& eventQueue() override { return inner.eventQueue(); }
    DomainConductor& conductor() override { return inner.conductor(); }
    bool persistent() const override { return inner.persistent(); }

    void
    access(const MemAccess& acc, Tick at, AccessCb cb) override
    {
        inner.access(acc, at, std::move(cb));
    }

    bool
    tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out) override
    {
        return inner.tryAccess(acc, at, out);
    }

    void
    flush(Tick at, AccessCb cb) override
    {
        inner.flush(at, std::move(cb));
    }

    DeviceActivity
    deviceActivity() const override
    {
        return inner.deviceActivity();
    }

  protected:
    MemoryPlatform& inner;
};

} // namespace hams

#endif // HAMS_TESTS_FORWARDING_PLATFORM_HH_
