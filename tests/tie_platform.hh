/**
 * @file
 * Test-only fixed-latency platform that logs every call: each access
 * completes @c latency per 64 B line after issue, inline or by event,
 * so the log of (tick, address) calls is exactly the issue order. The
 * SMP inline-rule tests and the closed-loop driver's slot-pick test
 * script issue orders against it.
 */

#ifndef HAMS_TESTS_TIE_PLATFORM_HH_
#define HAMS_TESTS_TIE_PLATFORM_HH_

#include <string>
#include <vector>

#include "baselines/platform.hh"
#include "sim/event_queue.hh"

namespace hams {

class TiePlatform : public MemoryPlatform
{
  public:
    /** Completion latency of one 64 B line. */
    static constexpr Tick latency = nanoseconds(20);

    struct Call
    {
        Tick at;
        Addr addr;

        bool
        operator==(const Call& o) const
        {
            return at == o.at && addr == o.addr;
        }
    };

    const std::string& name() const override { return _name; }
    std::uint64_t capacity() const override { return 1ull << 30; }
    EventQueue& eventQueue() override { return eq; }
    bool persistent() const override { return true; }

    bool
    tryAccess(const MemAccess& acc, Tick at, InlineCompletion& out) override
    {
        calls.push_back({at, acc.addr});
        out.bd = LatencyBreakdown{};
        out.bd.nvdimm = latencyOf(acc);
        out.done = at + out.bd.nvdimm;
        out.domain = &eq;
        return true;
    }

    std::vector<Call> calls;

  private:
    static Tick
    latencyOf(const MemAccess& acc)
    {
        return latency * ((acc.size + 63) / 64);
    }

    std::string _name = "tie";
    EventQueue eq;
};

} // namespace hams

#endif // HAMS_TESTS_TIE_PLATFORM_HH_
