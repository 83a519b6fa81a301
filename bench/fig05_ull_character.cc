/**
 * @file
 * Fig. 5 reproduction: device-level characterization of ULL-Flash vs a
 * high-performance NVMe SSD with a fio-style closed-loop engine.
 *
 *  (a) 4 KB access latency: DDR4 DIMM vs ULL-Flash (paper: 8 us read /
 *      10 us write for ULL, 3.3x / 1.79x the DDR4 numbers)
 *  (b) latency vs I/O depth 1..32, seq/rand x read/write
 *  (c) bandwidth vs I/O depth (ULL reaches peak at a few commands;
 *      NVMe SSD never reaches peak on random reads)
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.hh"
#include "dram/memory_controller.hh"
#include "nvme/nvme_controller.hh"
#include "nvme/queue_pair.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "ssd/device_configs.hh"

namespace {

using namespace hams;

/** Host DRAM standing in for fio's buffers. */
struct FioHostMemory : public DmaTarget
{
    FioHostMemory()
        : ctrl(Ddr4Timing::speedGrade(2400), 1ull << 30)
    {
    }

    Tick
    dmaAccess(Addr addr, std::uint32_t size, MemOp op, Tick at) override
    {
        // Queue-entry traffic (64 B SQE/CQE) is negligible bandwidth:
        // model latency only so it never queues behind bulk data DMA.
        if (size <= 64)
            return at + nanoseconds(120);
        return ctrl.access(addr % ctrl.capacity(), size, op, at);
    }
    SparseMemory* dmaData() override { return nullptr; }

    MemoryController ctrl;
};

/** User-level software constant (fio + driver + IRQ path). */
constexpr Tick userSoftware = microseconds(3);

struct FioResult
{
    double avgLatencyUs = 0;
    double bandwidthGBs = 0;
};

/**
 * Closed-loop fio engine: keep @p depth commands outstanding until
 * @p total complete.
 */
FioResult
runFio(const SsdConfig& ssd_cfg, const LinkConfig& link_cfg, bool random,
       bool write, std::uint32_t depth, std::uint32_t total)
{
    EventQueue eq;
    Ssd ssd(ssd_cfg);
    PcieLink link(link_cfg);
    FioHostMemory host;
    NvmeController ctrl(eq, ssd, link, host);
    SparseMemory qp_mem(1 << 20);
    QueuePair qp(qp_mem, 0, 512 << 10, 1024);
    std::uint16_t qid = ctrl.attachQueue(&qp);

    Rng rng(7);
    std::uint64_t blocks = ssd.logicalBlocks();
    std::uint64_t seq_cursor = 0;
    std::uint32_t completed = 0, issued = 0;
    std::uint16_t cid = 1;
    Tick lat_sum = 0;
    Tick first_issue = 0, last_done = 0;
    std::unordered_map<std::uint16_t, Tick> issue_time;

    // Precondition: make the target range mapped so reads hit flash
    // (the paper writes all data blocks and cleans the internal DRAM
    // in a warm-up phase before measuring).
    std::uint32_t span = std::min<std::uint64_t>(blocks, 4096);
    Tick warm = 0;
    for (std::uint64_t b = 0; b < span; ++b)
        warm = ssd.hostWrite(b, 1, /*fua=*/true, warm);
    if (ssd.buffer())
        ssd.buffer()->dropAll(); // cold buffer per the paper's warm-up
    Tick fio_start = warm + microseconds(100);

    std::function<void(Tick)> issue = [&](Tick now) {
        if (issued >= total)
            return;
        ++issued;
        std::uint64_t slba = random ? rng.below(span)
                                    : (seq_cursor++ % span);
        NvmeCommand cmd =
            write ? makeWriteCommand(cid, slba, 1, 0x100000)
                  : makeReadCommand(cid, slba, 1, 0x100000);
        issue_time[cid] = now;
        ++cid;
        qp.push(cmd);
        ctrl.ringDoorbell(qid, now + userSoftware / 2);
    };

    ctrl.onCompletion([&](std::uint16_t, const NvmeCompletion& cqe,
                          const NvmeCommand&, const NvmeCmdTrace&,
                          Tick at) {
        Tick done = at + userSoftware / 2;
        lat_sum += done - issue_time[cqe.cid];
        issue_time.erase(cqe.cid);
        ++completed;
        last_done = done;
        qp.popCompletion();
        issue(at);
    });

    first_issue = fio_start;
    for (std::uint32_t i = 0; i < depth; ++i)
        issue(fio_start);
    eq.run();

    FioResult r;
    if (completed) {
        r.avgLatencyUs = ticksToUs(lat_sum) / completed;
        double secs = ticksToSeconds(last_done - first_issue);
        r.bandwidthGBs = completed * 4096.0 / secs / 1e9;
    }
    return r;
}

} // namespace

int
main()
{
    using namespace hams;
    using namespace hams::bench;

    banner("Fig. 5", "ULL-Flash vs NVMe SSD device characterization");

    std::uint32_t total = static_cast<std::uint32_t>(400 * scale());

    // ---- (a) 4 KB access latency: DDR4 vs ULL-Flash ----
    {
        MemoryController ddr4(Ddr4Timing::speedGrade(paperDdr4Mts), 1ull << 30);
        Tick ddr_rd = ddr4.access(0, 4096, MemOp::Read, 0);
        Tick ddr_wr = ddr4.access(8192, 4096, MemOp::Write, ddr_rd) -
                      ddr_rd;
        // User-level view includes the load/store path constant.
        double ddr_rd_us = ticksToUs(ddr_rd + microseconds(2));
        double ddr_wr_us = ticksToUs(ddr_wr + microseconds(5));

        FioResult ull_rd = runFio(ullFlashConfig(1ull << 30, false),
                                  ullFlashLink(), true, false, 1, total);
        FioResult ull_wr = runFio(ullFlashConfig(1ull << 30, false),
                                  ullFlashLink(), true, true, 1, total);

        std::printf("\n(a) 4KB access latency (us, user-level)\n");
        std::printf("%-12s %10s %10s\n", "", "read", "write");
        std::printf("%-12s %10.1f %10.1f\n", "DDR4", ddr_rd_us, ddr_wr_us);
        std::printf("%-12s %10.1f %10.1f\n", "ULL-Flash",
                    ull_rd.avgLatencyUs, ull_wr.avgLatencyUs);
        std::printf("ratio ULL/DDR4: read %.1fx write %.2fx "
                    "(paper: 3.3x / 1.79x)\n",
                    ull_rd.avgLatencyUs / ddr_rd_us,
                    ull_wr.avgLatencyUs / ddr_wr_us);
    }

    // ---- (b)+(c) latency and bandwidth vs queue depth ----
    struct Device
    {
        const char* name;
        SsdConfig cfg;
        LinkConfig link;
    };
    std::vector<Device> devices = {
        {"ULL-Flash", ullFlashConfig(1ull << 30, false), ullFlashLink()},
        {"NVMe-SSD", nvmeSsdConfig(1ull << 30, false), nvmeSsdLink()},
    };
    struct Mode
    {
        const char* name;
        bool random;
        bool write;
    };
    std::vector<Mode> modes = {{"seqRd", false, false},
                               {"seqWr", false, true},
                               {"rndRd", true, false},
                               {"rndWr", true, true}};
    std::vector<std::uint32_t> depths = {1, 2, 4, 8, 16, 32};

    std::printf("\n(b) average latency (us) vs I/O depth\n");
    std::printf("%-10s %-7s", "device", "mode");
    for (auto d : depths)
        std::printf(" QD%-6u", d);
    std::printf("\n");
    std::vector<std::vector<FioResult>> grid;
    for (const auto& dev : devices) {
        for (const auto& m : modes) {
            std::printf("%-10s %-7s", dev.name, m.name);
            std::vector<FioResult> row;
            for (auto d : depths) {
                FioResult r = runFio(dev.cfg, dev.link, m.random, m.write,
                                     d, total);
                row.push_back(r);
                std::printf(" %-7.1f", r.avgLatencyUs);
            }
            grid.push_back(row);
            std::printf("\n");
        }
    }

    std::printf("\n(c) bandwidth (GB/s) vs I/O depth\n");
    std::printf("%-10s %-7s", "device", "mode");
    for (auto d : depths)
        std::printf(" QD%-6u", d);
    std::printf("\n");
    std::size_t idx = 0;
    for (const auto& dev : devices) {
        for (const auto& m : modes) {
            std::printf("%-10s %-7s", dev.name, m.name);
            for (const FioResult& r : grid[idx])
                std::printf(" %-7.2f", r.bandwidthGBs);
            ++idx;
            std::printf("\n");
        }
    }

    std::printf("\npaper shapes: ULL flat ~8-10us across depths, NVMe "
                "rising toward ~155us;\nULL read/write bandwidth "
                "115%%/137%% above NVMe, peaking within a few commands\n");
    return 0;
}
