/**
 * @file
 * Energy-model tests: DRAM/flash/CPU models and the qualitative
 * properties Fig. 19 relies on (internal-DRAM overhead, idle cost of a
 * slow platform), and the energyOf() pricing contract: an absent
 * device prices to +0.0 and each section uses its own model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "energy/cpu_power.hh"
#include "energy/dram_power.hh"
#include "energy/energy_meter.hh"
#include "energy/flash_power.hh"

#include "expect_fields.hh"

namespace hams {
namespace {

TEST(DramPower, BackgroundScalesWithTime)
{
    DramPowerModel m;
    DramActivity idle;
    double e1 = m.energyJ(idle, seconds(1), 2);
    double e2 = m.energyJ(idle, seconds(2), 2);
    EXPECT_NEAR(e2, 2 * e1, e1 * 1e-9);
    EXPECT_GT(e1, 0.0);
}

TEST(DramPower, OperationsAddEnergy)
{
    DramPowerModel m;
    DramActivity busy;
    busy.activates = 1000;
    busy.reads = 10000;
    busy.writes = 10000;
    DramActivity idle;
    EXPECT_GT(m.energyJ(busy, seconds(1), 2),
              m.energyJ(idle, seconds(1), 2));
}

TEST(DramPower, MoreRanksMoreBackground)
{
    DramPowerModel m;
    DramActivity idle;
    EXPECT_GT(m.energyJ(idle, seconds(1), 8),
              m.energyJ(idle, seconds(1), 2));
}

TEST(FlashPower, ProgramCostsMoreThanRead)
{
    FlashPowerModel m{FlashPowerParams::zNand()};
    FlashActivity reads, progs;
    reads.reads = 1000;
    progs.programs = 1000;
    EXPECT_GT(m.energyJ(progs, 0, 64), m.energyJ(reads, 0, 64));
}

TEST(FlashPower, VNandCostsMoreThanZNandPerOp)
{
    FlashActivity act;
    act.reads = 1000;
    FlashPowerModel z{FlashPowerParams::zNand()};
    FlashPowerModel v{FlashPowerParams::vNand()};
    EXPECT_GT(v.energyJ(act, 0, 64), z.energyJ(act, 0, 64));
}

TEST(FlashPower, IdleScalesWithDies)
{
    FlashPowerModel m{FlashPowerParams::zNand()};
    FlashActivity idle;
    EXPECT_GT(m.energyJ(idle, seconds(1), 128),
              m.energyJ(idle, seconds(1), 32));
}

TEST(CpuPower, ActiveCostsMoreThanStalled)
{
    CpuPowerModel m;
    EXPECT_GT(m.energyJ(seconds(1), 0), m.energyJ(0, seconds(1)));
}

TEST(CpuPower, SlowPlatformBurnsIdleEnergy)
{
    // The paper's Fig. 19 observation: mmap's longer runtime costs CPU
    // and memory idle energy even though the work is the same.
    CpuPowerModel m;
    Tick active = seconds(1);
    double fast = m.energyJ(active, seconds(0.2));
    double slow = m.energyJ(active, seconds(3.0));
    EXPECT_GT(slow, 1.5 * fast);
}

TEST(EnergyMeter, BreakdownSumsAndAccumulates)
{
    EnergyBreakdownJ a{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(a.total(), 10.0);
    EnergyBreakdownJ b{0.5, 0.5, 0.5, 0.5};
    mergeFields(a, b);
    EXPECT_DOUBLE_EQ(a.total(), 12.0);
    expectSameFields(a, EnergyBreakdownJ{1.5, 2.5, 3.5, 4.5}, "merged");
}

TEST(EnergyOf, NoDeviceIsAllZero)
{
    EnergyBreakdownJ e = energyOf(DeviceActivity{}, seconds(1));
    expectSameFields(e, EnergyBreakdownJ{}, "no device");
    EnergyBreakdownJ::forEachField(e, e, [](auto, const char* name,
                                            double x, double) {
        EXPECT_FALSE(std::signbit(x)) << name;
    });
}

/** Nonzero counters in every section (ranks and dies left to the
 *  caller). */
DeviceActivity
busyActivity()
{
    DeviceActivity a;
    a.memory.activates = 100;
    a.memory.reads = 4000;
    a.memory.writes = 3000;
    a.buffer.reads = 500;
    a.buffer.writes = 700;
    a.flash.reads = 20;
    a.flash.programs = 10;
    a.flash.erases = 1;
    return a;
}

TEST(EnergyOf, ZeroRanksOrDiesIsAnAbsentDevice)
{
    // Counters without ranks or dies price to nothing: the count, not
    // a flag, says whether the device exists.
    expectSameFields(energyOf(busyActivity(), seconds(1)),
                     EnergyBreakdownJ{}, "no ranks, no dies");
}

TEST(EnergyOf, PricesEachSectionWithItsModel)
{
    DeviceActivity a = busyActivity();
    a.memoryRanks = 2;
    a.bufferRanks = 1;
    a.dies = 32;
    Tick t = seconds(0.25);
    DramPowerModel dram;
    EnergyBreakdownJ want{0.0, dram.energyJ(a.memory, t, 2),
                          dram.energyJ(a.buffer, t, 1),
                          FlashPowerModel{FlashPowerParams::zNand()}
                              .energyJ(a.flash, t, 32)};
    expectSameFields(energyOf(a, t), want, "Z-NAND");

    a.media = FlashMedia::VNand;
    want.znand =
        FlashPowerModel{FlashPowerParams::vNand()}.energyJ(a.flash, t, 32);
    expectSameFields(energyOf(a, t), want, "V-NAND");
}

TEST(EnergyMeter, InternalDramIsMeaningfulShare)
{
    // Paper SSIV-C: the SSD-internal DRAM draws 17% more power than a
    // 32-chip flash complex; in our constants an idle 512 MB module
    // must cost more per second than 32 idle dies.
    DramPowerModel dram;
    FlashPowerModel flash{FlashPowerParams::zNand()};
    DramActivity d_idle;
    FlashActivity f_idle;
    double dram_j = dram.energyJ(d_idle, seconds(1), 1);
    double flash_j = flash.energyJ(f_idle, seconds(1), 32);
    EXPECT_GT(dram_j, flash_j * 0.5);
}

} // namespace
} // namespace hams
