/**
 * @file
 * NAND flash energy model: per-operation energies plus per-die idle
 * power, with presets for Z-NAND and conventional V-NAND derived from
 * datasheet-class figures (paper SSVI-A bases its model on NAND
 * datasheets).
 */

#ifndef HAMS_ENERGY_FLASH_POWER_HH_
#define HAMS_ENERGY_FLASH_POWER_HH_

#include "flash/nand_package.hh"
#include "sim/types.hh"

namespace hams {

/** Flash media with an energy preset (zNand() / vNand() below). */
enum class FlashMedia : std::uint8_t { ZNand, VNand };

/** Tunable flash energy constants. */
struct FlashPowerParams
{
    double readOpJ = 10e-6;    //!< per page read
    double programOpJ = 45e-6; //!< per page program
    double eraseOpJ = 160e-6;  //!< per block erase
    double idleWPerDie = 4e-3; //!< standby power per die

    /** Z-NAND: small SLC pages, fast low-energy sensing. */
    static FlashPowerParams zNand();

    /** V-NAND MLC/TLC class. */
    static FlashPowerParams vNand();
};

/** Computes flash-complex energy from FIL activity counters. */
class FlashPowerModel
{
  public:
    explicit FlashPowerModel(const FlashPowerParams& p = {}) : params(p) {}

    double energyJ(const FlashActivity& activity, Tick elapsed,
                   std::uint64_t dies) const;

  private:
    FlashPowerParams params;
};

} // namespace hams

#endif // HAMS_ENERGY_FLASH_POWER_HH_
