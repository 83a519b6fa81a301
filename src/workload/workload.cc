#include "workload/workload.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hams {

SyntheticWorkload::SyntheticWorkload(const WorkloadSpec& spec,
                                     std::uint64_t seed)
    : _spec(spec), seed(seed), rng(seed)
{
    if (_spec.datasetBytes < (1u << 20))
        fatal("workload dataset too small: ", _spec.datasetBytes);

    // Reserve a WAL tail when the workload journals.
    if (_spec.walBytesPerOp > 0) {
        walBytes = std::max<std::uint64_t>(_spec.datasetBytes / 16,
                                           1u << 20);
        dataBytes = _spec.datasetBytes - walBytes;
        walBase = dataBytes;
    } else {
        dataBytes = _spec.datasetBytes;
        walBase = 0;
        walBytes = 0;
    }
    reset();
}

Addr
SyntheticWorkload::shardStart(std::uint64_t span) const
{
    if (_spec.shardOffsetFrac <= 0 || span < 128)
        return 0;
    Addr a = static_cast<Addr>(static_cast<double>(span) *
                               _spec.shardOffsetFrac) &
             ~Addr(63);
    return a + 64 > span ? 0 : a;
}

void
SyntheticWorkload::reset()
{
    rng = Rng(seed);
    phase = Phase::Btree;
    phaseLeft = _spec.btreeTouches;
    seqCursor = shardStart(dataBytes);
    walCursor = shardStart(walBytes);
    lastPage = ~Addr(0);
    opsEmitted = 0;
    opRowBase = 0;
    if (phaseLeft == 0) {
        phase = Phase::Data;
        phaseLeft = _spec.accessesPerOp;
    }
}

Addr
SyntheticWorkload::randomDataPage()
{
    std::uint64_t pages = dataBytes / 4096;
    if (_spec.hotFraction > 0 && rng.chance(_spec.hotProbability)) {
        auto hot = static_cast<std::uint64_t>(
            static_cast<double>(pages) * _spec.hotFraction);
        return rng.below(std::max<std::uint64_t>(hot, 1)) * 4096;
    }
    return rng.below(pages) * 4096;
}

Addr
SyntheticWorkload::pickDataAddr()
{
    if (_spec.pattern == AccessPattern::Sequential) {
        Addr a = seqCursor;
        seqCursor += 64;
        if (seqCursor + 64 > dataBytes)
            seqCursor = 0;
        return a;
    }
    // Random: rows cluster within the per-op row base so one op touches
    // one neighbourhood, like a random row fetch. phaseLeft stays in
    // [1, accessesPerOp] here, so the modulo reduces to one compare
    // (this runs once per access — keep it division-free).
    std::uint64_t slot =
        phaseLeft == _spec.accessesPerOp ? 0 : phaseLeft;
    Addr a = opRowBase + slot * 64;
    if (a + 64 > dataBytes)
        a = a % (dataBytes - 64);
    return a & ~Addr(63);
}

bool
SyntheticWorkload::next(WorkloadOp& op)
{
    // Field by field, not `op = WorkloadOp{}`: gcc builds that in a
    // stack temporary and copies it out with loads wider than its
    // stores, which store forwarding cannot serve. Every field is
    // written on every path; only the boundary op carries no access.
    op.computeInstructions = _spec.computePerAccess;
    op.hasAccess = true;
    op.opBoundary = false;
    op.newPage = false;
    op.flushBarrier = false;

    switch (phase) {
      case Phase::Btree: {
        // Two hot index levels (they stay cache resident) plus a
        // uniformly random leaf page.
        Addr addr;
        if (phaseLeft > 1) {
            // Hot level: one of 32 branch pages near the start.
            addr = (rng.below(32) * 4096 + rng.below(64) * 64) %
                   (dataBytes - 64);
        } else {
            addr = randomDataPage() + rng.below(64) * 64;
            if (addr + 64 > dataBytes)
                addr = dataBytes - 4096;
        }
        op.access = MemAccess{addr & ~Addr(63), 64, MemOp::Read};
        if (--phaseLeft == 0) {
            phase = Phase::Data;
            phaseLeft = _spec.accessesPerOp;
            if (_spec.pattern == AccessPattern::Random)
                opRowBase = randomDataPage();
        }
        break;
      }
      case Phase::Data: {
        if (_spec.pattern == AccessPattern::Random &&
            phaseLeft == _spec.accessesPerOp && _spec.btreeTouches == 0)
            opRowBase = randomDataPage();
        Addr addr = pickDataAddr();
        bool is_read = rng.uniform() < _spec.readFraction;
        op.access = MemAccess{addr, 64,
                              is_read ? MemOp::Read : MemOp::Write};
        if (--phaseLeft == 0) {
            if (_spec.walBytesPerOp > 0) {
                phase = Phase::Wal;
                phaseLeft = (_spec.walBytesPerOp + 63) / 64;
            } else {
                phase = Phase::Boundary;
                phaseLeft = 1;
            }
        }
        break;
      }
      case Phase::Wal: {
        Addr addr = walBase + walCursor;
        walCursor += 64;
        if (walCursor + 64 > walBytes)
            walCursor = 0;
        op.access = MemAccess{addr, 64, MemOp::Write};
        if (--phaseLeft == 0) {
            phase = Phase::Boundary;
            phaseLeft = 1;
        }
        break;
      }
      case Phase::Boundary: {
        op.hasAccess = false;
        op.access = MemAccess{};
        op.opBoundary = true;
        ++opsEmitted;
        if (_spec.flushEveryOps > 0 &&
            opsEmitted % _spec.flushEveryOps == 0)
            op.flushBarrier = true;
        phase = _spec.btreeTouches > 0 ? Phase::Btree : Phase::Data;
        phaseLeft = _spec.btreeTouches > 0 ? _spec.btreeTouches
                                           : _spec.accessesPerOp;
        break;
      }
    }

    if (op.hasAccess) {
        op.access.addr += _spec.baseAddr;
        Addr page = op.access.addr / 4096;
        if (page != lastPage) {
            op.newPage = true;
            lastPage = page;
        }
    }
    return true; // endless stream; the core enforces the budget
}

namespace {

WorkloadSpec
specForName(const std::string& name, std::uint64_t dataset_bytes)
{
    for (const auto& n : microWorkloadNames())
        if (n == name)
            return microSpec(name, dataset_bytes);
    for (const auto& n : sqliteWorkloadNames())
        if (n == name)
            return sqliteSpec(name, dataset_bytes);
    for (const auto& n : rodiniaWorkloadNames())
        if (n == name)
            return rodiniaSpec(name, dataset_bytes);
    fatal("unknown workload '", name, "'");
}

} // namespace

std::unique_ptr<WorkloadGenerator>
makeWorkload(const std::string& name, std::uint64_t dataset_bytes,
             std::uint64_t seed)
{
    return std::make_unique<SyntheticWorkload>(
        specForName(name, dataset_bytes), seed);
}

std::unique_ptr<WorkloadGenerator>
makeCoreWorkload(const std::string& name, std::uint64_t dataset_bytes,
                 std::uint32_t core, std::uint32_t ncores,
                 std::uint64_t base_seed)
{
    if (ncores == 0 || core >= ncores)
        fatal("bad workload shard: core ", core, " of ", ncores);
    WorkloadSpec spec = specForName(name, dataset_bytes);
    spec.shardOffsetFrac =
        static_cast<double>(core) / static_cast<double>(ncores);
    // Distinct, well-spread seed per core (odd multiplier, so streams
    // never collide); core 0 keeps base_seed and is identical to the
    // single-core generator.
    std::uint64_t seed = base_seed + core * 0x9E3779B97F4A7C15ull;
    return std::make_unique<SyntheticWorkload>(spec, seed);
}

std::uint64_t
shardSeed(std::uint64_t base_seed, std::uint32_t shard)
{
    if (shard == 0)
        return base_seed; // M = 1 reproduces single-device streams
    // splitmix64 finaliser over a well-spread per-shard increment:
    // depends only on (base_seed, shard), never on the shard count.
    std::uint64_t z = base_seed + shard * 0xD1B54A32D192ED03ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::unique_ptr<WorkloadGenerator>
makeShardCoreWorkload(const std::string& name, std::uint64_t dataset_bytes,
                      std::uint32_t core, std::uint32_t ncores,
                      std::uint32_t shard, Addr shard_base,
                      std::uint64_t base_seed)
{
    if (ncores == 0 || core >= ncores)
        fatal("bad workload shard: core ", core, " of ", ncores);
    WorkloadSpec spec = specForName(name, dataset_bytes);
    spec.shardOffsetFrac =
        static_cast<double>(core) / static_cast<double>(ncores);
    spec.baseAddr = shard_base;
    std::uint64_t seed =
        shardSeed(base_seed, shard) + core * 0x9E3779B97F4A7C15ull;
    return std::make_unique<SyntheticWorkload>(spec, seed);
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> all;
    for (const auto& n : microWorkloadNames())
        all.push_back(n);
    for (const auto& n : rodiniaWorkloadNames())
        all.push_back(n);
    for (const auto& n : sqliteWorkloadNames())
        all.push_back(n);
    return all;
}

} // namespace hams
