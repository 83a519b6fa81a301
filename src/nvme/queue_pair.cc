#include "nvme/queue_pair.hh"

#include "sim/logging.hh"

namespace hams {

QueuePair::QueuePair(SparseMemory& backing, Addr sq_base, Addr cq_base,
                     std::uint16_t entries)
    : backing(backing), _sqBase(sq_base), _cqBase(cq_base), _entries(entries)
{
    if (entries < 2)
        fatal("queue pair needs at least 2 entries");
}

bool
QueuePair::sqFull() const
{
    return static_cast<std::uint16_t>((_sqTail + 1) % _entries) == _sqHead;
}

std::uint16_t
QueuePair::push(const NvmeCommand& cmd)
{
    if (sqFull())
        panic("push to full SQ");
    std::uint16_t slot = _sqTail;
    backing.write(_sqBase + Addr(slot) * sizeof(NvmeCommand), &cmd,
                  sizeof(cmd));
    _sqTail = static_cast<std::uint16_t>((_sqTail + 1) % _entries);
    return slot;
}

bool
QueuePair::hasWork() const
{
    return _sqHead != _sqTail;
}

NvmeCommand
QueuePair::fetch()
{
    if (!hasWork())
        panic("fetch from empty SQ");
    NvmeCommand cmd;
    backing.read(_sqBase + Addr(_sqHead) * sizeof(NvmeCommand), &cmd,
                 sizeof(cmd));
    _sqHead = static_cast<std::uint16_t>((_sqHead + 1) % _entries);
    return cmd;
}

void
QueuePair::complete(NvmeCompletion cqe)
{
    cqe.encode(cqe.statusCode(), cqPhase);
    cqe.sqHead = _sqHead;
    backing.write(_cqBase + Addr(_cqTail) * sizeof(NvmeCompletion), &cqe,
                  sizeof(cqe));
    _cqTail = static_cast<std::uint16_t>((_cqTail + 1) % _entries);
    if (_cqTail == 0)
        cqPhase = !cqPhase;
}

std::optional<NvmeCompletion>
QueuePair::popCompletion()
{
    if (_cqHead == _cqTail)
        return std::nullopt;
    NvmeCompletion cqe;
    backing.read(_cqBase + Addr(_cqHead) * sizeof(NvmeCompletion), &cqe,
                 sizeof(cqe));
    _cqHead = static_cast<std::uint16_t>((_cqHead + 1) % _entries);
    return cqe;
}

NvmeCommand
QueuePair::readSlot(std::uint16_t idx) const
{
    if (idx >= _entries)
        panic("SQ slot ", idx, " out of range");
    NvmeCommand cmd;
    backing.read(_sqBase + Addr(idx) * sizeof(NvmeCommand), &cmd,
                 sizeof(cmd));
    return cmd;
}

void
QueuePair::writeSlot(std::uint16_t idx, const NvmeCommand& cmd)
{
    if (idx >= _entries)
        panic("SQ slot ", idx, " out of range");
    backing.write(_sqBase + Addr(idx) * sizeof(NvmeCommand), &cmd,
                  sizeof(cmd));
}

void
QueuePair::resetPointers()
{
    _sqHead = _sqTail = _cqHead = _cqTail = 0;
    cqPhase = true;
}

} // namespace hams
