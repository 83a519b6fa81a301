#include "nvme/nvme_controller.hh"

#include <utility>

#include "sim/logging.hh"

namespace hams {

namespace {

/** Command decode/dispatch time inside the controller. */
constexpr Tick cmdProcessing = nanoseconds(500);
/** Completion-side processing (CQE build, MSI). */
constexpr Tick cplProcessing = nanoseconds(300);

} // namespace

NvmeController::NvmeController(EventQueue& eq, Ssd& ssd, PcieLink& link,
                               DmaTarget& host)
    : eq(eq), _ssd(ssd), link(link), host(host)
{
}

std::uint16_t
NvmeController::attachQueue(QueuePair* qp)
{
    queues.push_back(qp);
    return static_cast<std::uint16_t>(queues.size() - 1);
}

void
NvmeController::onCompletion(CompletionHandler h)
{
    handler = std::move(h);
}

void
NvmeController::ringDoorbell(std::uint16_t qid, Tick at)
{
    if (qid >= queues.size())
        panic("doorbell for unknown queue ", qid);
    QueuePair* qp = queues[qid];

    // The doorbell MMIO write crosses the link first.
    Tick db_at_device = link.signal(at);

    // Fetch every pending SQE before executing any command: the fetches
    // happen early on the wire, and executing in between would let one
    // command's (later) data DMA reserve host memory ahead of the next
    // command's (earlier) fetch in the analytic resource model.
    // Swap-to-local reuses the batch buffer's capacity while staying
    // safe against reentrant rings.
    std::vector<std::pair<NvmeCommand, Tick>> batch;
    batch.swap(fetchScratch);
    batch.clear();
    while (qp->hasWork()) {
        std::uint16_t slot = qp->sqHead();
        NvmeCommand cmd = qp->fetch();
        Addr sqe_addr = qp->sqBase() + Addr(slot) * sizeof(NvmeCommand);
        Tick mem_done = host.dmaAccess(sqe_addr, sizeof(NvmeCommand),
                                       MemOp::Read, db_at_device);
        Tick fetched = link.transfer(sizeof(NvmeCommand), LinkDir::ToDevice,
                                     mem_done);
        batch.emplace_back(cmd, fetched + cmdProcessing);
    }
    for (auto& [cmd, start] : batch)
        execute(qid, cmd, start);
    batch.clear();
    fetchScratch.swap(batch);
}

void
NvmeController::execute(std::uint16_t qid, const NvmeCommand& cmd,
                        Tick start)
{
    ++_outstanding;
    QueuePair* qp = queues[qid];
    std::uint64_t bytes =
        std::uint64_t(cmd.blockCount()) * nvmeBlockSize;
    NvmeCmdTrace trace;
    trace.protocol = cmdProcessing + cplProcessing;

    // PRP lists beyond two entries need an extra host read to walk.
    if (cmd.blockCount() > 2) {
        Tick walked = host.dmaAccess(cmd.prp2 ? cmd.prp2 : cmd.prp1, 64,
                                     MemOp::Read, start);
        trace.protocol += walked - start;
        start = walked;
    }

    Tick done = start;
    std::uint64_t my_epoch = epoch;
    bool functional = host.dmaData() && _ssd.config().functionalData;

    switch (cmd.op()) {
      case NvmeOpcode::Read: {
        Tick media_done;
        DataCtx* dctx = nullptr;
        if (functional) {
            dctx = dataPool.acquire();
            dctx->epoch = my_epoch;
            dctx->prp = cmd.prp1;
            dctx->bytes = bytes;
            HAMS_LINT_SUPPRESS("pooled-context staging buffer: capacity "
                               "is retained across pool recycles and "
                               "grows only to the largest transfer")
            dctx->data.resize(bytes);
            media_done = _ssd.hostRead(cmd.slba, cmd.blockCount(), start,
                                       dctx->data.data());
        } else {
            media_done = _ssd.hostRead(cmd.slba, cmd.blockCount(), start);
        }
        trace.media = media_done - start;
        // Data DMA device -> host, then the host-memory write.
        Tick link_done = link.transfer(bytes, LinkDir::ToHost, media_done);
        done = host.dmaAccess(cmd.prp1, static_cast<std::uint32_t>(bytes),
                              MemOp::Write, link_done);
        trace.dma = done - media_done;
        if (dctx) {
            // Bytes land in host memory when the DMA completes.
            eq.scheduleAt(done, [this, dctx]() {
                if (dctx->epoch == epoch)
                    host.dmaData()->write(dctx->prp, dctx->data.data(),
                                          dctx->bytes);
                dataPool.release(dctx);
            });
        }
        break;
      }
      case NvmeOpcode::Write: {
        // Data DMA host -> device: host-memory read + upstream transfer.
        // The device observes host bytes only when the DMA completes —
        // that pull-vs-overwrite window is exactly what the HAMS
        // PRP-pool cloning protects (paper SSV-B, Fig. 13).
        Tick mem_done = host.dmaAccess(cmd.prp1,
                                       static_cast<std::uint32_t>(bytes),
                                       MemOp::Read, start);
        Tick dma_done = link.transfer(bytes, LinkDir::ToDevice, mem_done);
        trace.dma = dma_done - start;
        done = _ssd.hostWrite(cmd.slba, cmd.blockCount(), cmd.fua(),
                              dma_done);
        trace.media = done - dma_done;
        if (functional) {
            DataCtx* dctx = dataPool.acquire();
            dctx->epoch = my_epoch;
            dctx->prp = cmd.prp1;
            dctx->slba = cmd.slba;
            dctx->blocks = cmd.blockCount();
            dctx->bytes = bytes;
            dctx->fua = cmd.fua();
            eq.scheduleAt(dma_done, [this, dctx]() {
                if (dctx->epoch == epoch) {
                    HAMS_LINT_SUPPRESS("pooled-context staging buffer: "
                                       "capacity is retained across pool "
                                       "recycles and grows only to the "
                                       "largest transfer")
                    dctx->data.resize(dctx->bytes);
                    host.dmaData()->read(dctx->prp, dctx->data.data(),
                                         dctx->bytes);
                    _ssd.pokeWrite(dctx->slba, dctx->blocks, dctx->fua,
                                   dctx->data.data());
                }
                dataPool.release(dctx);
            });
        }
        break;
      }
      case NvmeOpcode::Flush:
        done = _ssd.hostFlush(start);
        trace.media = done - start;
        break;
      default:
        panic("unsupported NVMe opcode ", int(cmd.opcode));
    }

    // Post the CQE (16 B upstream + host write) and raise MSI.
    Tick cqe_link = link.transfer(sizeof(NvmeCompletion), LinkDir::ToHost,
                                  done + cplProcessing);
    Tick cqe_mem = host.dmaAccess(qp->cqBase(), sizeof(NvmeCompletion),
                                  MemOp::Write, cqe_link);
    Tick msi = link.signal(cqe_mem);
    trace.protocol += msi - (done + cplProcessing);

    CplCtx* ctx = cplPool.acquire();
    ctx->epoch = my_epoch;
    ctx->qid = qid;
    ctx->qp = qp;
    ctx->cqe = NvmeCompletion{};
    ctx->cqe.cid = cmd.cid;
    ctx->cqe.encode(NvmeStatus::Success, true);
    ctx->cmd = cmd;
    ctx->trace = trace;
    ctx->msi = msi;

    eq.scheduleAt(msi, [this, ctx]() {
        if (ctx->epoch != epoch) {
            cplPool.release(ctx);
            return;
        }
        // Copy out and release first: the handler may submit new
        // commands and reuse this context.
        std::uint16_t q = ctx->qid;
        QueuePair* queue = ctx->qp;
        NvmeCompletion cqe = ctx->cqe;
        NvmeCommand command = ctx->cmd;
        NvmeCmdTrace tr = ctx->trace;
        Tick when = ctx->msi;
        cplPool.release(ctx);

        queue->complete(cqe);
        if (_outstanding > 0)
            --_outstanding;
        if (handler)
            handler(q, cqe, command, tr, when);
    });
}

void
NvmeController::powerFail(bool events_dropped)
{
    // The flag is a claim about the event queue's state; verify it.
    // An inconsistent claim is how context double-frees (dropped=true
    // with events still pending) or permanent context leaks
    // (dropped=false after the queue was reset) start.
    if (events_dropped && eq.pending() != 0)
        fatal("NvmeController::powerFail(events_dropped=true) with ",
              eq.pending(), " events still pending: reset the event "
              "queue before declaring its events dropped");
    std::size_t live = cplPool.liveObjects() + dataPool.liveObjects();
    if (!events_dropped && eq.pending() == 0 && live != 0)
        fatal("NvmeController::powerFail(events_dropped=false) with an "
              "empty event queue would strand ", live,
              " live contexts: no event remains to release them");
    // Orphan every in-flight completion event; the SSD handles its own
    // buffer fate.
    ++epoch;
    _outstanding = 0;
    if (events_dropped) {
        // The event queue was reset, so the events that would have
        // released these contexts are gone: take them all back.
        cplPool.reclaimAll();
        dataPool.reclaimAll();
    }
    // Otherwise the stale events still fire, observe the epoch
    // mismatch, and release their contexts themselves.
}

} // namespace hams
