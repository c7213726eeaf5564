#include "workloads/workload.hh"

#include "common/logging.hh"

namespace cnvm
{

std::uint64_t
minRegionBytes(const WorkloadParams &params)
{
    LogLayout log;
    log.maxLines = params.logLines;
    return log.sizeBytes() + lineBytes;
}

Workload::Workload(const WorkloadParams &params)
    : params(params), rng(params.seed)
{
    logLayout.base = params.regionBase;
    logLayout.maxLines = params.logLines;
    if (params.regionBytes < minRegionBytes(params))
        cnvm_fatal("workload region (%llu B) too small for the undo log",
                   static_cast<unsigned long long>(params.regionBytes));
    staticCursor = roundUp(params.regionBase + logLayout.sizeBytes(),
                           lineBytes);
}

RegionPart
Workload::classifyAddr(Addr addr) const
{
    if (!inRegion(addr))
        return RegionPart::Outside;
    if (addr < logLayout.descBase())
        return RegionPart::LogHeader;
    if (addr < logLayout.backupBase())
        return RegionPart::LogDesc;
    if (addr < logLayout.backupAddr(logLayout.maxLines))
        return RegionPart::LogBackup;
    return RegionPart::Structure;
}

void
Workload::initWrite(Addr addr, const void *data, unsigned size)
{
    cnvm_assert(writer != nullptr);
    shadow.write(addr, data, size);
    writer(addr, data, size);
}

void
Workload::initWriteU64(Addr addr, std::uint64_t v)
{
    initWrite(addr, &v, sizeof(v));
}

Addr
Workload::allocStatic(std::uint64_t bytes, std::uint64_t align)
{
    Addr addr = roundUp(staticCursor, align);
    if (addr + bytes > regionEnd())
        cnvm_fatal("workload '%s': region exhausted during setup "
                   "(need %llu more bytes)", name(),
                   static_cast<unsigned long long>(
                       addr + bytes - regionEnd()));
    staticCursor = addr + bytes;
    return addr;
}

void
Workload::setup(InitWriter init_writer)
{
    writer = std::move(init_writer);

    // Initialize the undo log header: present but holding no live
    // backup, as after a clean shutdown.
    struct
    {
        std::uint64_t magic, valid, txn_id, count, checksum;
    } header{LogLayout::kMagic, LogLayout::kInvalid, 0, 0, 0};
    initWrite(logLayout.headerAddr(), &header, sizeof(header));

    doSetup();

    if (params.recordDigests)
        digestLog.push_back(digest(shadow));
}

bool
Workload::next(std::vector<Op> &out)
{
    if (issued >= params.txnTarget)
        return false;

    UndoTx tx(shadow, logLayout);
    tx.begin(issued + 1);
    if (params.computePerTxn > 0)
        tx.compute(params.computePerTxn);
    buildTxn(tx);
    linesLogged += tx.touchedLines();
    tx.commit(out);

    ++issued;
    if (params.recordDigests)
        digestLog.push_back(digest(shadow));
    return true;
}

} // namespace cnvm
