#include "nvm/persist_image.hh"

#include <utility>

#include "common/logging.hh"

namespace cnvm
{

namespace
{

/** Table key of a line-aligned address. */
std::uint64_t
lineKey(Addr line_addr)
{
    return line_addr / lineBytes;
}

/** Ascending addresses of every record in @p table. */
template <typename T>
std::vector<Addr>
addrsOf(const LineTable<T> &table)
{
    std::vector<Addr> addrs;
    addrs.reserve(table.size());
    table.forEach([&addrs](std::uint64_t key, const T &) {
        addrs.push_back(key * lineBytes);
    });
    return addrs;
}

} // anonymous namespace

void
PersistImage::drainData(Addr line_addr, const LineData &ciphertext,
                        std::uint64_t cipher_counter)
{
    cnvm_assert(isLineAligned(line_addr));
    // Record the superseded triple before overwriting: a persistence-
    // based replay attack needs a *complete* stale (cipher, counter,
    // MAC) snapshot, and this is the only moment it exists. The MAC
    // drained with the old burst is still in the record here —
    // drainMac() for the new burst only lands after drainData().
    auto [line, inserted] = dataLines.tryEmplace(lineKey(line_addr));
    if (!inserted && line.counter != cipher_counter)
        staleTriples[lineKey(line_addr)] = line;
    line.cipher = ciphertext;
    line.counter = cipher_counter;
}

void
PersistImage::drainCounters(Addr ctr_line_addr, const CounterLine &values)
{
    cnvm_assert(isLineAligned(ctr_line_addr));
    counterStore[lineKey(ctr_line_addr)] = values;
}

const LineData *
PersistImage::persistedLine(Addr line_addr) const
{
    const LineRecord *line = dataLines.find(lineKey(line_addr));
    return line == nullptr ? nullptr : &line->cipher;
}

CounterLine
PersistImage::persistedCounters(Addr ctr_line_addr) const
{
    const CounterLine *values = counterStore.find(lineKey(ctr_line_addr));
    return values == nullptr ? CounterLine{} : *values;
}

std::uint64_t
PersistImage::persistedCipherCounter(Addr line_addr) const
{
    const LineRecord *line = dataLines.find(lineKey(line_addr));
    return line == nullptr ? 0 : line->counter;
}

void
PersistImage::drainMac(Addr line_addr, std::uint64_t mac)
{
    cnvm_assert(isLineAligned(line_addr));
    // The MAC rides the line's own write burst, so the line is
    // already in the image.
    LineRecord *line = dataLines.find(lineKey(line_addr));
    cnvm_assert(line != nullptr);
    line->mac = mac;
    line->hasMac = true;
}

const std::uint64_t *
PersistImage::persistedMac(Addr line_addr) const
{
    const LineRecord *line = dataLines.find(lineKey(line_addr));
    return line == nullptr || !line->hasMac ? nullptr : &line->mac;
}

void
PersistImage::drainTreeNode(unsigned level, std::uint64_t index,
                            std::uint64_t hash)
{
    cnvm_assert(index < (std::uint64_t(1) << 32));
    // Rewriting a node with the hash it already holds changes nothing;
    // skipping it keeps a snapshot's tree pages shared with their
    // source (a crash flush rewrites every node, and most are
    // unchanged).
    const std::uint64_t key = treeKey(level, index);
    const std::uint64_t *stored = std::as_const(treeStore).find(key);
    if (stored == nullptr || *stored != hash)
        treeStore[key] = hash;
}

void
PersistImage::drainTreeRoot(std::uint64_t hash)
{
    treeRoot = hash;
    treeRootPresent = true;
}

const std::uint64_t *
PersistImage::persistedTreeNode(unsigned level, std::uint64_t index) const
{
    return treeStore.find(treeKey(level, index));
}

const std::uint64_t *
PersistImage::persistedTreeRoot() const
{
    return treeRootPresent ? &treeRoot : nullptr;
}

std::vector<std::uint64_t>
PersistImage::persistedTreeLeafIndices() const
{
    std::vector<std::uint64_t> indices;
    treeStore.forEachInRange(
        treeKey(1, 0), treeKey(1, 0xffffffffull),
        [&indices](std::uint64_t key, std::uint64_t) {
            indices.push_back(key & 0xffffffffull);
        });
    return indices;
}

void
PersistImage::corruptDataLine(Addr line_addr, const LineData &corrupted)
{
    LineRecord *line = dataLines.find(lineKey(line_addr));
    cnvm_assert(line != nullptr);
    line->cipher = corrupted;
    faulted.insert(line_addr);
}

void
PersistImage::corruptCounterSlot(Addr ctr_line_addr, unsigned slot,
                                 std::uint64_t value, Addr data_line_addr)
{
    cnvm_assert(slot < countersPerLine);
    counterStore[lineKey(ctr_line_addr)][slot] = value;
    faulted.insert(data_line_addr);
}

bool
PersistImage::lineFaulted(Addr line_addr) const
{
    return faulted.count(line_addr) > 0;
}

bool
PersistImage::lineReplayed(Addr line_addr) const
{
    return replayed.count(line_addr) > 0;
}

bool
PersistImage::replayLine(Addr line_addr, Addr ctr_line_addr,
                         unsigned slot)
{
    cnvm_assert(slot < countersPerLine);
    const LineRecord *stale =
        std::as_const(staleTriples).find(lineKey(line_addr));
    if (stale == nullptr)
        return false;
    // A "replay" to the value already stored would change nothing —
    // undetectable because there is nothing to detect. Skip it so the
    // replayed ground truth only marks lines that really rolled back.
    if (stale->counter == persistedCounters(ctr_line_addr)[slot])
        return false;
    dataLines[lineKey(line_addr)] = *stale;
    counterStore[lineKey(ctr_line_addr)][slot] = stale->counter;
    replayed.insert(line_addr);
    return true;
}

std::vector<Addr>
PersistImage::replayableLineAddrs() const
{
    return addrsOf(staleTriples);
}

std::vector<Addr>
PersistImage::dataLineAddrs() const
{
    return addrsOf(dataLines);
}

std::vector<Addr>
PersistImage::counterLineAddrs() const
{
    return addrsOf(counterStore);
}

} // namespace cnvm
