/**
 * @file
 * Span store, per-layer counter extraction and the determinism gate.
 */

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "core/system.hh"
#include "perfbench.hh"
#include "stats/stats.hh"

namespace perfbench
{

using namespace cnvm;

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

unsigned
hostJobs()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t self = next.fetch_add(1);
    return self;
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

void
Tracer::record(const SpanRecord &span)
{
    std::lock_guard<std::mutex> lock(mtx);
    store.push_back(span);
}

double
Tracer::selfMs(const std::string &name) const
{
    // Child time per parent span, counting only same-thread children
    // (those nest inside their parent's interval).
    std::unordered_map<std::uint64_t, std::uint32_t> thread_of;
    for (const SpanRecord &s : store)
        thread_of[s.id] = s.thread;
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const SpanRecord &s : store) {
        auto it = thread_of.find(s.parent);
        if (it != thread_of.end() && it->second == s.thread)
            child_ns[s.parent] += s.endNs - s.startNs;
    }
    double total = 0;
    for (const SpanRecord &s : store) {
        if (name != s.name)
            continue;
        total += static_cast<double>(s.endNs - s.startNs - child_ns[s.id]);
    }
    return total / 1e6;
}

double
Tracer::count(const std::string &name) const
{
    double n = 0;
    for (const SpanRecord &s : store)
        n += name == s.name;
    return n;
}

Span::Span(Tracer &tracer, const char *name, std::uint64_t op,
           std::uint64_t parent)
    : tracer(tracer)
{
    rec.id = tracer.newId();
    rec.parent = parent;
    rec.op = op;
    rec.name = name;
    rec.startNs = nowNs();
}

double
Span::stop()
{
    if (open) {
        rec.endNs = nowNs();
        open = false;
        if (tracer.isEnabled()) {
            rec.thread = threadIndex();
            tracer.record(rec);
        }
    }
    return static_cast<double>(rec.endNs - rec.startNs) / 1e9;
}

// ----------------------------------------------------------------------
// Layer counters
// ----------------------------------------------------------------------

namespace
{

double
statOr0(const stats::StatRegistry &reg, const std::string &name)
{
    const stats::Stat *s = reg.find(name);
    return s != nullptr ? s->value() : 0.0;
}

} // namespace

void
LayerCounts::add(System &sys)
{
    const stats::StatRegistry &reg = sys.statsRegistry();
    double txns_here = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        txns_here += static_cast<double>(sys.workload(c).txnsIssued());
        linesLogged +=
            static_cast<double>(sys.workload(c).totalLinesLogged());
        std::string core = "core" + std::to_string(c) + ".";
        FenceStall &f = fence[std::string(designName(sys.config().design))
                              + (sys.config().memctl.integrityTree
                                     ? "+tree" : "")];
        f.stallTicks += statOr0(reg, core + "fence_stall_ticks");
        f.coreTicks += static_cast<double>(sys.runtimeTicks());
        if (const auto *h = dynamic_cast<const stats::Histogram *>(
                reg.find(core + "mem.load_ticks"))) {
            loadCount += static_cast<double>(h->count());
            loadTickSum += h->mean() * static_cast<double>(h->count());
        }
        l1Hits += statOr0(reg, core + "mem.l1_hits");
        l1Misses += statOr0(reg, core + "mem.l1_misses");
        l2Hits += statOr0(reg, core + "mem.l2_hits");
        l2Misses += statOr0(reg, core + "mem.l2_misses");
    }
    txns += txns_here;
    events += static_cast<double>(sys.eventQueue().processedCount());
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
        std::string cc = "ctrcache.ch" + std::to_string(ch) + ".";
        std::string mc = "memctl.ch" + std::to_string(ch) + ".";
        ccReadHits += statOr0(reg, cc + "read_hits");
        ccReadMisses += statOr0(reg, cc + "read_misses");
        pairBlocks += statOr0(reg, mc + "pair_blocks");
        writeRejects += statOr0(reg, mc + "write_rejects");
        inserts += statOr0(reg, mc + "data_inserts")
            + statOr0(reg, mc + "ctr_inserts");
        coalesces += statOr0(reg, mc + "data_coalesces")
            + statOr0(reg, mc + "ctr_coalesces");
        treeLeafUpdates += statOr0(reg, mc + "tree_leaf_updates");
        treeNodeWrites += statOr0(reg, mc + "tree_node_writes");
        treeFlushes += statOr0(reg, mc + "tree_flushes");
    }
    nvmWriteBytes += static_cast<double>(sys.nvmBytesWritten());
    nvmReadBytes += static_cast<double>(sys.nvmBytesRead());
}

double
LayerCounts::fenceStallFrac(const std::string &design) const
{
    auto it = fence.find(design);
    if (it == fence.end())
        it = fence.find(design + "+tree");
    if (it == fence.end() || it->second.coreTicks == 0)
        return 0;
    return it->second.stallTicks / it->second.coreTicks;
}

// ----------------------------------------------------------------------
// Calibration
// ----------------------------------------------------------------------

double
calibrationMs()
{
    // 32 MB: past the private caches, inside a shared last-level cache
    // that other machines' work competes for. A sequential sweep first
    // pulls the whole table in as far as the host lets it stay, so a
    // sample does not depend on what the benchmark itself touched
    // before it; only the random sweep after it is timed.
    static std::vector<std::uint64_t> table(calibrationTableBytes / 8);
    for (std::size_t i = 0; i < table.size(); i += 8)
        table[i] += i;
    std::int64_t t0 = nowNs();
    std::uint64_t x = 1;
    for (int i = 0; i < 300000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        table[(x >> 20) & (table.size() - 1)] += x;
    }
    return static_cast<double>(nowNs() - t0) / 1e6;
}

void
PassRecord::calibrate()
{
    std::int64_t t0 = nowNs();
    cal.emplace_back(t0, calibrationMs());
    samplingNs += nowNs() - t0;
}

void
PassRecord::calibrateIfDue()
{
    std::int64_t last = cal.empty() ? startNs : cal.back().first;
    if (nowNs() - last >= static_cast<std::int64_t>(calibrationGapS * 1e9))
        calibrate();
}

void
PassRecord::begin()
{
    // Hand memory freed by earlier passes back to the kernel and
    // restart its resident-set high-water mark (VmHWM), so each pass
    // has its own peak. Where the kernel refuses, the peak stays the
    // process's so far.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    startNs = nowNs();
}

void
PassRecord::finish()
{
    endNs = nowNs();
    wallS = static_cast<double>(endNs - startNs - samplingNs) / 1e9;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            peakRssMb = std::stod(line.substr(6)) / 1024.0; // kB
}

// ----------------------------------------------------------------------
// Run record
// ----------------------------------------------------------------------

void
RunRecord::op(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
}

void
RunRecord::checkDigest(const std::string &key, std::size_t digest)
{
    auto [it, fresh] = digests.emplace(key, digest);
    if (!fresh && it->second != digest) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(key + ": simulated results differ between "
                                     "passes of one invocation");
    }
}

std::size_t
systemDigest(System &sys)
{
    std::ostringstream os;
    sys.statsRegistry().dump(os);
    os << '|' << sys.runtimeTicks() << '|' << sys.nvmBytesWritten() << '|'
       << sys.nvmBytesRead() << '|' << sys.eventQueue().processedCount();
    return std::hash<std::string>{}(os.str());
}

} // namespace perfbench
