/**
 * @file
 * Shared pieces of the cnvm benchmark: run options, span
 * tracing, per-layer counters read from a System's stat registry, and
 * the per-run record every workload fills in.
 *
 * The benchmark drives the library only through its public entry
 * points (System construction and runs, the sweep probe/plan/fork
 * calls, WorkPool, StatRegistry). Spans are recorded
 * here, around those calls, never inside the library.
 */

#ifndef CNVM_PERFBENCH_PERFBENCH_HH
#define CNVM_PERFBENCH_PERFBENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"

namespace cnvm
{
class System;
}

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host nanoseconds since the first call in this process. */
std::int64_t nowNs();

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /** Shrinks every workload's configuration (the self-test). */
    bool small = false;
};

/** One finished span. Spans of one operation share `op`. */
struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t op = 0;
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t thread = 0;
};

/**
 * In-memory span store. Disabled, it hands out ids and records
 * nothing, so untraced runs pay only the clock reads their end-to-end
 * timings need anyway. Thread-safe: classification spans finish on
 * WorkPool workers.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled = on; }
    bool isEnabled() const { return enabled; }

    std::uint64_t newId() { return nextId.fetch_add(1) + 1; }

    void record(const SpanRecord &span);

    /** Sum over spans named @p name of duration minus the time their
     *  same-thread child spans cover, in ms. */
    double selfMs(const std::string &name) const;

    /** Number of spans named @p name. */
    double count(const std::string &name) const;

  private:
    bool enabled = false;
    std::atomic<std::uint64_t> nextId{0};
    std::mutex mtx;
    std::vector<SpanRecord> store;
};

/**
 * A timed interval that always measures (end-to-end metrics need the
 * time) and becomes a span only when the tracer is enabled.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, std::uint64_t op,
         std::uint64_t parent = 0);
    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Ends the span (idempotent); returns its duration in seconds. */
    double stop();

    std::uint64_t id() const { return rec.id; }

  private:
    Tracer &tracer;
    SpanRecord rec;
    bool open = true;
};

/** Hardware threads this process may run on (what `nproc` prints). */
unsigned hostJobs();

/** Identifier of the calling thread, stable for the process. */
std::uint32_t threadIndex();

/** Fence-stall ticks against core ticks, summed over Systems. */
struct FenceStall
{
    double stallTicks = 0;
    double coreTicks = 0;
};

/**
 * Per-layer counters summed over Systems, read from each System's
 * StatRegistry and event queue after its run.
 */
struct LayerCounts
{
    double events = 0;
    double txns = 0;
    double linesLogged = 0;

    /** Fence stalls per design name, "+tree" appended when the
     *  integrity tree is armed. */
    std::map<std::string, FenceStall> fence;

    /** Stall fraction of @p design: its tree-less Systems when the
     *  workload has any, else its tree-armed ones. */
    double fenceStallFrac(const std::string &design) const;

    double loadCount = 0, loadTickSum = 0;
    double l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    double ccReadHits = 0, ccReadMisses = 0;
    double pairBlocks = 0, writeRejects = 0;
    double inserts = 0, coalesces = 0;
    double nvmWriteBytes = 0, nvmReadBytes = 0;
    double treeLeafUpdates = 0, treeNodeWrites = 0, treeFlushes = 0;

    /** Adds @p sys after its run. */
    void add(cnvm::System &sys);
};

/**
 * Host-speed calibration. The host's speed drifts by 10-25% over
 * seconds when other machines' work shares its caches and memory
 * bandwidth, which swamps the differences the benchmark exists to
 * show. Passes therefore sample a fixed kernel owned by the benchmark
 * (random read-modify-writes over a 32 MB table: it slows down under
 * the same shared-cache and memory pressure the simulator does)
 * between operations. Host times are reported scaled to a host on
 * which the kernel takes calibrationRefMs: raw * calibrationRefMs /
 * median of the samples taken within calibrationWindowS of the pass.
 */
constexpr double calibrationRefMs = 4.7;
constexpr double calibrationWindowS = 1.5;

/** Longest a pass goes between calibration samples where it can take
 *  one (between phases of an operation). */
constexpr double calibrationGapS = 0.25;

/** Size of the calibration kernel's table, resident once sampled. */
constexpr std::size_t calibrationTableBytes = std::size_t(32) << 20;

/** Runs the calibration kernel once; returns its host ms. */
double calibrationMs();

/** Host time and work of one pass over a workload's matrix. */
struct PassRecord
{
    bool traced = false;

    /** Host seconds of the pass, calibration samples excluded. */
    double wallS = 0;

    /** Host seconds of System construction, one entry per operation
     *  that builds Systems, in the pass's fixed operation order. */
    std::vector<double> setupS;

    /** Host seconds inside simulation calls, per operation as above,
     *  and the transactions they committed in the whole pass. */
    std::vector<double> simS;
    double simTxns = 0;

    /** Crash images classified, and the host seconds the workload
     *  counts them over (the pass, or its sweeps). */
    double points = 0;
    double pointsS = 0;

    /** Per-point host ms of classification, start to verdict. */
    std::vector<double> classifyMs;

    /** Host ns at the pass's start and end (nowNs()). */
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    /** Calibration samples taken during the pass: (nowNs(), ms). */
    std::vector<std::pair<std::int64_t, double>> cal;

    /** Host ns the pass spent taking calibration samples. */
    std::int64_t samplingNs = 0;

    /** Peak resident set during the pass, MB. */
    double peakRssMb = 0;

    /** Starts the pass and its resident-set peak. */
    void begin();

    /** Takes one calibration sample. */
    void calibrate();

    /** Takes one when calibrationGapS has passed since the last. */
    void calibrateIfDue();

    /** Ends the pass: its wall time, calibration samples excluded, and
     *  its resident-set peak. */
    void finish();
};

/** Everything one invocation measured. */
struct RunRecord
{
    std::vector<PassRecord> passes;

    /** Simulated per-run figures of the first pass (deterministic). */
    std::vector<double> simNsPerTxn;
    std::vector<double> nvmBytesPerTxn;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Determinism gate: op key -> digest of everything simulated. */
    std::map<std::string, std::size_t> digests;

    /** Layer counters of the first traced pass. */
    LayerCounts layers;
    bool layersDone = false;

    /** Extra per-layer values a workload measures itself. */
    std::map<std::string, double> extra;

    /** Paper comparison figures (paper_1c). */
    std::map<std::string, double> paper;

    /** Counts one operation; @p ok false records a failure. */
    void op(bool ok, const std::string &what);

    /** Checks @p digest against the first one seen for @p key. */
    void checkDigest(const std::string &key, std::size_t digest);
};

/** Digest of a System's full stat dump plus its headline results. */
std::size_t systemDigest(cnvm::System &sys);

/** What every workload provides. */
struct WorkloadDef
{
    const char *name;

    /** Runs one pass; appends its PassRecord to the run record. */
    std::function<void(const Options &, Tracer &, RunRecord &, bool)> pass;

    /** The configuration the traced run sizes its layer kernels on. */
    std::function<cnvm::SystemConfig(const Options &)> kernelConfig;
};

const std::vector<WorkloadDef> &workloads();

/** Layer kernels timed by the traced run, ns per call. */
struct KernelTimes
{
    double padNs = 0;
    double macNs = 0;
    double cacheAccessNs = 0;
    double ctrCacheAccessNs = 0;
    double eventNs = 0;
};

KernelTimes timeKernels(const cnvm::SystemConfig &cfg, std::uint64_t seed,
                        bool small);

} // namespace perfbench

#endif // CNVM_PERFBENCH_PERFBENCH_HH
