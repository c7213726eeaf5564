/**
 * @file
 * Deterministic crash-point sweep.
 *
 * One sweep answers "does this design recover from a power failure at
 * *any* controller state?" for one configuration:
 *
 *  1. Probe: run the configuration once to completion, counting every
 *     semantic controller event and noting the end tick.
 *
 *  2. Plan: distribute K crash points round-robin over the reachable
 *     trigger kinds — absolute ticks spread across the probed runtime,
 *     plus every semantic kind the probe observed at least once, with
 *     ordinals spread across its observed total. Semantic points pin
 *     the crash to states (mid-pipeline, mid-pairing, mid-eviction)
 *     that tick-fraction sampling hits only by luck.
 *
 *  3. Execute: ONE trunk System runs with every planned spec armed
 *     at once; each firing captures a PersistFork (persisted image
 *     with the ADR drain overlaid, controller snapshot, frozen digest
 *     logs) and the trunk keeps going. Forks are classified off-trunk
 *     by classifyFork(), pipelined over a WorkPool while the trunk is
 *     still producing, and merged in plan order. K points cost one
 *     simulation plus K recoveries instead of K simulations. Because
 *     recovery depends only on persisted state (paper section 2.2.2)
 *     and capture is side-effect free, every point classifies exactly
 *     as a dedicated crashed run of its spec (runSweepPoint) would;
 *     the tests hold the sweep to that replay reference.
 *
 * Everything is derived from the configuration and the probe, so a
 * sweep is exactly reproducible for a fixed seed — fingerprint()
 * collapses the outcome into one comparable string.
 */

#ifndef CNVM_CORE_CRASH_SWEEP_HH
#define CNVM_CORE_CRASH_SWEEP_HH

#include <array>
#include <string>
#include <vector>

#include "core/crash_injector.hh"
#include "core/crash_oracle.hh"
#include "core/system.hh"

namespace cnvm
{

/** What the probe run observed. */
struct SweepProbe
{
    Tick endTick = 0;
    std::uint64_t txnsIssued = 0;

    /** Occurrences of each CtlEvent over the whole run. */
    std::array<std::uint64_t, numCtlEvents> eventCounts{};

    std::uint64_t
    countOf(CtlEvent ev) const
    {
        return eventCounts[static_cast<unsigned>(ev)];
    }
};

/** Outcome of one crash point. */
struct SweepPoint
{
    CrashSpec spec;

    /** False when the workloads finished before the trigger fired. */
    bool crashed = false;

    CrashSnapshot snapshot;

    /** Worst classification over all per-core regions. */
    CrashClass cls = CrashClass::Consistent;

    /** First inconsistent region's failure detail (empty if none). */
    std::string detail;

    std::uint64_t mismatchedLines = 0;
    std::uint64_t committedTxns = 0;

    /** Corruption accounting over all regions (fault sweeps). */
    std::uint64_t faultedLines = 0;
    std::uint64_t detectedCorruptions = 0;
    std::uint64_t repairedLines = 0;
    std::uint64_t unrecoverableLines = 0;

    /** Replay accounting over all regions (replay-dosed sweeps):
     *  ground-truth replayed lines vs. replays recovery caught. */
    std::uint64_t replayedLines = 0;
    std::uint64_t replaysDetected = 0;
};

/** How to run a sweep (step 2 shape and step 3 execution). */
struct SweepOptions
{
    unsigned points = 20;

    /** False restricts the plan to absolute ticks (legacy sampling). */
    bool semanticTriggers = true;

    /**
     * Concurrency of the Execute phase's fork classification. 1
     * classifies each fork inline on the trunk's thread; 0 asks for
     * WorkPool::hardwareJobs(). Results are merged in plan order, so
     * fingerprints are identical at any value.
     */
    unsigned jobs = 1;

    /**
     * Concurrency of each point's recovery (the integrity pre-scan
     * shards over a pool of this size). 1 is the serial reference;
     * recovery output is byte-identical at any value. Orthogonal to
     * `jobs`: that fans out *points*, this fans out the work *inside*
     * one point's recovery.
     */
    unsigned recoveryJobs = 1;

    /**
     * Base fault dose. When any() is set, every planned point gets
     * this dose with a per-point seed derived from faults.seed and
     * the plan index (see planSweep) — deterministic at any job
     * count. Default: clean crashes.
     */
    FaultSpec faults;
};

/** Aggregate sweep outcome. */
struct SweepResult
{
    SweepProbe probe;
    std::vector<SweepPoint> points;

    unsigned
    countOf(CrashClass cls) const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed && p.cls == cls;
        return n;
    }

    /** Crash points whose recovery failed, any class. */
    unsigned
    inconsistentPoints() const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed && p.cls != CrashClass::Consistent;
        return n;
    }

    /** Failed points attributable to counter/data divergence. */
    unsigned
    mismatchPoints() const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed && isCounterDataMismatch(p.cls);
        return n;
    }

    /** Points whose trigger never fired (run completed first). */
    unsigned
    unreachedPoints() const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += !p.crashed;
        return n;
    }

    /** Points where injected corruption went entirely unnoticed.
     *  Deliberately excludes SilentReplay, which has its own counter —
     *  callers gating MAC-only fault sweeps keep meaning what they
     *  always meant. */
    unsigned silentPoints() const
    { return countOf(CrashClass::SilentCorruption); }

    /** Points where a replayed line was consumed unnoticed. */
    unsigned silentReplayPoints() const
    { return countOf(CrashClass::SilentReplay); }

    /** Points where recovery caught a replay (integrity tree). */
    unsigned replayDetectedPoints() const
    { return countOf(CrashClass::ReplayDetected); }

    /** Points where recovery saw corruption (integrity metadata). */
    unsigned
    detectedPoints() const
    {
        unsigned n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed && p.detectedCorruptions > 0;
        return n;
    }

    /** Sum of a per-point corruption counter over reached points. */
    std::uint64_t
    totalOf(std::uint64_t SweepPoint::*field) const
    {
        std::uint64_t n = 0;
        for (const SweepPoint &p : points)
            n += p.crashed ? p.*field : 0;
        return n;
    }

    /** Deterministic one-line digest of every point's spec and class. */
    std::string fingerprint() const;
};

/** Probes one configuration (step 1). */
SweepProbe probeRun(const SystemConfig &cfg);

/**
 * Plans @p points crash specs from a probe (step 2). Set
 * @p semantic_triggers false to restrict the plan to absolute ticks
 * (the legacy tick-fraction sampling, for comparison). When
 * @p faults is set, spec i carries faults.forPoint(i): the same dose
 * on every point, with a per-point seed derived from (base seed, plan
 * index), so a dosed sweep stays a pure function of the configuration
 * and the base seed.
 */
std::vector<CrashSpec> planSweep(const SweepProbe &probe, unsigned points,
                                 bool semantic_triggers = true,
                                 const FaultSpec &faults = {});

/**
 * Runs one crash point as a dedicated crashed simulation of a fresh
 * System, then recovers and classifies it. The sweep's Execute phase
 * classifies forks instead; this is the one-point primitive that
 * classifyFork() must agree with.
 */
SweepPoint runSweepPoint(const SystemConfig &cfg, const CrashSpec &spec);

/**
 * Classifies one captured crash point off-trunk (step 3):
 * recovery + oracle census over the fork's persisted image and frozen
 * digest logs. Reads only immutable configuration from @p trunk (the
 * controller's design/layout/engine and each workload's region
 * layout), so it is safe to call from a worker thread while the trunk
 * is still simulating. Produces the same SweepPoint runSweepPoint() of
 * @p spec would. @p recovery_jobs shards each recovery's integrity
 * pre-scan (RecoveryOptions::jobs).
 */
SweepPoint classifyFork(const System &trunk, const CrashSpec &spec,
                        const PersistFork &fork,
                        unsigned recovery_jobs = 1);

/**
 * Probe + plan + execute: the forks are classified on a pool of
 * SweepOptions::jobs workers.
 */
SweepResult runSweep(const SystemConfig &cfg, const SweepOptions &opt);

/** Convenience overload with serial execution (jobs == 1). */
SweepResult runSweep(const SystemConfig &cfg, unsigned points,
                     bool semantic_triggers = true);

} // namespace cnvm

#endif // CNVM_CORE_CRASH_SWEEP_HH
