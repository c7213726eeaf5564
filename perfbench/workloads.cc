/**
 * @file
 * The benchmark's three workloads. Each is a closed loop with one
 * client: the next operation starts only when the previous one has
 * been checked. One call of a workload's pass function runs its whole
 * matrix once; main() repeats passes until the run's time is up.
 *
 * Operations and the checks that make them count as failed:
 *  - paper_1c / contended_16c: one System run. Every core must commit
 *    its full target, and a clean shutdown (crashChannels, then
 *    recoveredConsistently) must recover consistently.
 *  - crash_sweep: one crash point. No point may classify silent or
 *    silent-replay, and a seed-chosen sample re-run in Replay mode
 *    must fingerprint exactly as its fork did.
 * Every operation's simulated outcome is digested and must be
 * identical on every pass of the invocation, traced or not.
 */

#include <algorithm>
#include <memory>
#include <sstream>

#include "common/random.hh"
#include "core/crash_sweep.hh"
#include "core/system.hh"
#include "nvm/fault_model.hh"
#include "perfbench.hh"
#include "runner/runner.hh"

namespace perfbench
{

using namespace cnvm;

namespace
{

/** Simulated ns per committed transaction and NVM bytes written per
 *  committed transaction of one finished run. */
void
recordSimulated(RunRecord &rec, System &sys, std::uint64_t txns)
{
    if (!rec.passes.empty() || txns == 0)
        return;
    rec.simNsPerTxn.push_back(sys.runtimeNs() / static_cast<double>(txns));
    rec.nvmBytesPerTxn.push_back(static_cast<double>(sys.nvmBytesWritten())
                                 / static_cast<double>(txns));
}

std::uint64_t
committedTxns(System &sys)
{
    std::uint64_t n = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        n += sys.workload(c).txnsIssued();
    return n;
}

/** One design point of a run matrix. */
struct Cell
{
    std::string key;
    SystemConfig cfg;
};

/**
 * One pass over a matrix of plain System runs (paper_1c and
 * contended_16c): set up, run to the target, digest, shut down
 * cleanly and verify recovery.
 */
PassRecord
runMatrix(const std::vector<Cell> &cells, Tracer &tr, RunRecord &rec,
          bool traced, std::map<std::string, double> *runtime_ns)
{
    PassRecord pass;
    pass.traced = traced;
    pass.begin();
    for (const Cell &cell : cells) {
        pass.calibrate();
        std::uint64_t op = tr.newId();
        Span whole(tr, "run", op);

        Span setup(tr, "setup", op, whole.id());
        auto sys = std::make_unique<System>(cell.cfg);
        pass.setupS.push_back(setup.stop());
        pass.calibrateIfDue();

        Span sim(tr, "simulate", op, whole.id());
        RunResult r = sys->run();
        pass.simS.push_back(sim.stop());
        pass.calibrateIfDue();

        std::uint64_t txns = committedTxns(*sys);
        pass.simTxns += static_cast<double>(txns);
        bool full = !r.crashed;
        for (unsigned c = 0; c < sys->numCores(); ++c)
            full = full
                && sys->workload(c).txnsIssued() == cell.cfg.wl.txnTarget;
        rec.checkDigest(cell.key, systemDigest(*sys));
        recordSimulated(rec, *sys, txns);
        if (runtime_ns != nullptr)
            (*runtime_ns)[cell.key] = sys->runtimeNs();
        if (traced && !rec.layersDone)
            rec.layers.add(*sys);

        Span check(tr, "classify", op, whole.id());
        sys->crashChannels();
        std::string why;
        bool consistent = sys->recoveredConsistently(&why);
        pass.classifyMs.push_back(check.stop() * 1e3);

        rec.op(full && consistent,
               cell.key + (full ? "" : ": target not committed")
                   + (consistent ? "" : ": clean shutdown " + why));
        pass.points += 1;
    }
    pass.calibrate();
    pass.finish();
    pass.pointsS = pass.wallS;
    return pass;
}

// ----------------------------------------------------------------------
// paper_1c
// ----------------------------------------------------------------------

struct PaperDesign
{
    const char *name;
    DesignPoint design;
    bool tree;
};

const PaperDesign paperDesigns[] = {
    {"NoEncryption", DesignPoint::NoEncryption, false},
    {"FCA", DesignPoint::FCA, false},
    {"SCA", DesignPoint::SCA, false},
    {"SCA+tree", DesignPoint::SCA, true},
};

/** Figure 12's configuration: 6 MB region, 1 MB warmed counter cache
 *  (the SystemConfig defaults), one core. 600 transactions where the
 *  repository's Figure 12 harness runs 300: twice the simulation per
 *  set-up steadies the host-time metrics. */
SystemConfig
paperConfig(const Options &o, WorkloadKind w, const PaperDesign &d)
{
    SystemConfig cfg;
    cfg.design = d.design;
    cfg.workload = w;
    cfg.numCores = 1;
    cfg.wl.regionBytes = o.small ? 512ull << 10 : 6ull << 20;
    cfg.wl.txnTarget = o.small ? 40 : 600;
    cfg.wl.batch = 1;
    cfg.wl.computePerTxn = 1000;
    cfg.wl.setupFill = 0.5;
    cfg.wl.seed = o.seed;
    cfg.memctl.integrityTree = d.tree;
    return cfg;
}

void
paperPass(const Options &o, Tracer &tr, RunRecord &rec, bool traced)
{
    std::vector<Cell> cells;
    for (WorkloadKind w : allWorkloadKinds())
        for (const PaperDesign &d : paperDesigns)
            cells.push_back({std::string(workloadKindName(w)) + "/"
                                 + d.name,
                             paperConfig(o, w, d)});

    std::map<std::string, double> ns;
    rec.passes.push_back(runMatrix(cells, tr, rec, traced, &ns));

    // Figure 12's averages: mean over the five structures of each
    // normalized runtime.
    double sca = 0, fca = 0;
    for (WorkloadKind w : allWorkloadKinds()) {
        std::string k = workloadKindName(w);
        sca += ns[k + "/SCA"] / ns[k + "/NoEncryption"];
        fca += ns[k + "/FCA"] / ns[k + "/SCA"];
    }
    double n = static_cast<double>(allWorkloadKinds().size());
    rec.paper["sca_over_noenc"] = sca / n;
    rec.paper["fca_over_sca"] = fca / n;
}

// ----------------------------------------------------------------------
// contended_16c
// ----------------------------------------------------------------------

/** 16 cores on the paper's 6 MB region each: 96 MB over the 1 MB
 *  counter cache. */
SystemConfig
contendedConfig(const Options &o, DesignPoint d)
{
    SystemConfig cfg;
    cfg.design = d;
    cfg.workload = WorkloadKind::HashTable;
    cfg.numCores = 16;
    cfg.numChannels = 8;
    cfg.wl.regionBytes = o.small ? 256ull << 10 : 6ull << 20;
    cfg.wl.txnTarget = o.small ? 10 : 960;
    cfg.wl.batch = 1;
    cfg.wl.computePerTxn = 0; // memory-bound: contention is the point
    cfg.wl.setupFill = 0.5;
    cfg.wl.seed = o.seed;
    return cfg;
}

void
contendedPass(const Options &o, Tracer &tr, RunRecord &rec, bool traced)
{
    std::vector<Cell> cells = {
        {"Hash/SCA", contendedConfig(o, DesignPoint::SCA)},
        {"Hash/FCA", contendedConfig(o, DesignPoint::FCA)},
    };
    rec.passes.push_back(runMatrix(cells, tr, rec, traced, nullptr));
}

// ----------------------------------------------------------------------
// crash_sweep
// ----------------------------------------------------------------------

/** Small region and counter cache so counter evictions are reachable
 *  crash states; MACs and the integrity tree armed. */
SystemConfig
armedConfig(const Options &o, DesignPoint d)
{
    SystemConfig cfg;
    cfg.design = d;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.numCores = 1;
    cfg.wl.regionBytes = 256u << 10;
    cfg.wl.txnTarget = o.small ? 20 : 320;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.wl.seed = o.seed;
    cfg.memctl.counterCacheBytes = 16u << 10;
    cfg.memctl.integrityTree = true;
    return cfg;
}

WorkPool &
sweepPool()
{
    // One trunk thread (the caller) plus the pool's workers stay
    // within the host's hardware threads.
    static WorkPool pool(hostJobs());
    return pool;
}

std::string
pointFingerprint(const SweepPoint &p)
{
    SweepResult one;
    one.points.push_back(p);
    return one.fingerprint();
}

void
sweepPass(const Options &o, Tracer &tr, RunRecord &rec, bool traced)
{
    const unsigned points = o.small ? 24 : 160;
    const unsigned replay_checks = o.small ? 1 : 2;
    WorkPool &pool = sweepPool();

    PassRecord pass;
    pass.traced = traced;
    pass.begin();
    for (DesignPoint d : {DesignPoint::SCA, DesignPoint::FCA}) {
        pass.calibrate();
        SystemConfig cfg = armedConfig(o, d);
        std::string dname = designName(d);
        std::uint64_t sweep_op = tr.newId();
        Span sweep(tr, "sweep", sweep_op);

        Span probe_span(tr, "probe", sweep_op, sweep.id());
        SweepProbe probe = probeRun(cfg);
        double probe_s = probe_span.stop();

        Span plan_span(tr, "plan", sweep_op, sweep.id());
        std::vector<CrashSpec> plan = planSweep(probe, points);
        FaultSpec dose = FaultSpec::allKindsWithReplays(o.seed);
        for (std::size_t i = 0; i < plan.size(); ++i)
            plan[i].faults = dose.forPoint(i);
        plan_span.stop();

        Span setup(tr, "setup", sweep_op, sweep.id());
        System trunk(cfg);
        double setup_s = setup.stop();
        pass.setupS.push_back(setup_s);

        // Per point: delivery, start and end on the worker.
        struct PointTimes
        {
            std::int64_t delivered = 0, started = 0, done = 0;
            std::size_t lines = 0;
        };
        SweepResult result;
        result.points.resize(plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i)
            result.points[i].spec = plan[i];
        std::vector<PointTimes> times(plan.size());
        std::vector<std::uint64_t> point_ops(plan.size(), 0);

        double sink_s = 0; // trunk time spent handing forks over
        Span trunk_span(tr, "trunk", sweep_op, sweep.id());
        std::uint64_t trunk_id = trunk_span.id();
        RunResult r = trunk.runWithForkCapture(
            plan, [&](std::size_t i, PersistFork fork) {
                point_ops[i] = tr.newId();
                Span deliver(tr, "deliver", point_ops[i], trunk_id);
                times[i].delivered = nowNs();
                times[i].lines = fork.image.lineCount();
                auto owned =
                    std::make_shared<PersistFork>(std::move(fork));
                std::uint64_t pop = point_ops[i];
                std::uint64_t cause = deliver.id();
                pool.submit([&, i, owned, pop, cause]() {
                    Span cls(tr, "classifyFork", pop, cause);
                    times[i].started = nowNs();
                    result.points[i] =
                        classifyFork(trunk, plan[i], *owned);
                    times[i].done = nowNs();
                });
                sink_s += deliver.stop();
            });
        double trunk_s = trunk_span.stop();

        Span drain(tr, "drain", sweep_op, sweep.id());
        pool.waitSubmitted();
        drain.stop();
        double sweep_s = sweep.stop();

        // Simulation and fork capture only, not handing forks over.
        pass.simS.push_back(trunk_s - sink_s);
        pass.simTxns += static_cast<double>(r.txnsIssued);
        recordSimulated(rec, trunk, r.txnsIssued);
        if (traced && !rec.layersDone)
            rec.layers.add(trunk);

        std::int64_t first_submit = 0, last_done = 0;
        double busy_ns = 0, wait_ns = 0, lines = 0, reached = 0;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const PointTimes &t = times[i];
            if (!result.points[i].crashed)
                continue;
            reached += 1;
            pass.classifyMs.push_back((t.done - t.started) / 1e6);
            first_submit = first_submit == 0
                ? t.delivered : std::min(first_submit, t.delivered);
            last_done = std::max(last_done, t.done);
            busy_ns += static_cast<double>(t.done - t.started);
            wait_ns += static_cast<double>(t.started - t.delivered);
            lines += static_cast<double>(t.lines);
        }
        pass.points += reached;
        pass.pointsS += sweep_s;
        if (traced && reached > 0) {
            rec.extra["runner.queue_wait_ms"] += wait_ns / reached / 1e6;
            rec.extra["runner.busy_frac"] += busy_ns
                / (static_cast<double>(pool.jobs())
                   * static_cast<double>(last_done - first_submit));
            rec.extra["core.fork_lines"] += lines / reached;
            // The trunk runs the probe's simulation with every point
            // armed; what it spends beyond the probe's unarmed run
            // (probe = set-up + simulation), less handing forks over,
            // is fork capture.
            rec.extra["core.capture_ms"] +=
                (trunk_s - sink_s + setup_s - probe_s) * 1e3;
            rec.extra["sweeps"] += 1;
        }

        std::ostringstream digest;
        digest << result.fingerprint() << '|' << systemDigest(trunk);
        rec.checkDigest("sweep/" + dname,
                        std::hash<std::string>{}(digest.str()));

        for (std::size_t i = 0; i < plan.size(); ++i) {
            const SweepPoint &p = result.points[i];
            bool silent = p.crashed
                && (p.cls == CrashClass::SilentCorruption
                    || p.cls == CrashClass::SilentReplay);
            rec.op(!silent, dname + " " + p.spec.describe() + ": "
                                + crashClassName(p.cls));
        }

        // Seed-chosen reached points re-run as dedicated Replay-mode
        // crashes must classify exactly as their forks did.
        std::vector<std::size_t> reached_idx;
        for (std::size_t i = 0; i < plan.size(); ++i)
            if (result.points[i].crashed)
                reached_idx.push_back(i);
        Random pick(o.seed * 0x9e3779b97f4a7c15ull + points);
        for (unsigned k = 0; k < replay_checks && !reached_idx.empty();
             ++k) {
            std::size_t i = reached_idx[pick.below(reached_idx.size())];
            std::uint64_t op = tr.newId();
            Span replay(tr, "runSweepPoint", op);
            SweepPoint again = runSweepPoint(cfg, plan[i]);
            replay.stop();
            bool same =
                pointFingerprint(again) == pointFingerprint(result.points[i]);
            rec.op(same, dname + " replay of " + plan[i].describe()
                             + " differs from its fork");
        }
    }
    pass.calibrate();
    pass.finish();
    rec.passes.push_back(pass);
}

} // namespace

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"paper_1c", paperPass,
         [](const Options &o) {
             return paperConfig(o, WorkloadKind::HashTable,
                                paperDesigns[2]);
         }},
        {"contended_16c", contendedPass,
         [](const Options &o) {
             return contendedConfig(o, DesignPoint::SCA);
         }},
        {"crash_sweep", sweepPass,
         [](const Options &o) { return armedConfig(o, DesignPoint::SCA); }},
    };
    return defs;
}

} // namespace perfbench
