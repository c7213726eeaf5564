/**
 * @file
 * The crash sweep's replay reference model, for tests.
 *
 * runSweep() classifies forks that one trunk run captures. The model
 * it is held to runs every planned point as its own crashed
 * simulation instead: the same probe and plan, one fresh System per
 * point (runSweepPoint). Recovery reads only persisted state (paper
 * section 2.2.2), so the two must fingerprint byte-identically.
 */

#ifndef CNVM_TESTS_REPLAY_REFERENCE_HH
#define CNVM_TESTS_REPLAY_REFERENCE_HH

#include "core/crash_sweep.hh"

namespace cnvm
{

/** Probe + plan + one dedicated crashed simulation per point, in plan
 *  order. Ignores @p opt's concurrency knobs: the reference is serial. */
inline SweepResult
replaySweep(const SystemConfig &cfg, const SweepOptions &opt)
{
    SweepResult result;
    result.probe = probeRun(cfg);
    for (const CrashSpec &spec : planSweep(result.probe, opt.points,
                                           opt.semanticTriggers,
                                           opt.faults))
        result.points.push_back(runSweepPoint(cfg, spec));
    return result;
}

} // namespace cnvm

#endif // CNVM_TESTS_REPLAY_REFERENCE_HH
