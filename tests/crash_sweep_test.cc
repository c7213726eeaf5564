/**
 * @file
 * Tests for the crash-point sweep harness: the countdown trigger, the
 * injector's crash specs, the sweep planner, and a small end-to-end
 * sweep over every design point, classified by the crash oracle.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "core/crash_sweep.hh"
#include "integrity/integrity_tree.hh"
#include "replay_reference.hh"
#include "sim/trigger.hh"

namespace cnvm
{
namespace
{

// --- CountdownTrigger -----------------------------------------------------

TEST(CountdownTrigger, FiresExactlyAtNth)
{
    CountdownTrigger t;
    unsigned fired = 0;
    t.arm(3, [&]() { ++fired; });
    t.observe();
    t.observe();
    EXPECT_EQ(fired, 0u);
    EXPECT_TRUE(t.armed());
    t.observe();
    EXPECT_EQ(fired, 1u);
    EXPECT_TRUE(t.fired());
    t.observe(); // further observations are ignored
    EXPECT_EQ(fired, 1u);
}

TEST(CountdownTrigger, DisarmPreventsFiring)
{
    CountdownTrigger t;
    bool fired = false;
    t.arm(1, [&]() { fired = true; });
    t.disarm();
    t.observe();
    EXPECT_FALSE(fired);
    EXPECT_FALSE(t.fired());
}

TEST(CountdownTrigger, CallbackMayRearm)
{
    CountdownTrigger t;
    unsigned fired = 0;
    t.arm(1, [&]() {
        if (++fired < 2)
            t.arm(2, [&]() { ++fired; });
    });
    t.observe(); // fires #1, re-arms for two more
    t.observe();
    EXPECT_EQ(fired, 1u);
    t.observe();
    EXPECT_EQ(fired, 2u);
}

// --- CrashSpec ------------------------------------------------------------

TEST(CrashSpec, DescribeNamesTickAndEvent)
{
    EXPECT_EQ(CrashSpec::atTick(1234).describe(), "tick 1234");
    EXPECT_EQ(
        CrashSpec::atEvent(CrashTriggerKind::DirtyEviction, 7).describe(),
        "dirty-eviction #7");
    EXPECT_FALSE(ctlEventFor(CrashTriggerKind::AtTick).has_value());
    EXPECT_EQ(ctlEventFor(CrashTriggerKind::PairAction),
              CtlEvent::PairAction);
}

// --- planSweep ------------------------------------------------------------

SweepProbe
fakeProbe()
{
    SweepProbe probe;
    probe.endTick = 1000000;
    probe.eventCounts[static_cast<unsigned>(CtlEvent::PipelineEnter)] = 40;
    probe.eventCounts[static_cast<unsigned>(CtlEvent::DataDrain)] = 40;
    probe.eventCounts[static_cast<unsigned>(CtlEvent::CtrDrain)] = 10;
    // PairAction and DirtyEviction never observed.
    return probe;
}

TEST(PlanSweep, ProducesExactlyKPointsOverReachableKinds)
{
    auto specs = planSweep(fakeProbe(), 12);
    ASSERT_EQ(specs.size(), 12u);
    bool saw_unreachable = false;
    for (const CrashSpec &s : specs) {
        if (s.kind == CrashTriggerKind::PairAction
            || s.kind == CrashTriggerKind::DirtyEviction)
            saw_unreachable = true;
        if (s.kind == CrashTriggerKind::AtTick) {
            EXPECT_GT(s.tick, 0u);
            EXPECT_LT(s.tick, fakeProbe().endTick);
        } else {
            EXPECT_GE(s.count, 1u);
            EXPECT_LE(s.count, 40u);
        }
    }
    EXPECT_FALSE(saw_unreachable)
        << "planned a trigger the probe never observed";
}

TEST(PlanSweep, IsDeterministic)
{
    auto a = planSweep(fakeProbe(), 20);
    auto b = planSweep(fakeProbe(), 20);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].describe(), b[i].describe());
}

TEST(PlanSweep, StampsEachPointWithItsOwnFaultSeed)
{
    // planSweep owns the per-point seeding rule: spec i carries
    // dose.forPoint(i), the same plan a caller gets by stamping an
    // undosed plan itself; a clean dose leaves every spec clean.
    FaultSpec dose = FaultSpec::allKindsWithReplays(9);
    auto dosed = planSweep(fakeProbe(), 12, true, dose);
    auto clean = planSweep(fakeProbe(), 12);
    ASSERT_EQ(dosed.size(), clean.size());
    for (std::size_t i = 0; i < dosed.size(); ++i) {
        EXPECT_FALSE(clean[i].faults.any());
        CrashSpec stamped = clean[i];
        stamped.faults = dose.forPoint(i);
        EXPECT_EQ(dosed[i].describe(), stamped.describe());
        EXPECT_EQ(dosed[i].faults.seed, stamped.faults.seed);
    }
    EXPECT_NE(dosed[0].faults.seed, dosed[1].faults.seed);
}

TEST(PlanSweep, TicksOnlyModeUsesNoSemanticTriggers)
{
    auto specs = planSweep(fakeProbe(), 8, /*semantic_triggers=*/false);
    ASSERT_EQ(specs.size(), 8u);
    for (const CrashSpec &s : specs)
        EXPECT_EQ(s.kind, CrashTriggerKind::AtTick);
}

// --- end-to-end sweeps ----------------------------------------------------

SystemConfig
smallConfig(DesignPoint design)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = 25;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    // Small counter cache: dirty evictions become reachable crash
    // states for the cached designs.
    cfg.memctl.counterCacheBytes = 16 << 10;
    return cfg;
}

class DesignSweep : public ::testing::TestWithParam<DesignPoint>
{};

TEST_P(DesignSweep, SmallSweepMatchesDesignGuarantee)
{
    SweepResult result = runSweep(smallConfig(GetParam()), 7);
    ASSERT_EQ(result.points.size(), 7u);
    if (designCrashConsistent(GetParam())) {
        for (const SweepPoint &p : result.points) {
            EXPECT_TRUE(!p.crashed || p.cls == CrashClass::Consistent)
                << p.spec.describe() << " -> " << crashClassName(p.cls)
                << ": " << p.detail;
        }
    } else {
        // The negative control: some crash point must exhibit the
        // paper's counter/data divergence.
        EXPECT_GE(result.mismatchPoints(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignSweep,
                         ::testing::ValuesIn(allDesignPoints()),
                         [](const auto &info) {
                             std::string n = designName(info.param);
                             for (char &c : n)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

TEST(CrashSweepEndToEnd, FingerprintIsDeterministic)
{
    SystemConfig cfg = smallConfig(DesignPoint::Unsafe);
    SweepResult a = runSweep(cfg, 6);
    SweepResult b = runSweep(cfg, 6);
    EXPECT_FALSE(a.fingerprint().empty());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(CrashSweepEndToEnd, ParallelExecuteIsByteIdenticalToSerial)
{
    // The work-pool Execute phase must be invisible in the results:
    // sweep fingerprints must be byte-identical across --jobs 1/2/8
    // for each design.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        SystemConfig cfg = smallConfig(d);

        std::string fingerprints[3];
        const unsigned jobs_values[3] = {1, 2, 8};
        for (int i = 0; i < 3; ++i) {
            SweepOptions opt;
            opt.points = 6;
            opt.jobs = jobs_values[i];
            fingerprints[i] = runSweep(cfg, opt).fingerprint();
        }
        EXPECT_FALSE(fingerprints[0].empty()) << designName(d);
        EXPECT_EQ(fingerprints[0], fingerprints[1]) << designName(d);
        EXPECT_EQ(fingerprints[0], fingerprints[2]) << designName(d);
    }
}

TEST(CrashSweepEndToEnd, UnsafeFailsAsTornCounter)
{
    // The Unsafe design's signature: the data drains, its deferred
    // counter update dies dirty in the volatile counter cache, so the
    // persisted counter lags the cipher's — torn-counter, the paper's
    // Figure 4 failure.
    SweepResult result = runSweep(smallConfig(DesignPoint::Unsafe), 10);
    bool saw_torn_counter = false;
    for (const SweepPoint &p : result.points) {
        if (!p.crashed || p.cls == CrashClass::Consistent)
            continue;
        EXPECT_TRUE(isCounterDataMismatch(p.cls))
            << p.spec.describe() << " -> " << crashClassName(p.cls);
        EXPECT_GT(p.mismatchedLines, 0u);
        saw_torn_counter |= p.cls == CrashClass::TornCounter
            || p.cls == CrashClass::CounterDataMismatch;
    }
    EXPECT_TRUE(saw_torn_counter);
}

TEST(CrashSweepEndToEnd, PipelineTriggerCrashesMidPipeline)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    SweepProbe probe = probeRun(cfg);
    std::uint64_t total = probe.countOf(CtlEvent::PipelineEnter);
    ASSERT_GT(total, 0u);

    SweepPoint point = runSweepPoint(
        cfg, CrashSpec::atEvent(CrashTriggerKind::PipelineEnter,
                                total / 2));
    ASSERT_TRUE(point.crashed);
    EXPECT_GE(point.snapshot.pipeline, 1u)
        << "the trigger should catch the write inside the pipeline";
    EXPECT_EQ(point.cls, CrashClass::Consistent) << point.detail;
}

TEST(CrashSweepEndToEnd, UnreachedTriggerMeansNoCrash)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    SweepPoint point = runSweepPoint(
        cfg, CrashSpec::atEvent(CrashTriggerKind::PairAction, 1u << 30));
    EXPECT_FALSE(point.crashed);
    EXPECT_FALSE(point.snapshot.valid);
    EXPECT_EQ(point.cls, CrashClass::Consistent);
}

// --- fork-based Execute ---------------------------------------------------

TEST(ForkSweep, ForkMatchesReplayFingerprintAllDesigns)
{
    // The sweep classifies captured persistent-state forks of one
    // trunk run, yet its fingerprint is byte-identical to the K-replay
    // reference — for every design, serial and pipelined alike.
    for (DesignPoint d : {DesignPoint::ColocatedCC, DesignPoint::FCA,
                          DesignPoint::SCA, DesignPoint::Unsafe}) {
        SystemConfig cfg = smallConfig(d);

        SweepOptions opt;
        opt.points = 8;
        std::string reference = replaySweep(cfg, opt).fingerprint();
        ASSERT_FALSE(reference.empty()) << designName(d);

        for (unsigned jobs : {1u, 4u}) {
            opt.jobs = jobs;
            EXPECT_EQ(runSweep(cfg, opt).fingerprint(), reference)
                << designName(d) << " jobs=" << jobs;
        }
    }
}

TEST(ForkSweep, CaptureDoesNotPerturbTrunk)
{
    // Arming K capture-only triggers must be invisible to the trunk:
    // same end tick and a byte-identical full stats dump as an unarmed
    // run of the same configuration. That must hold even when every
    // captured fork gets a media-fault dose — the faults land on the
    // fork's image copy, never the trunk's device.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);

    System plain(cfg);
    RunResult plain_result = plain.run();
    std::ostringstream plain_stats;
    plain.statsRegistry().dump(plain_stats);

    SweepProbe probe = probeRun(cfg);
    for (bool with_faults : {false, true}) {
        std::vector<CrashSpec> plan = planSweep(
            probe, 9, true,
            with_faults ? FaultSpec::allKinds(7) : FaultSpec{});
        unsigned captured = 0;
        std::uint64_t faulted = 0;
        System trunk(cfg);
        RunResult trunk_result = trunk.runWithForkCapture(
            plan, [&](std::size_t, PersistFork fork) {
                ++captured;
                faulted += fork.image.faultedLineCount();
            });
        std::ostringstream trunk_stats;
        trunk.statsRegistry().dump(trunk_stats);

        EXPECT_GT(captured, 0u);
        if (with_faults) {
            EXPECT_GT(faulted, 0u) << "the dose never landed";
        }
        EXPECT_FALSE(trunk_result.crashed);
        EXPECT_EQ(trunk_result.endTick, plain_result.endTick)
            << "faults=" << with_faults;
        EXPECT_EQ(trunk_result.txnsIssued, plain_result.txnsIssued)
            << "faults=" << with_faults;
        EXPECT_EQ(trunk_stats.str(), plain_stats.str())
            << "faults=" << with_faults;
        EXPECT_EQ(trunk.nvm().persistedState().faultedLineCount(), 0u)
            << "a fault leaked onto the trunk's own image";
    }
}

TEST(ForkSweep, MultiSpecArmingFiresEachSpecOnceAtItsReplayTick)
{
    SystemConfig cfg = smallConfig(DesignPoint::ColocatedCC);
    SweepProbe probe = probeRun(cfg);
    ASSERT_GT(probe.countOf(CtlEvent::DataDrain), 4u);
    ASSERT_GT(probe.countOf(CtlEvent::PipelineEnter), 2u);

    // Two semantic specs and one absolute tick, all armed on one run.
    std::vector<CrashSpec> plan{
        CrashSpec::atEvent(CrashTriggerKind::DataDrain, 5),
        CrashSpec::atEvent(CrashTriggerKind::PipelineEnter, 3),
        CrashSpec::atTick(probe.endTick / 2),
    };

    std::vector<unsigned> fires(plan.size(), 0);
    std::vector<Tick> forkTicks(plan.size(), 0);
    System trunk(cfg);
    trunk.runWithForkCapture(plan,
                             [&](std::size_t i, PersistFork fork) {
                                 ++fires.at(i);
                                 forkTicks.at(i) = fork.snapshot.tick;
                                 EXPECT_EQ(fork.planIndex, i);
                             });

    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(fires[i], 1u) << plan[i].describe();
        // Each fork was captured at exactly the tick a dedicated
        // replay run crashes at for the same spec.
        SweepPoint replay = runSweepPoint(cfg, plan[i]);
        ASSERT_TRUE(replay.crashed) << plan[i].describe();
        EXPECT_EQ(forkTicks[i], replay.snapshot.tick)
            << plan[i].describe();
    }
}

TEST(ForkSweep, PersistForkIsADeepCopy)
{
    // Mutating the trunk after capture (it keeps simulating, and here
    // we corrupt its device outright) must not change the fork's
    // classification.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    SweepProbe probe = probeRun(cfg);
    CrashSpec spec =
        CrashSpec::atEvent(CrashTriggerKind::DataDrain,
                           probe.countOf(CtlEvent::DataDrain) / 2);

    std::vector<PersistFork> forks;
    System trunk(cfg);
    trunk.runWithForkCapture({spec},
                             [&](std::size_t, PersistFork fork) {
                                 forks.push_back(std::move(fork));
                             });
    ASSERT_EQ(forks.size(), 1u);

    SweepPoint before = classifyFork(trunk, spec, forks[0]);
    ASSERT_TRUE(before.crashed);

    // Corrupt every persisted line of core 0's region on the trunk.
    const Workload &wl = trunk.workload(0);
    LineData garbage;
    garbage.fill(0xa5);
    for (Addr a = wl.regionBase(); a < wl.regionEnd(); a += lineBytes)
        trunk.nvm().persistedState().drainData(a, garbage, 0xdeadbeef);

    SweepPoint after = classifyFork(trunk, spec, forks[0]);
    EXPECT_EQ(after.cls, before.cls);
    EXPECT_EQ(after.detail, before.detail);
    EXPECT_EQ(after.mismatchedLines, before.mismatchedLines);
    EXPECT_EQ(after.committedTxns, before.committedTxns);
    EXPECT_EQ(after.snapshot.tick, before.snapshot.tick);
}

// --- fork image == in-place crash image ----------------------------------

/** Every node the tree store can hold for the counter line at
 *  @p ctr_addr: its eight level-0 slots and its ancestors up to the
 *  last level below the root. */
void
expectSameTreeNodes(const PersistImage &want, const PersistImage &got,
                    Addr ctr_base, Addr ctr_addr, const std::string &where)
{
    const std::uint64_t leaf = (ctr_addr - ctr_base) / lineBytes;
    auto same = [&](unsigned level, std::uint64_t index) {
        const std::uint64_t *w = want.persistedTreeNode(level, index);
        const std::uint64_t *g = got.persistedTreeNode(level, index);
        ASSERT_EQ(w == nullptr, g == nullptr)
            << where << " tree node " << level << "/" << index;
        if (w != nullptr) {
            EXPECT_EQ(*w, *g) << where << " tree node " << level << "/"
                              << index;
        }
    };
    for (unsigned s = 0; s < countersPerLine; ++s)
        same(0, leaf * countersPerLine + s);
    for (unsigned level = 1; level < treeRootLevel; ++level)
        same(level, leaf >> (3 * (level - 1)));
}

/** Line-by-line equality of two persisted images: data triples,
 *  counter store, tree store, stale triples and fault ground truth. */
void
expectSameImage(const PersistImage &want, const PersistImage &got,
                Addr ctr_base, const std::string &where)
{
    const std::vector<Addr> lines = want.dataLineAddrs();
    ASSERT_EQ(lines, got.dataLineAddrs()) << where;
    for (Addr a : lines) {
        EXPECT_EQ(*want.persistedLine(a), *got.persistedLine(a))
            << where << " data line " << a;
        EXPECT_EQ(want.persistedCipherCounter(a),
                  got.persistedCipherCounter(a))
            << where << " cipher counter " << a;
        const std::uint64_t *wm = want.persistedMac(a);
        const std::uint64_t *gm = got.persistedMac(a);
        ASSERT_EQ(wm == nullptr, gm == nullptr) << where << " MAC " << a;
        if (wm != nullptr) {
            EXPECT_EQ(*wm, *gm) << where << " MAC " << a;
        }
        EXPECT_EQ(want.lineFaulted(a), got.lineFaulted(a))
            << where << " faulted " << a;
        EXPECT_EQ(want.lineReplayed(a), got.lineReplayed(a))
            << where << " replayed " << a;
    }
    EXPECT_EQ(want.faultedLineCount(), got.faultedLineCount()) << where;
    EXPECT_EQ(want.replayedLineCount(), got.replayedLineCount()) << where;
    EXPECT_EQ(want.replayableLineAddrs(), got.replayableLineAddrs())
        << where;

    const std::vector<Addr> ctrs = want.counterLineAddrs();
    ASSERT_EQ(ctrs, got.counterLineAddrs()) << where;
    for (Addr c : ctrs) {
        EXPECT_EQ(want.persistedCounters(c), got.persistedCounters(c))
            << where << " counter line " << c;
        expectSameTreeNodes(want, got, ctr_base, c, where);
    }
    EXPECT_EQ(want.persistedTreeLeafIndices(),
              got.persistedTreeLeafIndices())
        << where;
    const std::uint64_t *wr = want.persistedTreeRoot();
    const std::uint64_t *gr = got.persistedTreeRoot();
    ASSERT_EQ(wr == nullptr, gr == nullptr) << where << " root";
    if (wr != nullptr) {
        EXPECT_EQ(*wr, *gr) << where << " root";
    }
}

class ForkImage : public ::testing::TestWithParam<DesignPoint>
{};

TEST_P(ForkImage, EqualsInPlaceCrashImage)
{
    // A fork captured at spec S holds byte for byte the image an
    // in-place crash at S leaves on the device, before recovery — not
    // just an image that classifies the same. Both run the one
    // power-failure sequence (drain, tree flush, fault dose); this
    // pins that they run it on the same state.
    for (unsigned channels : {1u, 4u}) {
        for (bool dosed : {false, true}) {
            SystemConfig cfg = smallConfig(GetParam());
            cfg.numChannels = channels;
            FaultSpec faults;
            if (dosed) {
                cfg.memctl.integrityMac = true;
                cfg.memctl.integrityTree = true;
                faults = FaultSpec::allKindsWithReplays(11);
            }
            const std::vector<CrashSpec> plan =
                planSweep(probeRun(cfg), 4, true, faults);

            std::vector<std::optional<PersistFork>> forks(plan.size());
            System trunk(cfg);
            trunk.runWithForkCapture(
                plan, [&](std::size_t i, PersistFork fork) {
                    forks[i] = std::move(fork);
                });

            unsigned compared = 0;
            std::size_t dosed_lines = 0;
            for (std::size_t i = 0; i < plan.size(); ++i) {
                const std::string where = std::string(designName(
                    GetParam())) + " ch=" + std::to_string(channels)
                    + (dosed ? " dosed " : " clean ")
                    + plan[i].describe();
                System crashed(cfg);
                RunResult r = crashed.runWithCrash(plan[i]);
                ASSERT_EQ(r.crashed, forks[i].has_value()) << where;
                if (!r.crashed)
                    continue;
                ++compared;

                const CrashSnapshot &want = crashed.crashSnapshot();
                const CrashSnapshot &got = forks[i]->snapshot;
                EXPECT_TRUE(got.valid) << where;
                EXPECT_EQ(want.tick, got.tick) << where;
                EXPECT_EQ(want.dataQueue, got.dataQueue) << where;
                EXPECT_EQ(want.ctrQueue, got.ctrQueue) << where;
                EXPECT_EQ(want.landing, got.landing) << where;
                EXPECT_EQ(want.pipeline, got.pipeline) << where;
                EXPECT_EQ(want.inflight, got.inflight) << where;
                EXPECT_EQ(want.outstandingReads, got.outstandingReads)
                    << where;

                expectSameImage(crashed.nvm().persistedState(),
                                forks[i]->image,
                                cfg.memctl.counterRegionBase, where);
                dosed_lines += forks[i]->image.faultedLineCount()
                    + forks[i]->image.replayedLineCount();
            }
            EXPECT_GT(compared, 0u) << "no planned point fired";
            if (dosed) {
                EXPECT_GT(dosed_lines, 0u) << "the dose never landed";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ForkImage,
                         ::testing::ValuesIn(allDesignPoints()),
                         [](const auto &info) {
                             std::string n = designName(info.param);
                             for (char &c : n)
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

} // anonymous namespace
} // namespace cnvm
