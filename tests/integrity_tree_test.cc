/**
 * @file
 * Tests for the Bonsai Merkle Tree integrity layer and the recovery
 * paths it hardens: tree-hash algebra, crash-flush/recompute root
 * agreement, the tree reductions against a std::map reference model, the multi-match-aware counter-window repair, directed
 * replay detection (tree on) vs silent replay (MAC-only), the
 * quarantine-race pre-scan determinism contract, replay-dosed sweep
 * fingerprint identity across modes and job counts, and idempotent
 * crash-during-tree-reconstruction recovery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/crash_sweep.hh"
#include "core/recovery.hh"
#include "core/recovery_crash.hh"
#include "core/system.hh"
#include "common/random.hh"
#include "integrity/integrity_tree.hh"
#include "nvm/fault_model.hh"
#include "replay_reference.hh"
#include "runner/runner.hh"

namespace cnvm
{
namespace
{

SystemConfig
smallConfig(DesignPoint design, unsigned txns = 25)
{
    SystemConfig cfg;
    cfg.design = design;
    cfg.workload = WorkloadKind::ArraySwap;
    cfg.wl.regionBytes = 256 << 10;
    cfg.wl.txnTarget = txns;
    cfg.wl.computePerTxn = 100;
    cfg.wl.recordDigests = true;
    cfg.wl.setupFill = 0.3;
    cfg.memctl.counterCacheBytes = 16 << 10;
    return cfg;
}

SystemConfig
treeConfig(DesignPoint design, unsigned txns = 25)
{
    SystemConfig cfg = smallConfig(design, txns);
    cfg.memctl.integrityMac = true;
    cfg.memctl.integrityTree = true;
    return cfg;
}

// --- tree-hash algebra ----------------------------------------------------

TEST(TreeHash, ZeroHashIsTheCombineOfZeroChildren)
{
    // The sparse-tree contract: an absent subtree at level L+1 must
    // hash exactly as eight absent subtrees at level L would.
    for (unsigned level = 0; level < treeRootLevel; ++level) {
        std::uint64_t children[treeArity];
        for (unsigned i = 0; i < treeArity; ++i)
            children[i] = treeZeroHash(level);
        EXPECT_EQ(treeCombine(children), treeZeroHash(level + 1))
            << "level " << level;
    }
}

TEST(TreeHash, SlotHashDistinguishesCounters)
{
    EXPECT_NE(treeSlotHash(0), treeSlotHash(1));
    EXPECT_NE(treeSlotHash(41), treeSlotHash(42));
    EXPECT_EQ(treeSlotHash(42), treeSlotHash(42));
}

TEST(TreeHash, CombineIsSensitiveToEveryChild)
{
    std::uint64_t children[treeArity];
    for (unsigned i = 0; i < treeArity; ++i)
        children[i] = treeSlotHash(i);
    const std::uint64_t base = treeCombine(children);
    for (unsigned i = 0; i < treeArity; ++i) {
        std::uint64_t tweaked[treeArity];
        std::copy(children, children + treeArity, tweaked);
        tweaked[i] ^= 1;
        EXPECT_NE(treeCombine(tweaked), base) << "child " << i;
    }
}

// --- crash flush vs recompute ---------------------------------------------

TEST(TreeRoot, CrashFlushAgreesWithBottomUpRecompute)
{
    System sys(treeConfig(DesignPoint::SCA));
    sys.run();
    sys.controller().crash();

    const PersistImage &img = sys.nvm().persistedState();
    const Addr ctr_base = sys.controller().config().counterRegionBase;
    ASSERT_NE(img.persistedTreeRoot(), nullptr);
    EXPECT_EQ(computeTreeRoot(img, ctr_base), *img.persistedTreeRoot());
    EXPECT_FALSE(img.persistedTreeLeafIndices().empty());
}

TEST(TreeRoot, ReplayBreaksTheRootAndRebuildRestoresIt)
{
    System sys(treeConfig(DesignPoint::SCA));
    sys.run();
    MemController &ctl = sys.controller();
    ctl.crash();

    PersistImage &img = sys.nvm().persistedState();
    const Addr ctr_base = ctl.config().counterRegionBase;
    const std::uint64_t flushed = *img.persistedTreeRoot();

    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));
    EXPECT_TRUE(img.lineReplayed(addr));

    // The stale counter word moved a leaf, so the store no longer
    // hashes to the persisted root...
    EXPECT_NE(computeTreeRoot(img, ctr_base), flushed);

    // ...and a full rebuild converges the persisted nodes back onto
    // the (now stale) store.
    std::uint64_t rebuilt =
        rebuildTree(img, ctr_base, 0, ~Addr(0));
    EXPECT_EQ(rebuilt, *img.persistedTreeRoot());
    EXPECT_EQ(computeTreeRoot(img, ctr_base), rebuilt);
    EXPECT_NE(rebuilt, flushed);
}

// --- the reductions against a std::map reference model -------------------

/** One tree level as the reference model keeps it: index -> hash. */
using NodeMap = std::map<std::uint64_t, std::uint64_t>;

/** Reference 8-ary reduction step: the parents of @p level's nodes,
 *  absent children standing in for their zero hash. */
NodeMap
refReduceLevel(const NodeMap &level, unsigned level_no)
{
    NodeMap up;
    auto it = level.begin();
    while (it != level.end()) {
        const std::uint64_t parent = it->first / treeArity;
        std::uint64_t children[treeArity];
        for (unsigned c = 0; c < treeArity; ++c)
            children[c] = treeZeroHash(level_no);
        while (it != level.end() && it->first / treeArity == parent) {
            children[it->first % treeArity] = it->second;
            ++it;
        }
        up[parent] = treeCombine(children);
    }
    return up;
}

/** Reference root of a level-1 node map, reduced all the way up. */
std::uint64_t
refRootOf(NodeMap level)
{
    for (unsigned l = 1; l < treeRootLevel; ++l)
        level = refReduceLevel(level, l);
    if (level.empty())
        return treeZeroHash(treeRootLevel);
    EXPECT_EQ(level.size(), 1u);
    EXPECT_EQ(level.begin()->first, 0u);
    return level.begin()->second;
}

std::uint64_t
refCounterLineHash(const CounterLine &values)
{
    std::uint64_t slots[treeArity];
    for (unsigned s = 0; s < countersPerLine; ++s)
        slots[s] = treeSlotHash(values[s]);
    return treeCombine(slots);
}

constexpr Addr kRefCtrBase = Addr(1) << 33;

/** A counter-line index: dense runs, sparse ones, and the top of the
 *  tree's 2^27-line domain. */
std::uint64_t
drawCounterLine(Random &rng)
{
    switch (rng.below(3)) {
      case 0: return rng.below(600);
      case 1: return rng.below(std::uint64_t(1) << 20);
      default: return (std::uint64_t(1) << 24) - 1 - rng.below(5000);
    }
}

/** One randomized image with its pre-rebuild tree state recorded. */
struct RandomTreeImage
{
    PersistImage img;
    std::map<std::uint64_t, CounterLine> store; //!< line index -> values
    /** Persisted nodes before the rebuild, per level. */
    std::map<unsigned, NodeMap> before;

    explicit RandomTreeImage(std::uint64_t seed)
    {
        Random rng(seed);
        const unsigned lines = 1 + static_cast<unsigned>(rng.below(700));
        for (unsigned i = 0; i < lines; ++i) {
            const std::uint64_t index = drawCounterLine(rng);
            CounterLine values{};
            for (std::uint64_t &v : values)
                v = rng.below(4) == 0 ? 0 : rng.next() % 1000;
            store[index] = values;
            img.drainCounters(kRefCtrBase + index * lineBytes, values);
        }
        // Stray level-1 nodes with no store line (a region another
        // recovery rebuilt, or evidence left for one), and stale
        // nodes above level 1 that a rebuild must never read back.
        auto persist = [&](unsigned level, std::uint64_t index) {
            const std::uint64_t hash = rng.next();
            img.drainTreeNode(level, index, hash);
            before[level][index] = hash;
        };
        for (unsigned i = rng.below(40); i > 0; --i) {
            const std::uint64_t index = drawCounterLine(rng);
            if (store.count(index) == 0)
                persist(1, index);
        }
        for (unsigned level = 2; level < treeRootLevel; ++level) {
            for (unsigned i = rng.below(12); i > 0; --i) {
                // Half of them where the rebuild will recompute.
                const std::uint64_t index = rng.below(2) == 0
                    ? drawCounterLine(rng) >> (3 * (level - 1))
                    : rng.below(std::uint64_t(1) << (27 - 3 * level));
                persist(level, index);
            }
        }
    }
};

TEST(TreeReductions, RebuildAndRecomputeMatchTheMapModel)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(seed);
        RandomTreeImage t(seed);
        Random rng(seed * 977);

        // computeTreeRoot reads the store alone.
        NodeMap store_leaves;
        for (const auto &[index, values] : t.store)
            store_leaves[index] = refCounterLineHash(values);
        EXPECT_EQ(computeTreeRoot(t.img, kRefCtrBase),
                  refRootOf(store_leaves));

        // A full rebuild, or a regional one over a random window.
        Addr lo = 0, hi = ~Addr(0);
        if (seed % 2 == 0) {
            const std::uint64_t a = drawCounterLine(rng);
            const std::uint64_t b = drawCounterLine(rng);
            lo = kRefCtrBase + std::min(a, b) * lineBytes;
            hi = kRefCtrBase + std::max(a, b) * lineBytes;
        }

        // The model: level 0/1 for each in-window store line, then the
        // interior reduced from every persisted level-1 node.
        std::map<unsigned, NodeMap> want = t.before;
        for (const auto &[index, values] : t.store) {
            const Addr addr = kRefCtrBase + index * lineBytes;
            if (addr < lo || addr >= hi)
                continue;
            for (unsigned s = 0; s < countersPerLine; ++s)
                want[0][index * countersPerLine + s] =
                    treeSlotHash(values[s]);
            want[1][index] = refCounterLineHash(values);
        }
        NodeMap level = want[1];
        for (unsigned l = 1; l < treeRootLevel; ++l) {
            level = refReduceLevel(level, l);
            if (l + 1 < treeRootLevel)
                for (const auto &[index, hash] : level)
                    want[l + 1][index] = hash;
        }
        const std::uint64_t want_root = refRootOf(want[1]);

        PersistImage rebuilt = t.img;
        EXPECT_EQ(rebuildTree(rebuilt, kRefCtrBase, lo, hi), want_root);
        ASSERT_NE(rebuilt.persistedTreeRoot(), nullptr);
        EXPECT_EQ(*rebuilt.persistedTreeRoot(), want_root);

        std::vector<std::uint64_t> want_leaves;
        for (const auto &[index, hash] : want[1])
            want_leaves.push_back(index);
        EXPECT_EQ(rebuilt.persistedTreeLeafIndices(), want_leaves);
        for (const auto &[l, nodes] : want) {
            for (const auto &[index, hash] : nodes) {
                const std::uint64_t *got =
                    rebuilt.persistedTreeNode(l, index);
                ASSERT_NE(got, nullptr) << "level " << l << " " << index;
                EXPECT_EQ(*got, hash) << "level " << l << " " << index;
            }
        }
        // Nothing beyond the model's nodes was written: a few probes
        // next to each expected node find nothing the model lacks.
        for (const auto &[l, nodes] : want) {
            for (const auto &[index, hash] : nodes) {
                if (nodes.count(index + 1) == 0) {
                    EXPECT_EQ(rebuilt.persistedTreeNode(l, index + 1),
                              nullptr) << "level " << l;
                }
            }
        }

        // The source image is a snapshot the rebuild never touched.
        EXPECT_EQ(t.img.persistedTreeRoot(), nullptr);
        for (const auto &[l, nodes] : t.before)
            for (const auto &[index, hash] : nodes)
                EXPECT_EQ(*t.img.persistedTreeNode(l, index), hash);
    }
}

// --- multi-match window repair --------------------------------------------

TEST(RepairWindow, SingleMatchIsReturnedWithoutConfirmation)
{
    auto verifies = [](std::uint64_t c) { return c == 103; };
    auto got = repairCounterWindow(100, 8, verifies, {});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 103u);
}

TEST(RepairWindow, NoMatchReturnsNothing)
{
    auto verifies = [](std::uint64_t) { return false; };
    EXPECT_FALSE(repairCounterWindow(100, 8, verifies, {}).has_value());
}

TEST(RepairWindow, TwoMatchesWithoutTreeAreAmbiguous)
{
    // The truncated-MAC collision: two counters in the window verify.
    // The legacy nearest-first search would silently "repair" to 102;
    // without a confirming tree the search must refuse to guess.
    auto verifies = [](std::uint64_t c) { return c == 102 || c == 96; };
    EXPECT_FALSE(repairCounterWindow(100, 8, verifies, {}).has_value());
}

TEST(RepairWindow, TreeConfirmationBreaksTheTie)
{
    auto verifies = [](std::uint64_t c) { return c == 102 || c == 96; };

    // The tree votes for the farther candidate: it wins anyway.
    auto far = repairCounterWindow(100, 8, verifies,
                                   [](std::uint64_t c) { return c == 96; });
    ASSERT_TRUE(far.has_value());
    EXPECT_EQ(*far, 96u);

    // Both confirmed (degenerate tree): the nearest candidate wins.
    auto near = repairCounterWindow(100, 8, verifies,
                                    [](std::uint64_t) { return true; });
    ASSERT_TRUE(near.has_value());
    EXPECT_EQ(*near, 102u);

    // Confirmation that rejects both: still ambiguous.
    EXPECT_FALSE(repairCounterWindow(100, 8, verifies,
                                     [](std::uint64_t) { return false; })
                     .has_value());
}

// --- directed replay detection --------------------------------------------

TEST(ReplayDetection, TreeCatchesAStaleTripleTheMacAccepts)
{
    System sys(treeConfig(DesignPoint::SCA));
    sys.run();
    MemController &ctl = sys.controller();
    ctl.crash();

    PersistImage &img = sys.nvm().persistedState();
    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));

    RecoveredImage image(sys.nvm(), ctl);
    EXPECT_TRUE(image.treeRootMismatch());
    image.line(addr);
    EXPECT_EQ(image.replaysDetected(), 1u);
    EXPECT_TRUE(image.isQuarantined(addr));
    // The triple is stale-but-valid: the MAC never fired, so this is
    // not double-counted as a detected corruption.
    EXPECT_EQ(image.detectedCorruptions(), 0u);
}

TEST(ReplayDetection, MacOnlyConsumesTheSameReplaySilently)
{
    // The negative control: identical attack, tree off. Every
    // per-line check passes and recovery never notices.
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;
    System sys(cfg);
    sys.run();
    MemController &ctl = sys.controller();
    ctl.crash();

    PersistImage &img = sys.nvm().persistedState();
    std::vector<Addr> victims = img.replayableLineAddrs();
    ASSERT_FALSE(victims.empty());
    Addr addr = victims.front();
    ASSERT_TRUE(img.replayLine(addr, ctl.counterLineAddr(addr),
                               ctl.counterSlot(addr)));

    RecoveredImage image(sys.nvm(), ctl);
    EXPECT_FALSE(image.treeRootMismatch());
    image.line(addr);
    EXPECT_EQ(image.replaysDetected(), 0u);
    EXPECT_EQ(image.detectedCorruptions(), 0u);
    EXPECT_EQ(image.quarantinedCount(), 0u);
}

// --- quarantine-race regression -------------------------------------------

TEST(QuarantineRace, ParallelPreScanQuarantinesAcrossShardsLikeSerial)
{
    // Regression for the parallel pre-scan data-race hazard: corrupt
    // lines in several distinct 16 KB shards so multiple workers
    // produce quarantine verdicts concurrently, then require the
    // pooled scan's bookkeeping — quarantine set included — to be
    // identical to the serial reference. Run under TSan, this is the
    // test that fails if any shard ever touches shared state directly
    // instead of handing verdicts to the merge.
    SystemConfig cfg = smallConfig(DesignPoint::SCA, 10);
    cfg.memctl.integrityMac = true;
    System sys(cfg);
    sys.run();
    MemController &ctl = sys.controller();
    ctl.crash();

    const Workload &wl = sys.workload(0);
    PersistImage &img = sys.nvm().persistedState();

    std::vector<Addr> persisted = img.dataLineAddrs();
    std::sort(persisted.begin(), persisted.end());
    std::vector<Addr> victims;
    Addr next_shard = wl.regionBase();
    for (Addr a : persisted) {
        if (a < next_shard || a >= wl.regionEnd())
            continue;
        victims.push_back(a);
        next_shard = a + (32 << 10); // skip ahead ≥ 2 shards
    }
    ASSERT_GE(victims.size(), 2u);

    LineData garbage;
    for (std::size_t i = 0; i < victims.size(); ++i) {
        garbage.fill(static_cast<std::uint8_t>(0x51 + i));
        img.corruptDataLine(victims[i], garbage);
    }

    RecoveredImage serial(sys.nvm(), ctl);
    serial.preScan(wl.regionBase(), wl.regionEnd(), nullptr, nullptr);

    WorkPool pool(4);
    RecoveredImage pooled(sys.nvm(), ctl);
    pooled.preScan(wl.regionBase(), wl.regionEnd(), &pool, nullptr);

    EXPECT_EQ(serial.quarantinedCount(), victims.size());
    EXPECT_EQ(pooled.quarantinedCount(), serial.quarantinedCount());
    EXPECT_EQ(pooled.detectedCorruptions(), serial.detectedCorruptions());
    EXPECT_EQ(pooled.windowRepairs(), serial.windowRepairs());
    EXPECT_EQ(pooled.replaysDetected(), serial.replaysDetected());
    for (Addr a : victims) {
        EXPECT_TRUE(serial.isQuarantined(a)) << std::hex << a;
        EXPECT_TRUE(pooled.isQuarantined(a)) << std::hex << a;
    }
}

// --- replay-dosed sweeps --------------------------------------------------

TEST(ReplaySweep, TreeOnNothingSilentAndReplaysCaught)
{
    SweepOptions opt;
    opt.points = 20;
    opt.faults = FaultSpec::allKindsWithReplays(7);
    SweepResult r = runSweep(treeConfig(DesignPoint::SCA), opt);

    EXPECT_GT(r.totalOf(&SweepPoint::replayedLines), 0u);
    EXPECT_GT(r.totalOf(&SweepPoint::replaysDetected), 0u);
    EXPECT_EQ(r.silentPoints(), 0u);
    EXPECT_EQ(r.silentReplayPoints(), 0u);
}

TEST(ReplaySweep, MacOnlyLetsReplaysThroughSilently)
{
    SystemConfig cfg = smallConfig(DesignPoint::SCA);
    cfg.memctl.integrityMac = true;

    SweepOptions opt;
    opt.points = 20;
    opt.faults = FaultSpec::allKindsWithReplays(7);
    SweepResult r = runSweep(cfg, opt);

    EXPECT_GT(r.totalOf(&SweepPoint::replayedLines), 0u);
    EXPECT_EQ(r.totalOf(&SweepPoint::replaysDetected), 0u);
    EXPECT_GT(r.silentReplayPoints(), 0u);
}

TEST(ReplaySweep, FingerprintIdenticalAcrossModesAndJobs)
{
    // The tree-enabled extension of the fault-sweep contract: a
    // replay-dosed fork sweep fingerprints byte-identically to the
    // replay reference at any jobs / recovery-jobs combination.
    SystemConfig cfg = treeConfig(DesignPoint::SCA);

    SweepOptions opt;
    opt.points = 8;
    opt.faults = FaultSpec::allKindsWithReplays(42);
    std::string ref = replaySweep(cfg, opt).fingerprint();
    ASSERT_FALSE(ref.empty());
    EXPECT_NE(ref.find("+f("), std::string::npos);
    // Replayed lines annotate the fingerprint (the `p` atom).
    EXPECT_NE(ref.find("p"), std::string::npos);

    for (unsigned jobs : {1u, 4u}) {
        opt.jobs = jobs;
        opt.recoveryJobs = jobs;
        EXPECT_EQ(runSweep(cfg, opt).fingerprint(), ref)
            << "jobs=" << jobs;
    }
}

// --- crash during tree reconstruction -------------------------------------

TEST(TreeRecrash, InterruptedReconstructionIsIdempotent)
{
    // Counter-fault-dosed crash-during-recovery sweep with the tree
    // armed. Counter faults break the persisted root, and the
    // rollback flavor is window-repairable, so reference recoveries
    // that survive the quarantine gate reach the tree reconstruction
    // — putting TreeRebuildLeaf interruption points into the plan. An
    // interrupted-then-rerun reconstruction must then converge to the
    // uninterrupted reference at every point.
    FaultSpec dose;
    dose.counterFaults = 2;
    dose.seed = 1;

    RecoveryCrashOptions opt;
    opt.points = 12;
    opt.images = 6;
    opt.recoveryJobs = 2;
    opt.faults = dose;
    RecoveryCrashResult r =
        runRecoveryCrashSweep(treeConfig(DesignPoint::SCA), opt);

    EXPECT_GT(r.firedPoints(), 0u);
    EXPECT_EQ(r.divergentPoints(), 0u);
    EXPECT_NE(r.fingerprint().find("treeleaf"), std::string::npos)
        << r.fingerprint();
}

} // anonymous namespace
} // namespace cnvm
