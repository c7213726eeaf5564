/**
 * @file
 * Unit tests for the five workloads: setup invariants, transaction
 * generation, digest determinism/sensitivity, and validation against
 * the live shadow after many operations.
 */

#include <gtest/gtest.h>

#include "workloads/array_swap.hh"
#include "workloads/btree.hh"
#include "workloads/factory.hh"
#include "workloads/hash_table.hh"
#include "workloads/item_pattern.hh"
#include "workloads/queue.hh"
#include "workloads/rbtree.hh"

namespace cnvm
{
namespace
{

WorkloadParams
smallParams(unsigned txns = 50)
{
    WorkloadParams p;
    p.regionBase = 1 << 20;
    p.regionBytes = 256 << 10;
    p.txnTarget = txns;
    p.batch = 1;
    p.computePerTxn = 0;
    p.seed = 12345;
    p.setupFill = 0.3;
    return p;
}

/** Sets up a workload against a discard init-writer and runs all txns
 *  host-side (the op streams are generated but not simulated). */
void
runAll(Workload &wl)
{
    wl.setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    while (wl.next(ops))
        ops.clear();
}

// --- factory ---------------------------------------------------------------

TEST(Factory, AllFiveKinds)
{
    EXPECT_EQ(allWorkloadKinds().size(), 5u);
    for (WorkloadKind kind : allWorkloadKinds()) {
        auto wl = makeWorkload(kind, smallParams());
        ASSERT_NE(wl, nullptr);
        EXPECT_STREQ(wl->name(), workloadKindName(kind));
    }
}

TEST(Factory, NamesRoundTrip)
{
    EXPECT_EQ(workloadKindFromName("array"), WorkloadKind::ArraySwap);
    EXPECT_EQ(workloadKindFromName("Queue"), WorkloadKind::Queue);
    EXPECT_EQ(workloadKindFromName("HASH"), WorkloadKind::HashTable);
    EXPECT_EQ(workloadKindFromName("b-tree"), WorkloadKind::BTree);
    EXPECT_EQ(workloadKindFromName("rbtree"), WorkloadKind::RbTree);
    for (WorkloadKind kind : allWorkloadKinds())
        EXPECT_EQ(workloadKindFromName(workloadKindName(kind)), kind);
    // An unknown name is the caller's usage error, not a fatal.
    EXPECT_EQ(workloadKindFromName("bogus"), std::nullopt);
    EXPECT_EQ(workloadKindFromName(""), std::nullopt);
}

// --- item pattern ------------------------------------------------------------

TEST(ItemPattern, RoundTrip)
{
    std::uint8_t buf[256];
    fillItemPattern(42, sizeof(buf), buf);
    EXPECT_TRUE(checkItemPattern(42, sizeof(buf), buf));
    EXPECT_FALSE(checkItemPattern(43, sizeof(buf), buf));
    buf[100] ^= 1;
    EXPECT_FALSE(checkItemPattern(42, sizeof(buf), buf));
}

TEST(ItemPattern, FirstWordIsValue)
{
    std::uint8_t buf[64];
    fillItemPattern(0x1122334455667788ull, sizeof(buf), buf);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    EXPECT_EQ(v, 0x1122334455667788ull);
}

// --- generic per-workload properties ---------------------------------------

class WorkloadParam : public ::testing::TestWithParam<WorkloadKind>
{};

TEST_P(WorkloadParam, ValidatesCleanAfterSetup)
{
    auto wl = makeWorkload(GetParam(), smallParams());
    wl->setup([](Addr, const void *, unsigned) {});
    ValidationResult result = wl->validate(wl->shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST_P(WorkloadParam, ValidatesCleanAfterManyTxns)
{
    auto wl = makeWorkload(GetParam(), smallParams(100));
    runAll(*wl);
    EXPECT_EQ(wl->txnsIssued(), 100u);
    ValidationResult result = wl->validate(wl->shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST_P(WorkloadParam, DigestIsDeterministic)
{
    auto a = makeWorkload(GetParam(), smallParams());
    auto b = makeWorkload(GetParam(), smallParams());
    runAll(*a);
    runAll(*b);
    EXPECT_EQ(a->digest(a->shadowMem()), b->digest(b->shadowMem()));
}

TEST_P(WorkloadParam, DigestChangesWithSeed)
{
    auto a = makeWorkload(GetParam(), smallParams());
    WorkloadParams p2 = smallParams();
    p2.seed = 999;
    auto b = makeWorkload(GetParam(), p2);
    runAll(*a);
    runAll(*b);
    EXPECT_NE(a->digest(a->shadowMem()), b->digest(b->shadowMem()));
}

TEST_P(WorkloadParam, DigestEvolvesAcrossCommits)
{
    WorkloadParams p = smallParams(10);
    p.recordDigests = true;
    auto wl = makeWorkload(GetParam(), p);
    runAll(*wl);
    const auto &digests = wl->digests();
    ASSERT_EQ(digests.size(), 11u); // initial + one per txn
    // Digests are not all identical (the structure changes).
    bool any_change = false;
    for (std::size_t i = 1; i < digests.size(); ++i)
        any_change |= digests[i] != digests[i - 1];
    EXPECT_TRUE(any_change);
}

TEST_P(WorkloadParam, TransactionsEmitStagedOps)
{
    auto wl = makeWorkload(GetParam(), smallParams(5));
    wl->setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    ASSERT_TRUE(wl->next(ops));
    unsigned fences = 0, stores = 0, ca_stores = 0;
    for (const Op &op : ops) {
        fences += op.type == OpType::Fence ? 1 : 0;
        if (op.type == OpType::Store) {
            ++stores;
            ca_stores += op.counterAtomic ? 1 : 0;
        }
    }
    EXPECT_EQ(fences, 3u);      // prepare, mutate, commit
    EXPECT_GE(stores, 3u);
    EXPECT_GE(ca_stores, 2u);   // header valid=true and valid=false
}

TEST_P(WorkloadParam, StopsAtTarget)
{
    auto wl = makeWorkload(GetParam(), smallParams(7));
    wl->setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    unsigned batches = 0;
    while (wl->next(ops)) {
        ++batches;
        ops.clear();
    }
    EXPECT_EQ(batches, 7u);
    EXPECT_FALSE(wl->next(ops));
}

TEST_P(WorkloadParam, AllWritesStayInRegion)
{
    auto wl = makeWorkload(GetParam(), smallParams(20));
    wl->setup([](Addr, const void *, unsigned) {});
    std::vector<Op> ops;
    while (wl->next(ops)) {
        for (const Op &op : ops) {
            if (op.type == OpType::Store || op.type == OpType::Clwb
                || op.type == OpType::Load) {
                ASSERT_TRUE(wl->inRegion(op.addr))
                    << "op outside region at " << std::hex << op.addr;
            }
        }
        ops.clear();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadParam,
    ::testing::ValuesIn(allWorkloadKinds()),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        std::string name = workloadKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// --- workload-specific checks ------------------------------------------------

TEST(ArraySwap, MultisetPreservedAfterSwaps)
{
    WorkloadParams p = smallParams(200);
    ArraySwapWorkload wl(p);
    runAll(wl);
    EXPECT_TRUE(wl.validate(wl.shadowMem()).ok);
    EXPECT_GT(wl.numItems(), 100u);
}

TEST(ArraySwap, ItemLinesScaleItemSize)
{
    WorkloadParams p = smallParams(10);
    p.itemLines = 4;
    ArraySwapWorkload wl(p);
    wl.setup([](Addr, const void *, unsigned) {});
    EXPECT_EQ(wl.itemAddr(1) - wl.itemAddr(0), 4u * lineBytes);
}

TEST(Queue, PrefilledToSetupFill)
{
    WorkloadParams p = smallParams(0);
    p.setupFill = 0.5;
    QueueWorkload wl(p);
    wl.setup([](Addr, const void *, unsigned) {});
    // The validator checks item content against the FIFO contract.
    EXPECT_TRUE(wl.validate(wl.shadowMem()).ok);
    EXPECT_GT(wl.capacity(), 0u);
}

TEST(Queue, SurvivesFillAndDrainCycles)
{
    WorkloadParams p = smallParams(500);
    p.regionBytes = 64 << 10; // small: forces wrap-around
    p.setupFill = 0.9;
    QueueWorkload wl(p);
    runAll(wl);
    EXPECT_TRUE(wl.validate(wl.shadowMem()).ok);
}

TEST(HashTable, ChainsConsistentAfterInserts)
{
    WorkloadParams p = smallParams(300);
    HashTableWorkload wl(p);
    runAll(wl);
    ValidationResult result = wl.validate(wl.shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST(BTree, InvariantsHoldThroughSplits)
{
    WorkloadParams p = smallParams(400);
    p.setupFill = 0.2;
    BTreeWorkload wl(p);
    runAll(wl);
    ValidationResult result = wl.validate(wl.shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
    EXPECT_GT(wl.keyCount(wl.shadowMem()), 400u);
}

TEST(BTree, KeyCountGrowsWithInserts)
{
    WorkloadParams p = smallParams(50);
    p.setupFill = 0.1;
    BTreeWorkload wl(p);
    wl.setup([](Addr, const void *, unsigned) {});
    std::uint64_t before = wl.keyCount(wl.shadowMem());
    std::vector<Op> ops;
    while (wl.next(ops))
        ops.clear();
    EXPECT_EQ(wl.keyCount(wl.shadowMem()), before + 50);
}

TEST(RbTree, InvariantsHoldThroughRotations)
{
    WorkloadParams p = smallParams(400);
    p.setupFill = 0.2;
    RbTreeWorkload wl(p);
    runAll(wl);
    ValidationResult result = wl.validate(wl.shadowMem());
    EXPECT_TRUE(result.ok) << result.why;
}

TEST(RbTree, DetectsCorruptedColor)
{
    WorkloadParams p = smallParams(50);
    RbTreeWorkload wl(p);
    runAll(wl);
    // The root pointer lives in the meta line directly after the log
    // (RbTreeWorkload::doSetup layout); corrupt the root's color.
    ShadowMem &shadow = wl.shadowMem();
    Addr meta = roundUp(wl.regionBase() + wl.log().sizeBytes(),
                        lineBytes);
    Addr root = shadow.readU64(meta);
    ASSERT_NE(root, 0u);
    shadow.writeU64(root + 32, 0x4242424242424242ull);
    EXPECT_FALSE(wl.validate(shadow).ok);
}

TEST(HashTable, DetectsCorruptedAllocatorCursor)
{
    WorkloadParams p = smallParams(100);
    HashTableWorkload wl(p);
    runAll(wl);
    // The allocator cursor lives in the meta line directly after the
    // undo log (see HashTableWorkload::doSetup layout).
    Addr meta = roundUp(wl.regionBase() + wl.log().sizeBytes(),
                        lineBytes);
    wl.shadowMem().writeU64(meta, wl.regionEnd() + 0x1001); // garbage
    EXPECT_FALSE(wl.validate(wl.shadowMem()).ok);
}

} // anonymous namespace
} // namespace cnvm
