/**
 * @file
 * Unit tests for LineTable: a seeded randomized differential test
 * against a std::map reference, a copy-on-write differential test
 * over a table and two generations of copies, copy independence,
 * range and strided iteration, and concurrent const lookups — also
 * while the owner of a shared page writes it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/line_table.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace cnvm
{
namespace
{

using Table = LineTable<std::uint64_t>;
using Reference = std::map<std::uint64_t, std::uint64_t>;

/** Every (key, value) of @p table, in the order forEach visits. */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
contents(const Table &table)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    table.forEach([&out](std::uint64_t key, std::uint64_t value) {
        out.emplace_back(key, value);
    });
    return out;
}

/** Asserts @p table holds exactly @p ref, visited in key order. */
void
expectMatches(const Table &table, const Reference &ref)
{
    ASSERT_EQ(table.size(), ref.size());
    EXPECT_EQ(table.empty(), ref.empty());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want(ref.begin(),
                                                              ref.end());
    ASSERT_EQ(contents(table), want);
    for (const auto &[key, value] : ref) {
        const std::uint64_t *found = table.find(key);
        ASSERT_NE(found, nullptr) << key;
        EXPECT_EQ(*found, value) << key;
    }
}

/**
 * A key drawn from a few clustered bands — dense runs that fill pages,
 * sparse ones that leave them partly filled, and page/chunk edges —
 * spread over the whole 64-bit key space.
 */
std::uint64_t
drawKey(Random &rng)
{
    static const std::uint64_t bases[] = {
        0, Table::pageSlots * Table::chunkPages - 3,
        std::uint64_t(1) << 27, std::uint64_t(1) << 40,
        ~std::uint64_t(0) - 200};
    const std::uint64_t base = bases[rng.below(std::size(bases))];
    switch (rng.below(3)) {
      case 0:
        return base + rng.below(8);     // hot, within one page
      case 1:
        return base + rng.below(200);   // spans page boundaries
      default:
        return base + rng.below(1u << 17) * 7; // sparse, several chunks
    }
}

TEST(LineTable, RandomizedAgainstMap)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(seed);
        Random rng(seed);
        Table table;
        Reference ref;
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t key = drawKey(rng);
            switch (rng.below(10)) {
              case 0:
              case 1:
              case 2:
              case 3: { // store through operator[]
                const std::uint64_t value = rng.next();
                table[key] = value;
                ref[key] = value;
                break;
              }
              case 4: { // tryEmplace never overwrites
                auto [value, inserted] = table.tryEmplace(key);
                ASSERT_EQ(inserted, ref.count(key) == 0);
                if (inserted) {
                    EXPECT_EQ(value, 0u);
                    ref[key] = 0;
                }
                EXPECT_EQ(value, ref[key]);
                break;
              }
              case 5:
              case 6:
                ASSERT_EQ(table.erase(key), ref.erase(key) == 1);
                break;
              default: { // lookup
                const std::uint64_t *found = std::as_const(table).find(key);
                auto it = ref.find(key);
                ASSERT_EQ(found != nullptr, it != ref.end());
                if (found != nullptr) {
                    EXPECT_EQ(*found, it->second);
                }
                break;
              }
            }
            ASSERT_EQ(table.size(), ref.size());
            if (op % 4000 == 3999)
                expectMatches(table, ref);
        }
        expectMatches(table, ref);
        table.clear();
        ref.clear();
        expectMatches(table, ref);
        EXPECT_EQ(table.find(0), nullptr);
    }
}

TEST(LineTable, ErasedSlotReadsValueInitializedOnReinsert)
{
    Table table;
    table[5] = 42;
    table[6] = 43;
    ASSERT_TRUE(table.erase(5));
    EXPECT_FALSE(table.erase(5));
    EXPECT_EQ(table.find(5), nullptr);
    EXPECT_EQ(table[5], 0u);
    // Emptying a page and refilling it starts from zeros too.
    ASSERT_TRUE(table.erase(5));
    ASSERT_TRUE(table.erase(6));
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table[6], 0u);
    EXPECT_EQ(table.size(), 1u);
}

TEST(LineTable, PartlyFilledPagesIterateInKeyOrder)
{
    Table table;
    // Inserted out of order, across three pages of two chunks, none
    // of them full.
    const std::uint64_t last_chunk_key =
        Table::pageSlots * Table::chunkPages + 1;
    for (std::uint64_t key : {last_chunk_key, std::uint64_t(70),
                              std::uint64_t(63), std::uint64_t(0),
                              std::uint64_t(64)})
        table[key] = key * 10;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
        {0, 0}, {63, 630}, {64, 640}, {70, 700},
        {last_chunk_key, last_chunk_key * 10}};
    EXPECT_EQ(contents(table), want);
}

TEST(LineTable, CopiesAreIndependent)
{
    Random rng(11);
    Table original;
    Reference ref;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = drawKey(rng);
        original[key] = ref[key] = rng.next();
    }
    Table copy(original);
    Table assigned;
    assigned[1] = 1;
    assigned = original;
    expectMatches(copy, ref);
    expectMatches(assigned, ref);

    // Mutating the copies leaves the original untouched, and back.
    const std::uint64_t some_key = ref.begin()->first;
    copy[some_key] ^= 1;
    copy.erase(std::prev(ref.end())->first);
    copy[123456789] = 7;
    assigned.clear();
    expectMatches(original, ref);
    original[987654321] = 9;
    EXPECT_EQ(copy.find(987654321), nullptr);
    EXPECT_EQ(assigned.find(987654321), nullptr);

    // A moved-from table's contents arrive intact.
    Table moved(std::move(original));
    ref[987654321] = 9;
    expectMatches(moved, ref);
}

/** Applies one random operation to @p table and its reference. */
void
randomOp(Random &rng, Table &table, Reference &ref)
{
    const std::uint64_t key = drawKey(rng);
    switch (rng.below(6)) {
      case 0:
      case 1: { // store through operator[]
        const std::uint64_t value = rng.next();
        table[key] = value;
        ref[key] = value;
        break;
      }
      case 2: { // write through tryEmplace
        auto [value, inserted] = table.tryEmplace(key);
        ASSERT_EQ(inserted, ref.count(key) == 0);
        value += 3;
        ref[key] += 3;
        break;
      }
      case 3: { // write through the mutable find
        std::uint64_t *found = table.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
            *found ^= 0x5a;
            it->second ^= 0x5a;
        }
        break;
      }
      default:
        ASSERT_EQ(table.erase(key), ref.erase(key) == 1);
        break;
    }
}

TEST(LineTable, CopyOnWriteGenerationsAgainstMaps)
{
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        SCOPED_TRACE(seed);
        Random rng(seed);
        Table original;
        Reference original_ref;
        for (int op = 0; op < 3000; ++op)
            randomOp(rng, original, original_ref);

        // Three tables sharing every page; each then diverges under
        // its own random operations, interleaved so each write may
        // land on a page one or both of the others still hold.
        Table copy(original);
        Reference copy_ref = original_ref;
        Table grandchild;
        grandchild = copy;
        Reference grandchild_ref = copy_ref;
        Table *tables[] = {&original, &copy, &grandchild};
        Reference *refs[] = {&original_ref, &copy_ref, &grandchild_ref};
        for (int op = 0; op < 12000; ++op) {
            const std::size_t t = rng.below(3);
            randomOp(rng, *tables[t], *refs[t]);
            if (op % 3000 == 2999)
                for (std::size_t u = 0; u < 3; ++u)
                    expectMatches(*tables[u], *refs[u]);
            // Now and then a table is re-shared from another.
            if (op % 4000 == 1234) {
                const std::size_t from = (t + 1) % 3;
                *tables[t] = *tables[from];
                *refs[t] = *refs[from];
            }
        }
        for (std::size_t u = 0; u < 3; ++u)
            expectMatches(*tables[u], *refs[u]);

        // A table outliving the ones it was copied from keeps its
        // contents when they go away.
        original.clear();
        copy = Table();
        expectMatches(grandchild, grandchild_ref);
    }
}

TEST(LineTable, RangeVisitsInclusiveBoundsInOrder)
{
    Random rng(9);
    Table table;
    Reference ref;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = drawKey(rng);
        table[key] = ref[key] = rng.next();
    }
    const std::uint64_t chunk_keys =
        std::uint64_t(Table::pageSlots) * Table::chunkPages;
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, ~std::uint64_t(0)}, {0, 0}, {5, 5}, {3, 130},
        {64, 127}, {chunk_keys - 10, chunk_keys + 10},
        {std::uint64_t(1) << 27, (std::uint64_t(1) << 40) + 50},
        {~std::uint64_t(0) - 100, ~std::uint64_t(0)}, {200, 100}};
    for (const auto &[first, last] : ranges) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
        for (const auto &[key, value] : ref)
            if (key >= first && key <= last)
                want.emplace_back(key, value);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
        table.forEachInRange(first, last,
                             [&got](std::uint64_t k, std::uint64_t v) {
                                 got.emplace_back(k, v);
                             });
        EXPECT_EQ(got, want) << "[" << first << ", " << last << "]";
    }
}

TEST(LineTable, StridedVisitsOneResidueClassInOrder)
{
    Random rng(5);
    Table table;
    Reference ref;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = drawKey(rng);
        table[key] = ref[key] = rng.next();
    }
    for (std::uint64_t stride : {1u, 2u, 8u, 64u, 128u, 1024u}) {
        for (std::uint64_t residue : {std::uint64_t(0), stride - 1,
                                      stride / 2, stride + 3}) {
            std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
            for (const auto &[key, value] : ref)
                if (key % stride == residue % stride)
                    want.emplace_back(key, value);
            std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
            table.forEachStrided(stride, residue,
                                 [&got](std::uint64_t k, std::uint64_t v) {
                                     got.emplace_back(k, v);
                                 });
            EXPECT_EQ(got, want) << "stride " << stride << " residue "
                                 << residue;
        }
    }
}

TEST(LineTable, HoldsWholeLineRecords)
{
    LineTable<LineData> lines;
    LineData data{};
    data[0] = 1;
    data[lineBytes - 1] = 2;
    LineData &slot = lines[0x1000 / lineBytes];
    slot = data;
    // References stay valid while other pages and chunks are added.
    for (std::uint64_t k = 0; k < 100000; k += 37)
        lines[k * 1000];
    EXPECT_EQ(slot, data);
    EXPECT_EQ(*lines.find(0x1000 / lineBytes), data);
}

TEST(LineTable, ConcurrentConstLookups)
{
    Random rng(17);
    Table table;
    Reference ref;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = drawKey(rng);
        table[key] = ref[key] = rng.next();
    }
    const Table &shared = table;
    std::vector<std::vector<std::uint64_t>> probes(4);
    for (unsigned t = 0; t < probes.size(); ++t) {
        Random probe_rng(100 + t);
        for (int i = 0; i < 20000; ++i)
            probes[t].push_back(drawKey(probe_rng));
    }
    std::vector<std::uint64_t> hits(probes.size(), 0);
    std::vector<std::uint64_t> sums(probes.size(), 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < probes.size(); ++t) {
        threads.emplace_back([&, t]() {
            for (std::uint64_t key : probes[t]) {
                if (const std::uint64_t *v = shared.find(key)) {
                    ++hits[t];
                    sums[t] += *v;
                }
            }
            shared.forEach([&](std::uint64_t, std::uint64_t v) {
                sums[t] += v;
            });
        });
    }
    for (std::thread &th : threads)
        th.join();

    std::uint64_t all = 0;
    for (const auto &[key, value] : ref)
        all += value;
    for (unsigned t = 0; t < probes.size(); ++t) {
        std::uint64_t want_hits = 0;
        std::uint64_t want_sum = all;
        for (std::uint64_t key : probes[t]) {
            auto it = ref.find(key);
            if (it != ref.end()) {
                ++want_hits;
                want_sum += it->second;
            }
        }
        EXPECT_EQ(hits[t], want_hits);
        EXPECT_EQ(sums[t], want_sum);
    }
    expectMatches(table, ref);
}

TEST(LineTable, ReadersOfACopyRaceNoWritesOfTheOriginal)
{
    // Fork-capture shape: worker threads read (and finally release)
    // their copies while the owner keeps writing the pages those
    // copies share. Under TSan any write to a still-shared page, or a
    // free that is not ordered after the readers, is a reported race.
    Random rng(31);
    Table owner;
    Reference owner_ref;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t key = drawKey(rng);
        owner[key] = owner_ref[key] = rng.next();
    }

    constexpr unsigned readers = 3;
    std::vector<std::uint64_t> want_sums;
    std::vector<std::uint64_t> sums(readers, 0);
    std::vector<std::thread> threads;
    for (unsigned r = 0; r < readers; ++r) {
        std::uint64_t want = 0;
        for (const auto &[key, value] : owner_ref)
            want += value;
        want_sums.push_back(want * 4);
        auto snapshot = std::make_unique<Table>(owner);
        threads.emplace_back(
            [&sums, r, snapshot = std::move(snapshot)]() mutable {
                for (int pass = 0; pass < 4; ++pass)
                    snapshot->forEach([&](std::uint64_t, std::uint64_t v) {
                        sums[r] += v;
                    });
                snapshot.reset(); // released on the reader thread
            });
        // The owner writes while the reader iterates.
        for (int op = 0; op < 3000; ++op)
            randomOp(rng, owner, owner_ref);
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned r = 0; r < readers; ++r)
        EXPECT_EQ(sums[r], want_sums[r]) << "reader " << r;
    expectMatches(owner, owner_ref);
}

} // namespace
} // namespace cnvm
