#include "integrity/integrity_tree.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "nvm/persist_image.hh"

namespace cnvm
{

std::uint64_t
treeSlotHash(std::uint64_t counter)
{
    return fnv1aU64(counter);
}

std::uint64_t
treeCombine(const std::uint64_t children[treeArity])
{
    std::uint64_t state = fnvOffsetBasis;
    for (unsigned c = 0; c < treeArity; ++c)
        state = fnv1aU64(children[c], state);
    return state;
}

std::uint64_t
treeZeroHash(unsigned level)
{
    cnvm_assert(level <= treeRootLevel);
    // A tiny table, but recomputing it per call would still be cheap;
    // memoization keeps the hot per-line checks allocation-free.
    static const auto table = [] {
        std::array<std::uint64_t, treeRootLevel + 1> t{};
        t[0] = treeSlotHash(0);
        for (unsigned l = 1; l <= treeRootLevel; ++l) {
            std::uint64_t children[treeArity];
            for (unsigned c = 0; c < treeArity; ++c)
                children[c] = t[l - 1];
            t[l] = treeCombine(children);
        }
        return t;
    }();
    return table[level];
}

namespace
{

/** One tree level: (index, hash) nodes in ascending index order. */
using TreeLevel = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/**
 * One 8-ary reduction step, in place: replaces @p level's nodes with
 * their parents, absent children standing in for their zero hash. The
 * nodes stay in index order, which keeps the grouping (and hence every
 * caller's write order) deterministic. Each parent consumes at least
 * one child, so it never overwrites a child still to be read.
 */
void
reduceLevel(TreeLevel &level, unsigned level_no)
{
    std::size_t out = 0;
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
        level[out++] = {parent, treeCombine(children)};
    }
    level.resize(out);
}

/** Level-1 hash of one persisted counter line. */
std::uint64_t
counterLineHash(const CounterLine &values)
{
    std::uint64_t slots[treeArity];
    static_assert(countersPerLine == treeArity);
    for (unsigned s = 0; s < countersPerLine; ++s)
        slots[s] = treeSlotHash(values[s]);
    return treeCombine(slots);
}

} // anonymous namespace

std::uint64_t
computeTreeRoot(const PersistSource &src, Addr counter_region_base)
{
    const std::vector<Addr> addrs = src.counterLineAddrs();
    TreeLevel level;
    level.reserve(addrs.size());
    for (Addr addr : addrs) {
        cnvm_assert(addr >= counter_region_base);
        const std::uint64_t index = (addr - counter_region_base)
            / lineBytes;
        level.emplace_back(index,
                           counterLineHash(src.persistedCounters(addr)));
    }
    for (unsigned l = 1; l < treeRootLevel; ++l)
        reduceLevel(level, l);
    if (level.empty())
        return treeZeroHash(treeRootLevel);
    cnvm_assert(level.size() == 1 && level.front().first == 0);
    return level.front().second;
}

std::uint64_t
rebuildTree(PersistImage &img, Addr counter_region_base, Addr ctr_lo,
            Addr ctr_hi, const std::function<void()> &leaf_visited)
{
    // Phase 1 — the region's leaves, from the store itself: per-slot
    // level-0 nodes plus the level-1 counter-block node, one counter
    // line at a time in address order. Each line is an interruption
    // point for the recovery-crash sweep.
    img.counterLines().forEach(
        [&](std::uint64_t key, const CounterLine &values) {
            const Addr addr = key * lineBytes;
            if (addr < ctr_lo || addr >= ctr_hi)
                return;
            cnvm_assert(addr >= counter_region_base);
            const std::uint64_t index = (addr - counter_region_base)
                / lineBytes;
            std::uint64_t slots[treeArity];
            for (unsigned s = 0; s < countersPerLine; ++s) {
                slots[s] = treeSlotHash(values[s]);
                img.drainTreeNode(0, index * countersPerLine + s,
                                  slots[s]);
            }
            img.drainTreeNode(1, index, treeCombine(slots));
            if (leaf_visited)
                leaf_visited();
        });

    // Phase 2 — the interior, from the *persisted* level-1 nodes (not
    // the store): leaves outside [ctr_lo, ctr_hi) keep whatever was
    // persisted for them, so a regional rebuild cannot bless another
    // region's not-yet-recovered replay evidence. Each level above is
    // reduced from the one just computed, never read back.
    TreeLevel level;
    for (std::uint64_t index : img.persistedTreeLeafIndices())
        level.emplace_back(index, *img.persistedTreeNode(1, index));
    for (unsigned l = 1; l < treeRootLevel; ++l) {
        reduceLevel(level, l);
        if (l + 1 < treeRootLevel)
            for (const auto &[index, hash] : level)
                img.drainTreeNode(l + 1, index, hash);
    }
    const std::uint64_t root = level.empty()
        ? treeZeroHash(treeRootLevel)
        : level.front().second;

    // The root is written strictly last: an interrupted rebuild leaves
    // the stale root in place, so the next attempt still sees the
    // mismatch and re-runs the reconstruction.
    img.drainTreeRoot(root);
    return root;
}

std::optional<std::uint64_t>
repairCounterWindow(std::uint64_t stored, std::uint64_t window,
                    const std::function<bool(std::uint64_t)> &verifies,
                    const std::function<bool(std::uint64_t)> &confirms)
{
    const std::uint64_t up =
        std::min<std::uint64_t>(window, ~std::uint64_t(0) - stored);
    const std::uint64_t down = std::min<std::uint64_t>(window, stored);

    // Nearest-first, +d before -d — the order the single-match case
    // has always used, now collecting *all* matches instead of
    // stopping at the first.
    std::vector<std::uint64_t> matches;
    for (std::uint64_t d = 1; d <= std::max(up, down); ++d) {
        if (d <= up && verifies(stored + d))
            matches.push_back(stored + d);
        if (d <= down && verifies(stored - d))
            matches.push_back(stored - d);
    }

    if (matches.empty())
        return std::nullopt;
    if (matches.size() == 1)
        return matches.front();
    if (confirms)
        for (std::uint64_t candidate : matches)
            if (confirms(candidate))
                return candidate;
    return std::nullopt; // ambiguous: quarantine beats guessing
}

} // namespace cnvm
