/**
 * @file
 * A sparse, address-ordered table of per-line records.
 *
 * The simulator keeps state for every touched line of a region that
 * is dense in practice (a workload's region, its counter lines) but
 * sits at arbitrary offsets in a 64-bit address space. LineTable
 * stores that state in fixed pages of 64 slots, each with a presence
 * bitmap, behind a two-level page directory: a short sorted list of
 * directory chunks, each a flat array of page pointers. A lookup is a
 * binary search over the chunks plus two array indexes, a page holds
 * 64 neighbouring records contiguously, and iteration walks slots in
 * key order with no sort.
 *
 * Keys are line *indices* (an address divided by lineBytes, or any
 * other dense numbering the caller picks), not byte addresses.
 *
 * Thread safety: const member functions read only, so any number of
 * threads may look up and iterate a table nobody is mutating. Every
 * non-const call may allocate a page or a chunk and so needs exclusive
 * access. A copy is deep and independent of its source.
 */

#ifndef CNVM_COMMON_LINE_TABLE_HH
#define CNVM_COMMON_LINE_TABLE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace cnvm
{

template <typename T>
class LineTable
{
  public:
    using Key = std::uint64_t;

    /** Slots per page (one presence bit each). */
    static constexpr unsigned pageSlots = 64;

    /** Page pointers per directory chunk: 32768 slots per chunk. */
    static constexpr unsigned chunkPages = 512;

    LineTable() = default;
    LineTable(LineTable &&) noexcept = default;
    LineTable &operator=(LineTable &&) noexcept = default;

    LineTable(const LineTable &other) : count(other.count)
    {
        dir.reserve(other.dir.size());
        for (const DirEntry &e : other.dir) {
            auto chunk = std::make_unique<Chunk>();
            for (unsigned p = 0; p < chunkPages; ++p)
                if (e.chunk->pages[p])
                    chunk->pages[p] =
                        std::make_unique<Page>(*e.chunk->pages[p]);
            dir.push_back({e.number, std::move(chunk)});
        }
    }

    LineTable &
    operator=(const LineTable &other)
    {
        if (this != &other)
            *this = LineTable(other);
        return *this;
    }

    /** The record at @p key, or nullptr when absent. */
    const T *find(Key key) const { return slotOf(key); }
    T *find(Key key) { return slotOf(key); }

    /**
     * The record at @p key, value-initialized first when absent.
     * The reference stays valid until the key is erased or the table
     * cleared: pages never move.
     */
    T &
    operator[](Key key)
    {
        return tryEmplace(key).first;
    }

    /**
     * Inserts a value-initialized record at @p key when absent.
     * Returns the record and whether it was inserted.
     */
    std::pair<T &, bool>
    tryEmplace(Key key)
    {
        Page &page = pageFor(key / pageSlots);
        const unsigned slot = key % pageSlots;
        const std::uint64_t bit = std::uint64_t(1) << slot;
        if (page.present & bit)
            return {page.slots[slot], false};
        page.present |= bit;
        page.slots[slot] = T{};
        ++count;
        return {page.slots[slot], true};
    }

    /**
     * Removes the record at @p key; returns whether one was there.
     * The page stays allocated until clear().
     */
    bool
    erase(Key key)
    {
        Page *page = findPage(key / pageSlots);
        const std::uint64_t bit = std::uint64_t(1) << (key % pageSlots);
        if (page == nullptr || !(page->present & bit))
            return false;
        page->present &= ~bit;
        --count;
        return true;
    }

    void
    clear()
    {
        dir.clear();
        count = 0;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Visits every record as fn(key, value), in ascending key order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        forEachMasked([](Key) { return ~std::uint64_t(0); }, fn);
    }

    /**
     * Visits, in ascending key order, only the records whose key is
     * congruent to @p residue modulo @p stride (a power of two).
     * Other residue classes cost one mask per page, not one probe per
     * slot.
     */
    template <typename Fn>
    void
    forEachStrided(Key stride, Key residue, Fn &&fn) const
    {
        cnvm_assert(stride != 0 && (stride & (stride - 1)) == 0);
        // Page bases are multiples of pageSlots, so the first matching
        // slot of a page is (residue - base) mod stride.
        forEachMasked(
            [stride, residue](Key base) {
                std::uint64_t mask = 0;
                for (Key s = (residue - base) & (stride - 1); s < pageSlots;
                     s += stride)
                    mask |= std::uint64_t(1) << s;
                return mask;
            },
            fn);
    }

  private:
    struct Page
    {
        std::uint64_t present = 0;
        std::array<T, pageSlots> slots{};
    };

    struct Chunk
    {
        std::array<std::unique_ptr<Page>, chunkPages> pages;
    };

    struct DirEntry
    {
        Key number; //!< page number / chunkPages
        std::unique_ptr<Chunk> chunk;
    };

    /** Directory chunks, sorted by number. */
    std::vector<DirEntry> dir;
    std::size_t count = 0;

    typename std::vector<DirEntry>::const_iterator
    lowerBound(Key number) const
    {
        return std::lower_bound(
            dir.begin(), dir.end(), number,
            [](const DirEntry &e, Key n) { return e.number < n; });
    }

    /** The page numbered @p page_no, or nullptr. Pages are owned
     *  through pointers, so a const table still yields them mutable;
     *  only the non-const members hand that on. */
    Page *
    findPage(Key page_no) const
    {
        auto it = lowerBound(page_no / chunkPages);
        if (it == dir.end() || it->number != page_no / chunkPages)
            return nullptr;
        return it->chunk->pages[page_no % chunkPages].get();
    }

    T *
    slotOf(Key key) const
    {
        Page *page = findPage(key / pageSlots);
        const unsigned slot = key % pageSlots;
        if (page == nullptr || !(page->present >> slot & 1))
            return nullptr;
        return &page->slots[slot];
    }

    /** The page numbered @p page_no, allocated when absent. */
    Page &
    pageFor(Key page_no)
    {
        const Key number = page_no / chunkPages;
        auto it = lowerBound(number);
        if (it == dir.end() || it->number != number)
            it = dir.insert(it, {number, std::make_unique<Chunk>()});
        std::unique_ptr<Page> &page = it->chunk->pages[page_no % chunkPages];
        if (!page)
            page = std::make_unique<Page>();
        return *page;
    }

    /** Visits the records of each page whose slots are set in both
     *  the presence bitmap and mask_of(first key of the page). */
    template <typename MaskFn, typename Fn>
    void
    forEachMasked(MaskFn mask_of, Fn &fn) const
    {
        for (const DirEntry &e : dir) {
            for (unsigned p = 0; p < chunkPages; ++p) {
                const Page *page = e.chunk->pages[p].get();
                if (page == nullptr)
                    continue;
                const Key base = (e.number * chunkPages + p) * pageSlots;
                for (std::uint64_t bits = page->present & mask_of(base);
                     bits != 0; bits &= bits - 1) {
                    const unsigned slot =
                        static_cast<unsigned>(__builtin_ctzll(bits));
                    fn(base + slot, page->slots[slot]);
                }
            }
        }
    }
};

} // namespace cnvm

#endif // CNVM_COMMON_LINE_TABLE_HH
