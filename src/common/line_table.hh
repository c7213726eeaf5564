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
 * Copies are copy-on-write snapshots. Pages are shared between a
 * table and its copies through an intrusive atomic reference count,
 * so a copy costs one pointer per page; every non-const call that
 * reaches a page (operator[], tryEmplace, non-const find, erase)
 * first clones it if another table still holds it, with the semantics
 * of Rust's Arc::make_mut. Neither a table nor its copy ever sees the
 * other's writes, and a table written after a copy pays one page
 * clone per page it touches, not per page it holds.
 *
 * Thread safety: const member functions read only, so any number of
 * threads may look up and iterate a table nobody is mutating. Every
 * non-const call may allocate a page or a chunk and so needs exclusive
 * access to *its* table. Distinct tables that share pages may be used
 * from different threads: readers of one copy never see the writes of
 * another, and the last holder to release a page frees it.
 */

#ifndef CNVM_COMMON_LINE_TABLE_HH
#define CNVM_COMMON_LINE_TABLE_HH

#include <algorithm>
#include <array>
#include <atomic>
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

    /** Shares every page of @p other; see the file comment. */
    LineTable(const LineTable &other) : count(other.count)
    {
        dir.reserve(other.dir.size());
        for (const DirEntry &e : other.dir)
            dir.push_back({e.number, std::make_unique<Chunk>(*e.chunk)});
    }

    LineTable &
    operator=(const LineTable &other)
    {
        if (this != &other)
            *this = LineTable(other);
        return *this;
    }

    /** The record at @p key, or nullptr when absent. */
    const T *
    find(Key key) const
    {
        const PageRef *ref = refOf(key / pageSlots);
        const unsigned slot = key % pageSlots;
        if (ref == nullptr || !(ref->get()->present >> slot & 1))
            return nullptr;
        return &ref->get()->slots[slot];
    }

    /** Mutable twin of find(): unshares the record's page first. */
    T *
    find(Key key)
    {
        PageRef *ref = refOf(key / pageSlots);
        const unsigned slot = key % pageSlots;
        if (ref == nullptr || !(ref->get()->present >> slot & 1))
            return nullptr;
        return &ref->mut().slots[slot];
    }

    /**
     * The record at @p key, value-initialized first when absent.
     * The reference stays valid until the key is erased or the table
     * cleared: pages never move. Do not write through it once the
     * table has been copied, though — the copy shares the page until
     * the next non-const call clones it.
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
        PageRef *ref = refOf(key / pageSlots);
        const std::uint64_t bit = std::uint64_t(1) << (key % pageSlots);
        if (ref == nullptr || !(ref->get()->present & bit))
            return false;
        ref->mut().present &= ~bit;
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
        forEachInRange(0, ~Key(0), fn);
    }

    /** Visits the records with @p first <= key <= @p last as
     *  fn(key, value), in ascending key order. */
    template <typename Fn>
    void
    forEachInRange(Key first, Key last, Fn &&fn) const
    {
        forEachMasked(first, last, [](Key) { return ~std::uint64_t(0); },
                      fn);
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
            0, ~Key(0),
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
        /** Tables holding this page; 1 means the holder may write. */
        std::atomic<std::uint32_t> refs{1};
        std::uint64_t present = 0;
        std::array<T, pageSlots> slots{};

        Page() = default;
        Page(const Page &other)
            : present(other.present), slots(other.slots)
        {
        }
    };

    /** An owning, intrusively counted pointer to a shared page. */
    class PageRef
    {
      public:
        PageRef() = default;
        explicit PageRef(Page *page) : page(page) {}
        PageRef(const PageRef &other) : page(other.page)
        {
            // A new holder is made only from an existing one, so the
            // count cannot reach zero meanwhile: relaxed suffices.
            if (page != nullptr)
                page->refs.fetch_add(1, std::memory_order_relaxed);
        }
        PageRef(PageRef &&other) noexcept
            : page(std::exchange(other.page, nullptr))
        {
        }
        PageRef &
        operator=(PageRef other) noexcept
        {
            std::swap(page, other.page);
            return *this;
        }
        ~PageRef()
        {
            // Release publishes this holder's reads and writes; the
            // last holder's acquire orders every other holder's before
            // the delete. (One acq_rel RMW rather than a release
            // decrement plus an acquire fence: ThreadSanitizer does
            // not model fences.)
            if (page != nullptr
                && page->refs.fetch_sub(1, std::memory_order_acq_rel)
                       == 1)
                delete page;
        }

        const Page *get() const { return page; }
        explicit operator bool() const { return page != nullptr; }

        /**
         * The page, writable: cloned first unless this is its only
         * holder. The acquire load pairs with the release decrement
         * of a holder on another thread, so its last reads happen
         * before the writes that follow.
         */
        Page &
        mut()
        {
            if (page->refs.load(std::memory_order_acquire) != 1)
                *this = PageRef(new Page(*page));
            return *page;
        }

      private:
        Page *page = nullptr;
    };

    struct Chunk
    {
        std::array<PageRef, chunkPages> pages;
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

    /** The holder of the page numbered @p page_no, or nullptr when
     *  that page was never allocated. Chunks are owned through
     *  pointers, so a const table still yields it mutable; only the
     *  non-const members hand that on. */
    PageRef *
    refOf(Key page_no) const
    {
        auto it = lowerBound(page_no / chunkPages);
        if (it == dir.end() || it->number != page_no / chunkPages)
            return nullptr;
        PageRef &ref = it->chunk->pages[page_no % chunkPages];
        return ref ? &ref : nullptr;
    }

    /** The page numbered @p page_no, writable, allocated when absent. */
    Page &
    pageFor(Key page_no)
    {
        const Key number = page_no / chunkPages;
        auto it = lowerBound(number);
        if (it == dir.end() || it->number != number)
            it = dir.insert(it, {number, std::make_unique<Chunk>()});
        PageRef &ref = it->chunk->pages[page_no % chunkPages];
        if (!ref)
            ref = PageRef(new Page);
        return ref.mut();
    }

    /** Visits the records with @p first <= key <= @p last of each
     *  page whose slots are set in both the presence bitmap and
     *  mask_of(first key of the page). */
    template <typename MaskFn, typename Fn>
    void
    forEachMasked(Key first, Key last, MaskFn mask_of, Fn &fn) const
    {
        constexpr Key chunkKeys = Key(chunkPages) * pageSlots;
        for (auto e = lowerBound(first / chunkKeys);
             e != dir.end() && e->number <= last / chunkKeys; ++e) {
            for (unsigned p = 0; p < chunkPages; ++p) {
                const Page *page = e->chunk->pages[p].get();
                if (page == nullptr)
                    continue;
                const Key base = (e->number * chunkPages + p) * pageSlots;
                if (base > last)
                    return;
                if (base + (pageSlots - 1) < first)
                    continue;
                std::uint64_t bits = page->present & mask_of(base);
                if (first > base)
                    bits &= ~std::uint64_t(0) << (first - base);
                if (last - base < pageSlots - 1)
                    bits &= ~(~std::uint64_t(0) << (last - base + 1));
                for (; bits != 0; bits &= bits - 1) {
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
