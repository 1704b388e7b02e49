/**
 * @file
 * Stride-based hardware prefetcher modeled on the IBM Power4/Power5
 * implementation the paper uses (Section 2, Table 1):
 *
 *  - three 32-entry filter tables: positive unit stride, negative unit
 *    stride, and non-unit stride;
 *  - a filter entry that observes 4 fixed-stride misses allocates one
 *    of 8 stream-table entries;
 *  - on allocation the stream launches a burst of startup prefetches
 *    (6 for L1 prefetchers, 25 for L2 prefetchers, "at most" under the
 *    adaptive scheme);
 *  - thereafter each use of a prefetched block advances the stream by
 *    one line, maintaining the startup depth ahead of the demand
 *    stream.
 *
 * The prefetcher sees only miss/use addresses (line granularity) —
 * exactly the information the hardware has.
 */

#ifndef CMPSIM_PREFETCH_STRIDE_PREFETCHER_H
#define CMPSIM_PREFETCH_STRIDE_PREFETCHER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace cmpsim {

/** Largest startup burst a prefetcher may be configured with. */
inline constexpr unsigned kMaxStartupPrefetches = 32;

/**
 * Line addresses one observeMiss()/observeUse() asks to prefetch,
 * held inline (a call emits at most one startup burst). Supports
 * size(), indexing and range-for like the std::vector it replaces.
 */
class PrefetchList
{
  public:
    PrefetchList() {} // leaves the address storage uninitialized

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    Addr operator[](std::size_t i) const { return items_[i]; }
    Addr back() const { return items_[count_ - 1]; }
    const Addr *begin() const { return items_; }
    const Addr *end() const { return items_ + count_; }

    void
    push_back(Addr a)
    {
        cmpsim_assert(count_ < kMaxStartupPrefetches,
                      "prefetch list overflow");
        items_[count_++] = a;
    }

  private:
    unsigned count_ = 0;
    // A union member is copied as raw bytes, so copying a list never
    // reads the unused tail as values.
    union
    {
        Addr items_[kMaxStartupPrefetches];
    };
};

/** Static configuration of one prefetcher instance. */
struct PrefetcherParams
{
    /** Entries per filter table (three tables). */
    unsigned filter_entries = 32;

    /** Stream-table entries. */
    unsigned stream_entries = 8;

    /** Fixed-stride misses required to allocate a stream. */
    unsigned train_count = 4;

    /** Startup prefetches per new stream (6 for L1, 25 for L2); at
     *  most kMaxStartupPrefetches. */
    unsigned startup_prefetches = 6;

    /** Largest |stride| (in lines) the non-unit table learns. */
    int max_stride = 32;

    /**
     * Lines per OS page (0 disables). Hardware prefetchers operate on
     * physical addresses and cannot follow a stream across a page
     * boundary, so bursts and advances stop at page edges (Power4
     * behaviour). 8 KB pages = 128 lines.
     */
    std::uint64_t page_lines = 128;
};

/** One Power4-style stride prefetch engine. */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(const PrefetcherParams &params);

    /**
     * Observe a demand miss at line address @p line_addr.
     * @param startup_limit at most this many startup prefetches for a
     *        newly allocated stream (the adaptive counter value);
     *        0 disables stream allocation and prefetch issue.
     * @return line addresses to prefetch now.
     */
    PrefetchList observeMiss(Addr line_addr, unsigned startup_limit);

    /**
     * Observe the first demand use of a prefetched block (a "prefetch
     * hit"); the owning stream advances one line.
     * @return line addresses to prefetch now.
     */
    PrefetchList observeUse(Addr line_addr, unsigned startup_limit);

    const PrefetcherParams &params() const { return params_; }

    std::uint64_t streamsAllocated() const { return streams_alloc_.value(); }
    std::uint64_t prefetchesGenerated() const { return generated_.value(); }

    void registerStats(StatRegistry &reg, const std::string &prefix);
    void resetStats();

    /** Drop all learned state (filter and stream tables). */
    void clear();

    /**
     * True when a line @p delta lines past a stream's demand head lies
     * in the stream's prefetched window: on the @p stride lattice,
     * 1..(@p span / @p stride) steps ahead, where @p span is the
     * prefetch head's distance from the demand head. @pre stride != 0.
     */
    static bool streamCovers(std::int64_t delta, std::int64_t stride,
                             std::int64_t span);

  private:
    friend class CheckpointCodec; // serializes filter/stream tables

    struct FilterEntry
    {
        std::int64_t last_line = 0;
        std::int64_t stride = 0; // +1 / -1 / non-unit
        unsigned count = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    struct StreamEntry
    {
        std::int64_t next_pf = 0;      // next line to prefetch
        std::int64_t stride = 0;
        std::int64_t last_demand = 0;  // stream head (demand side)
        std::uint64_t lru = 0;
        bool valid = false;
    };

    /**
     * One filter table with O(1) match and victim choice. entries is
     * the checkpointed state; the rest is an index over it that
     * reindex() rebuilds (DESIGN.md §7):
     *  - a key per entry, the line it matches next (last_line + its
     *    stride) or kNoKey, so matching is one branch-free compare
     *    per entry;
     *  - a bitmask of the invalid entries and a recency list of the
     *    valid ones ordered by (lru, index), so the victim is the
     *    lowest-index invalid entry, else the list's LRU end.
     * observeMiss() stamps at most one entry per table per tick, so
     * valid stamps within a table are unique and this is exactly
     * "first invalid, else first entry with the least lru".
     */
    class FilterTable
    {
      public:
        /** @param match_stride +1 or -1 for a unit table, 0 when each
         *  entry matches with its own learned stride. */
        FilterTable(unsigned size, std::int64_t match_stride);

        /** The stride entry @p i matches with. */
        std::int64_t
        stride(unsigned i) const
        {
            return match_stride_ != 0 ? match_stride_ : entries[i].stride;
        }

        /** Index of the first entry that matches @p line, or -1. */
        int match(std::int64_t line) const;

        /** The entry to allocate next: the lowest-index invalid one,
         *  else the least recently stamped. */
        unsigned victim() const;

        /** Entry @p i (valid) was just stamped: refresh its key and
         *  make it the most recent. */
        void touch(unsigned i);

        /** Invalidate entry @p i. */
        void retire(unsigned i);

        /** Invalidate every entry. */
        void clear();

        /** Rebuild the index from entries (after a checkpoint decode). */
        void reindex();

        std::vector<FilterEntry> entries;

      private:
        static constexpr std::uint8_t kNone = 0xff;

        void unlink(unsigned i);
        void linkMru(unsigned i);

        std::int64_t match_stride_;
        std::vector<std::int64_t> keys_;
        std::uint64_t invalid_ = 0; ///< bit i: entry i is invalid
        std::vector<std::uint8_t> newer_; ///< recency links, kNone-ended
        std::vector<std::uint8_t> older_;
        std::uint8_t mru_ = kNone;
        std::uint8_t lru_ = kNone;
    };

    /** Advance matched entry @p i of @p table to @p line; a fully
     *  trained entry retires into a new stream. */
    PrefetchList trainFilter(FilterTable &table, unsigned i,
                             std::int64_t line, unsigned startup_limit);

    /** Allocate (first invalid, else LRU) a filter entry. */
    void allocFilter(FilterTable &table, std::int64_t line,
                     std::int64_t stride, unsigned count);

    /** Allocate a stream and emit its startup burst. */
    PrefetchList allocStream(std::int64_t line, std::int64_t stride,
                             unsigned startup_limit);

    /** Find the stream whose window covers @p line, or nullptr. */
    StreamEntry *findStream(std::int64_t line);

    /** True when lines @p a and @p b share an OS page. */
    bool samePage(std::int64_t a, std::int64_t b) const;

    /** Advance @p stream past demand @p line; maybe prefetch. */
    PrefetchList advanceStream(StreamEntry &stream, std::int64_t line,
                               unsigned startup_limit);

    PrefetcherParams params_;
    FilterTable pos_unit_;
    FilterTable neg_unit_;
    FilterTable non_unit_;
    std::vector<StreamEntry> streams_;
    RingQueue<std::int64_t> recent_misses_;
    std::uint64_t tick_ = 0;

    Counter streams_alloc_;
    Counter generated_;
    Counter filter_allocs_;
    Counter stream_advances_;
};

} // namespace cmpsim

#endif // CMPSIM_PREFETCH_STRIDE_PREFETCHER_H
