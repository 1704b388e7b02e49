/**
 * @file
 * Backing store for the value contents of every simulated line.
 *
 * cmpsim keeps one authoritative copy of each line's bytes (the caches
 * move metadata, not payloads) and memoizes the FPC-compressed segment
 * count per line, invalidating it on writes. This is a simulator
 * convenience, not an architectural statement: stores update values
 * immediately while the timing model still charges write-back traffic,
 * so compressed sizes always reflect current data.
 *
 * Layout (DESIGN.md §15): an open-addressing index (power-of-two
 * capacity, multiplicative hash, linear probing, load <= 3/4) maps a
 * line address to a 32-bit slot in a chunked arena of packed 66-byte
 * entries. Entries never move, so references returned by line() stay
 * valid until the store is cleared by a checkpoint restore.
 */

#ifndef CMPSIM_MEM_VALUE_STORE_H
#define CMPSIM_MEM_VALUE_STORE_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/line_data.h"
#include "src/common/log.h"
#include "src/common/types.h"
#include "src/compression/compressor.h"

namespace cmpsim {

/** Line-value owner + compressed-size memo. */
class ValueStore
{
  public:
    /** @param compressor sizing algorithm; must outlive the store. */
    explicit ValueStore(const Compressor &compressor)
        : compressor_(compressor)
    {
        clear();
    }

    /** True when @p addr's line has been given a value. */
    bool
    hasLine(Addr addr) const
    {
        return find(lineAddr(addr)) != nullptr;
    }

    /**
     * Read the line containing @p addr; absent lines read as zero
     * (zero-fill semantics, like untouched DRAM in the paper's
     * functional simulator).
     */
    const LineData &
    line(Addr addr) const
    {
        static const LineData zero{};
        const Entry *e = find(lineAddr(addr));
        return e == nullptr ? zero : e->data;
    }

    /** Replace the whole line containing @p addr. */
    void
    setLine(Addr addr, const LineData &data)
    {
        if (journaling_)
            journal_.push_back({addr, data, 0, true});
        Entry &e = ensure(lineAddr(addr));
        e.data = data;
        e.segments_valid = false;
    }

    /**
     * setLine(@p addr, @p make()) unless the line already has a
     * value; @p make runs only when it does not. One index probe
     * either way (the first-touch path of every workload access).
     */
    template <typename Make>
    void
    setLineIfAbsent(Addr addr, Make &&make)
    {
        const Addr line = lineAddr(addr);
        std::size_t slot = probe(line);
        if (keys_[slot] == line)
            return;
        const LineData data = make();
        if (journaling_)
            journal_.push_back({addr, data, 0, true});
        Entry &e = insertAt(slot, line);
        e.data = data;
        e.segments_valid = false;
    }

    /** Write one 32-bit word at byte offset @p offset within the line. */
    void
    writeWord(Addr addr, std::uint32_t value)
    {
        if (journaling_) {
            journal_.push_back({addr, LineData{}, value, false});
        }
        Entry &e = ensure(lineAddr(addr));
        setLineWord(e.data, lineOffset(addr) / 4, value);
        e.segments_valid = false;
    }

    /** One recorded mutation (lockstep skip sharing, DESIGN.md §14). */
    struct Op
    {
        Addr addr;
        LineData data;       ///< whole-line payload (whole_line only)
        std::uint32_t word;  ///< store value (word writes only)
        bool whole_line;
        bool operator==(const Op &) const = default;
    };

    /** Start recording every setLine()/writeWord() into a journal.
     *  Replaying the journal through applyOps() reproduces this
     *  store's mutations on a lockstep twin whose workload position
     *  matches — the follower half of shared-prefix fast-forward. */
    void
    startJournal()
    {
        journal_.clear();
        journaling_ = true;
    }

    /** Stop recording and hand the journal to the caller. */
    std::vector<Op>
    takeJournal()
    {
        journaling_ = false;
        return std::move(journal_);
    }

    /** Replay a journal recorded by a lockstep twin, in order. */
    void
    applyOps(const std::vector<Op> &ops)
    {
        cmpsim_assert(!journaling_);
        for (const Op &op : ops) {
            if (op.whole_line)
                setLine(op.addr, op.data);
            else
                writeWord(op.addr, op.word);
        }
    }

    /**
     * Compressed size, in 8-byte segments, of the line containing
     * @p addr under the store's compressor. Memoized per line.
     */
    unsigned
    segments(Addr addr)
    {
        Entry *e = find(lineAddr(addr));
        if (e == nullptr)
            return zero_segments();
        if (!e->segments_valid) {
            e->segments = static_cast<std::uint8_t>(
                compressor_.compressedSegments(e->data));
            e->segments_valid = true;
        }
        return e->segments;
    }

    std::size_t lineCount() const { return size_; }

    /**
     * Heap allocations the store has made growing its arena and index
     * (monotonic). They follow the workload's footprint — one arena
     * chunk per 4096 first-touched lines plus index doublings — and
     * are the only allocations a steady-state detailed run makes.
     */
    std::uint64_t growthAllocations() const { return growth_allocs_; }

    /** Every line address with a value, ascending. The index's slot
     *  order is hash order, so this is its only enumeration. */
    std::vector<Addr>
    sortedLines() const
    {
        std::vector<Addr> lines;
        lines.reserve(size_);
        for (std::size_t i = 0; i <= mask_; ++i) {
            if (keys_[i] != kNoLine)
                lines.push_back(keys_[i]);
        }
        std::sort(lines.begin(), lines.end());
        return lines;
    }

    const Compressor &compressor() const { return compressor_; }

  private:
    friend class CheckpointCodec; // rebuilds the store on restore

    /** One line: its bytes and the segment-count memo, packed. */
    struct Entry
    {
        LineData data;
        std::uint8_t segments;
        bool segments_valid;
    };
    static_assert(sizeof(Entry) == kLineBytes + 2);

    static constexpr unsigned kChunkShift = 12; ///< 4096 entries/chunk
    static constexpr std::size_t kChunkEntries = std::size_t{1}
                                                 << kChunkShift;
    static constexpr unsigned kMinSlotsLog2 = 10;
    static constexpr std::size_t kMaxIndex = 0xffffffffu;
    /** Line addresses are 64-byte aligned, so all-ones never occurs. */
    static constexpr Addr kNoLine = ~static_cast<Addr>(0);

    unsigned
    zero_segments()
    {
        if (zero_segments_ == 0)
            zero_segments_ = compressor_.compressedSegments(LineData{});
        return zero_segments_;
    }

    Entry &
    entry(std::uint32_t index) const
    {
        return chunks_[index >> kChunkShift][index & (kChunkEntries - 1)];
    }

    /** Index slot holding @p line, or the empty slot ending its probe
     *  run. Fibonacci hashing of the line number spreads sequential
     *  lines across the table; the top bits index it. */
    std::size_t
    probe(Addr line) const
    {
        std::size_t slot =
            (lineNumber(line) * 0x9e3779b97f4a7c15ull) >> shift_;
        while (keys_[slot] != line && keys_[slot] != kNoLine)
            slot = (slot + 1) & mask_;
        return slot;
    }

    Entry *
    find(Addr line) const
    {
        const std::size_t slot = probe(line);
        return keys_[slot] == line ? &entry(slots_[slot]) : nullptr;
    }

    /** Find-or-insert @p line; a new line reads as zero. */
    Entry &
    ensure(Addr line)
    {
        const std::size_t slot = probe(line);
        if (keys_[slot] == line)
            return entry(slots_[slot]);
        Entry &e = insertAt(slot, line);
        e.data = LineData{};
        e.segments_valid = false;
        return e;
    }

    /** Claim arena entry size_ for @p line at its empty probe slot
     *  @p slot, growing the index first when the insert would take it
     *  past 3/4 full. The entry's contents are the caller's to set. */
    Entry &
    insertAt(std::size_t slot, Addr line)
    {
        if ((size_ + 1) * 4 > (mask_ + 1) * 3) {
            rehash(64 - shift_ + 1);
            slot = probe(line);
        }
        cmpsim_assert(size_ <= kMaxIndex, "value store: arena index overflow");
        const auto index = static_cast<std::uint32_t>(size_++);
        if ((index & (kChunkEntries - 1)) == 0) {
            // Default-initialized: pages are touched only as entries
            // are claimed, so a fresh chunk costs no resident memory.
            const std::size_t cap = chunks_.capacity();
            chunks_.emplace_back(new Entry[kChunkEntries]);
            growth_allocs_ += chunks_.capacity() != cap ? 2 : 1;
        }
        keys_[slot] = line;
        slots_[slot] = index;
        return entry(index);
    }

    /** Rebuild the index at 2^@p log2 slots; the arena stays put. */
    void
    rehash(unsigned log2)
    {
        std::unique_ptr<Addr[]> old_keys = std::move(keys_);
        std::unique_ptr<std::uint32_t[]> old_slots = std::move(slots_);
        const std::size_t old_count = old_keys ? mask_ + 1 : 0;
        const std::size_t n = std::size_t{1} << log2;
        keys_.reset(new Addr[n]);
        slots_.reset(new std::uint32_t[n]);
        growth_allocs_ += 2;
        std::fill(keys_.get(), keys_.get() + n, kNoLine);
        mask_ = n - 1;
        shift_ = 64 - log2;
        for (std::size_t i = 0; i < old_count; ++i) {
            if (old_keys[i] == kNoLine)
                continue;
            const std::size_t slot = probe(old_keys[i]);
            keys_[slot] = old_keys[i];
            slots_[slot] = old_slots[i];
        }
    }

    /** Drop every line (checkpoint restore rebuilds the store). */
    void
    clear()
    {
        chunks_.clear();
        size_ = 0;
        keys_.reset();
        rehash(kMinSlotsLog2);
    }

    const Compressor &compressor_;
    std::unique_ptr<Addr[]> keys_;            ///< line address or kNoLine
    std::unique_ptr<std::uint32_t[]> slots_;  ///< arena index per key
    std::size_t mask_ = 0;                    ///< index slots - 1
    unsigned shift_ = 64;                     ///< 64 - log2(slots)
    std::size_t size_ = 0;                    ///< lines = arena entries used
    std::vector<std::unique_ptr<Entry[]>> chunks_;
    bool journaling_ = false;
    std::vector<Op> journal_;
    unsigned zero_segments_ = 0;
    std::uint64_t growth_allocs_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_MEM_VALUE_STORE_H
