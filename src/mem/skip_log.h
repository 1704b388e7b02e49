/**
 * @file
 * SkipLog: one core's value-store mutations from a parallel skip
 * window (DESIGN.md §14), recorded instead of applied.
 *
 * In pure skip the cores interact only through the value store: a
 * first touch draws the line's value from the touching core's RNG,
 * and a store sets one word. While the cores of a window run on
 * worker threads the store is read-only. Each core appends its first
 * touches and word writes here, round by round; the calling thread
 * then applies the rounds in serial order (round-major, then core)
 * through the store's own mutators, so the store, its journal and its
 * arena order come out as a serial skip leaves them.
 *
 * A first touch consults the store as it stood when the window
 * started and this core's own first touches in the window (the
 * overlay). Another core may have touched the line earlier in serial
 * order; then the serial skip would not have drawn. applyRound()
 * detects exactly that case — a first touch of a line already present
 * — before it applies anything, and the caller rolls back.
 *
 * A worker records capped: it never grows a buffer, because memory a
 * worker allocates comes from that thread's own malloc arena, and
 * which worker runs which core changes from run to run — so would the
 * process's footprint. A capped op that finds no room is dropped and
 * marks the log full(); the caller voids the round it fell in, grows
 * the log and finishes the window on the calling thread.
 */

#ifndef CMPSIM_MEM_SKIP_LOG_H
#define CMPSIM_MEM_SKIP_LOG_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/line_data.h"
#include "src/common/log.h"
#include "src/common/types.h"
#include "src/mem/value_store.h"

namespace cmpsim {

/** One core's recorded first touches and word writes, per round. */
class SkipLog
{
  public:
    SkipLog() : keys_(kMinOverlay, kNoLine) {}

    /**
     * First touch of the line holding @p addr, speculating against
     * @p store (read only): when neither the store nor this log has
     * the line, record its value @p make() — which runs only then.
     */
    template <typename Make>
    void
    touch(const ValueStore &store, Addr addr, Make &&make)
    {
        const Addr line = lineAddr(addr);
        if (store.hasLine(line))
            return;
        std::size_t slot = overlaySlot(line);
        if (keys_[slot] == line)
            return;
        const bool overlay_full = (overlay_size_ + 1) * 2 > keys_.size();
        if (capped_ && (overlay_full || atCapacity(ops_) ||
                        atCapacity(lines_))) {
            full_ = true;
            return;
        }
        if (overlay_full) {
            growOverlay();
            slot = overlaySlot(line);
        }
        keys_[slot] = line;
        ++overlay_size_;
        ops_.push_back({addr, 0, static_cast<std::uint32_t>(lines_.size())});
        lines_.push_back(make());
    }

    /** A store of @p value to the word at @p addr. */
    void
    write(Addr addr, std::uint32_t value)
    {
        if (capped_ && atCapacity(ops_)) {
            full_ = true;
            return;
        }
        ops_.push_back({addr, value, kWordOp});
    }

    /** Close the current round: the ops since the previous call. */
    void
    endRound()
    {
        rounds_.push_back({static_cast<std::uint32_t>(ops_.size()),
                           static_cast<std::uint32_t>(lines_.size())});
    }

    /**
     * Apply round @p r to @p store, in recorded order. Returns false,
     * applying nothing, when one of the round's first touches finds
     * its line already present: a mis-speculation.
     */
    bool
    applyRound(unsigned r, ValueStore &store) const
    {
        const Round begin = r == 0 ? Round{0, 0} : rounds_[r - 1];
        const Round end = rounds_[r];
        if (end.lines != begin.lines) {
            for (std::uint32_t i = begin.ops; i < end.ops; ++i) {
                if (ops_[i].line != kWordOp && store.hasLine(ops_[i].addr))
                    return false;
            }
        }
        for (std::uint32_t i = begin.ops; i < end.ops; ++i) {
            const Op &op = ops_[i];
            if (op.line == kWordOp)
                store.writeWord(op.addr, op.word);
            else
                store.setLine(op.addr, lines_[op.line]);
        }
        return true;
    }

    /** Forget every round and the overlay, and record uncapped. The
     *  buffers keep their capacity. */
    void
    clear()
    {
        if (overlay_size_ != 0)
            std::fill(keys_.begin(), keys_.end(), kNoLine);
        overlay_size_ = 0;
        ops_.clear();
        lines_.clear();
        rounds_.clear();
        capped_ = false;
        full_ = false;
    }

    /** Until the next clear(), grow no buffer: an op without room is
     *  dropped and sets full(). reserve() must have run. */
    void
    cap()
    {
        cmpsim_assert(rounds_.capacity() >= kMaxRounds);
        capped_ = true;
    }

    /** A capped op was dropped: the round it fell in is void. */
    bool full() const { return full_; }

    /** Make room for kMaxRounds rounds, @p ops ops and @p lines first
     *  touches. */
    void
    reserve(std::size_t ops, std::size_t lines)
    {
        rounds_.reserve(kMaxRounds);
        ops_.reserve(ops);
        lines_.reserve(lines);
    }

    /** Double each buffer a capped op found without room, keeping
     *  what is recorded. */
    void
    grow()
    {
        if (atCapacity(ops_))
            ops_.reserve(std::max<std::size_t>(2 * ops_.capacity(), 64));
        if (atCapacity(lines_))
            lines_.reserve(std::max<std::size_t>(2 * lines_.capacity(), 64));
        if ((overlay_size_ + 1) * 2 > keys_.size())
            growOverlay();
    }

    /** Rounds a capped log can close. */
    static constexpr unsigned kMaxRounds = 8;

  private:
    static constexpr std::uint32_t kWordOp = ~std::uint32_t{0};
    static constexpr Addr kNoLine = ~Addr{0};
    static constexpr unsigned kMinOverlayLog2 = 8;
    static constexpr std::size_t kMinOverlay = std::size_t{1}
                                               << kMinOverlayLog2;

    struct Op
    {
        Addr addr;
        std::uint32_t word;  ///< store value (word writes)
        std::uint32_t line;  ///< lines_ index, or kWordOp
    };

    struct Round
    {
        std::uint32_t ops;   ///< ops_ end
        std::uint32_t lines; ///< lines_ end
    };

    template <typename T>
    static bool
    atCapacity(const std::vector<T> &v)
    {
        return v.size() == v.capacity();
    }

    /** Slot holding @p line in the overlay, or the empty slot ending
     *  its probe run (linear probing, Fibonacci hash). */
    std::size_t
    overlaySlot(Addr line) const
    {
        const std::size_t mask = keys_.size() - 1;
        std::size_t slot = (lineNumber(line) * 0x9e3779b97f4a7c15ull) >>
                           overlay_shift_;
        while (keys_[slot] != line && keys_[slot] != kNoLine)
            slot = (slot + 1) & mask;
        return slot;
    }

    void
    growOverlay()
    {
        std::vector<Addr> old(keys_.size() * 2, kNoLine);
        old.swap(keys_);
        --overlay_shift_;
        for (Addr line : old) {
            if (line != kNoLine)
                keys_[overlaySlot(line)] = line;
        }
    }

    std::vector<Op> ops_;
    std::vector<LineData> lines_;
    std::vector<Round> rounds_;
    std::vector<Addr> keys_; ///< overlay: lines first touched here
    std::size_t overlay_size_ = 0;
    bool capped_ = false; ///< grow no buffer (cap())
    bool full_ = false;   ///< a capped op was dropped
    unsigned overlay_shift_ = 64 - kMinOverlayLog2; ///< 64 - log2(slots)
};

} // namespace cmpsim

#endif // CMPSIM_MEM_SKIP_LOG_H
