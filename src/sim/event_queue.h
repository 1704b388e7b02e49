/**
 * @file
 * Discrete-event simulation kernel: a time-ordered queue of callbacks.
 *
 * All timing components (caches, link, memory controller) schedule
 * continuations on one shared EventQueue; the Simulator interleaves
 * event execution with core-model ticks. Events at the same cycle run
 * in scheduling order (stable), which keeps runs bit-reproducible.
 *
 * Implementation notes (hot path — this queue executes every timed
 * cache/link/memory transaction in the simulator):
 *
 *  - Ordering works on 24-byte keys {when, seq, slot}: an intrusive
 *    binary min-heap over a std::vector<Key> ordered by (when, seq),
 *    plus a same-cycle FIFO of keys (below). Sifting moves keys only;
 *    callbacks never move once scheduled.
 *
 *  - Callbacks live in a chunked slab of fixed-capacity
 *    InlineFunction slots with a LIFO free list. schedule() builds the
 *    callable directly in a free slot; dispatch runs it in place and
 *    then recycles the slot. Chunks never move, so a callback may
 *    schedule any number of events (growing the slab) while it runs.
 *    Once the slab and the key vectors have reached the run's
 *    high-water mark, scheduling and dispatch allocate nothing.
 *
 *  - Same-cycle fast path: while an event at cycle T executes,
 *    continuations it schedules back at cycle T are appended to a
 *    plain FIFO and run without touching the heap at all. This is
 *    order-exact: once now() has reached T every event already in the
 *    heap at T carries a smaller seq than any newly scheduled one, so
 *    "drain heap entries at T, then the FIFO in append order" is
 *    precisely the global (when, seq) order.
 */

#ifndef CMPSIM_SIM_EVENT_QUEUE_H
#define CMPSIM_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/types.h"
#include "src/obs/profiler.h"
#include "src/sim/inline_function.h"

namespace cmpsim {

/** Time-ordered callback queue. */
class EventQueue
{
  public:
    /**
     * Capture budget of one event. The largest continuation in the
     * simulator is an infinite-bandwidth link delivery, which carries
     * a whole PriorityLink::Deliver (itself holding a MainMemory fetch
     * continuation that holds an L2 fill callback) plus its cycle.
     */
    static constexpr std::size_t kCallbackCapacity = 88;
    using Callback = InlineFunction<void(), kCallbackCapacity>;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /**
     * Pre-size the pending-event storage for @p events outstanding
     * events so neither the keys nor the slab grow mid-run (the
     * caller bounds in-flight continuations, e.g. cores x ROB
     * entries).
     */
    void
    reserve(std::size_t events)
    {
        heap_.reserve(events);
        same_cycle_.reserve(events);
        while (slotCount() < events)
            addChunk();
    }

    /**
     * Schedule @p cb at @p when. @p cb is any callable (or a
     * Callback); it is built directly in its slab slot.
     * @pre when >= now().
     */
    template <typename F>
    void
    schedule(Cycle when, F &&cb)
    {
        cmpsim_assert(when >= now_,
                      "schedule into the past: when=%llu now=%llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        const std::uint32_t slot = allocSlot();
        slotAt(slot).emplace(std::forward<F>(cb));
        const Key key{when, seq_++, slot};
        if (when == now_) {
            // Same-cycle continuation: newest seq by construction, so
            // FIFO append order is (when, seq) order.
            same_cycle_.push_back(key);
            return;
        }
        heap_.push_back(key);
        siftUp(heap_.size() - 1);
    }

    bool
    empty() const
    {
        return heap_.empty() && same_head_ == same_cycle_.size();
    }

    std::size_t
    size() const
    {
        return heap_.size() + (same_cycle_.size() - same_head_);
    }

    /** Cycle of the earliest pending event (kCycleNever if none). */
    Cycle
    nextEventCycle() const
    {
        if (same_head_ < same_cycle_.size())
            return now_;
        return heap_.empty() ? kCycleNever : heap_.front().when;
    }

    /**
     * Pop and run the single earliest event (exact (when, seq) order
     * across the heap and the FIFO), advancing now() to its cycle.
     * The benchmark's event-kernel replay (perfbench/replay.cc) times
     * single dispatches with it. @pre !empty().
     */
    void
    runOneEarliest()
    {
        cmpsim_assert(!empty(), "runOneEarliest on an empty queue");
        const bool fifo = same_head_ < same_cycle_.size();
        if (fifo && (heap_.empty() ||
                     same_cycle_[same_head_].before(heap_.front()))) {
            const Key key = popFifo();
            now_ = key.when;
            dispatch(key.slot);
            return;
        }
        const Key key = popHeap();
        now_ = key.when;
        dispatch(key.slot);
    }

    /**
     * Advance now() to @p when and run every event scheduled at or
     * before it, in time order. @pre when >= now().
     */
    void
    advanceTo(Cycle when)
    {
        cmpsim_assert(when >= now_,
                      "advanceTo into the past: when=%llu now=%llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        runDue(when);
        now_ = when;
    }

    /**
     * Run events until the queue drains or @p limit cycles elapse.
     * Used by unit tests, by components driven without cores, and by
     * CmpSystem to quiesce before functional fast-forward.
     * @return number of events executed.
     */
    std::uint64_t
    drain(Cycle limit = kCycleNever)
    {
        return runDue(limit);
    }

  private:
    friend class CheckpointCodec; // saves/restores now_ and seq_

    struct Key
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot; ///< index of the callback in the slab

        bool
        before(const Key &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Slab chunk size in slots (a power of two). */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    std::size_t
    slotCount() const
    {
        return chunks_.size() * kChunkSlots;
    }

    Callback &
    slotAt(std::uint32_t slot)
    {
        return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
    }

    void
    addChunk()
    {
        const auto base = static_cast<std::uint32_t>(slotCount());
        chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
        free_.reserve(slotCount());
        // Push in reverse so the lowest new slot is handed out first.
        for (std::uint32_t i = kChunkSlots; i-- > 0;)
            free_.push_back(base + i);
    }

    std::uint32_t
    allocSlot()
    {
        if (free_.empty())
            addChunk();
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /** Run the callback in @p slot in place, then recycle the slot.
     *  The slot stays allocated while the callback runs, so events it
     *  schedules can never land on it. */
    void
    dispatch(std::uint32_t slot)
    {
        Callback &cb = slotAt(slot);
        cb();
        cb.reset();
        free_.push_back(slot);
    }

    /**
     * Run every due event: heap entries with when <= @p limit plus
     * all same-cycle continuations they spawn. On return the FIFO is
     * empty and the heap's earliest entry (if any) is past limit.
     */
    std::uint64_t
    runDue(Cycle limit)
    {
        // One site for the whole pop+dispatch drain: cheap enough to
        // stay on permanently (a relaxed load when profiling is off),
        // and the run report's eq.dispatch line attributes kernel cost
        // separately from component cost (e.g. l2.lookup).
        CMPSIM_PROF_SCOPE("eq.dispatch");
        std::uint64_t executed = 0;
        // Events at the current cycle (heap leftovers and the FIFO)
        // are due only if now_ itself is within the limit — drain()
        // may be called with a limit in the past and must be a no-op
        // then, exactly like the when <= limit heap condition.
        while (true) {
            const bool now_due = now_ <= limit;
            if (now_due && !heap_.empty() && heap_.front().when <= now_) {
                // Pending heap entry at the current cycle: scheduled
                // before now() reached it, so older than anything in
                // the FIFO — must run first.
                dispatch(popHeap().slot);
            } else if (now_due && same_head_ < same_cycle_.size()) {
                dispatch(popFifo().slot);
            } else if (!heap_.empty() && heap_.front().when <= limit) {
                const Key key = popHeap();
                now_ = key.when;
                dispatch(key.slot);
            } else {
                break;
            }
            ++executed;
        }
        return executed;
    }

    Key
    popFifo()
    {
        const Key key = same_cycle_[same_head_++];
        if (same_head_ == same_cycle_.size()) {
            same_cycle_.clear();
            same_head_ = 0;
        }
        return key;
    }

    /** Take the root and restore the heap property. */
    Key
    popHeap()
    {
        const Key top = heap_.front();
        if (heap_.size() > 1) {
            heap_.front() = heap_.back();
            heap_.pop_back();
            siftDown(0);
        } else {
            heap_.pop_back();
        }
        return top;
    }

    void
    siftUp(std::size_t i)
    {
        const Key key = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!key.before(heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = key;
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        const Key key = heap_[i];
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap_[child + 1].before(heap_[child]))
                ++child;
            if (!heap_[child].before(key))
                break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = key;
    }

    std::vector<Key> heap_;       ///< binary min-heap by (when, seq)
    std::vector<Key> same_cycle_; ///< FIFO of events at now()
    std::size_t same_head_ = 0;   ///< first unconsumed FIFO slot
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;       ///< next sequence number

    /** Callback slab: fixed-size chunks that never move; destroying
     *  them destroys every still-pending callback exactly once. */
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::vector<std::uint32_t> free_; ///< free slots, LIFO
};

} // namespace cmpsim

#endif // CMPSIM_SIM_EVENT_QUEUE_H
