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
 * cache/link/memory transaction in the simulator; DESIGN.md §7):
 *
 *  - Callbacks live in a chunked slab of fixed-capacity
 *    InlineFunction slots. schedule() builds the callable directly in
 *    a free slot; dispatch runs it in place and then recycles the
 *    slot. Chunks never move, so a callback may schedule any number
 *    of events (growing the slab) while it runs. Once the slab has
 *    reached the run's high-water mark, scheduling and dispatch
 *    allocate nothing.
 *
 *  - Near events (cycles [now, now + kWheelSlots)) sit in a timing
 *    wheel: one bucket per cycle, each a FIFO list threaded through a
 *    per-slot next index, plus a bitmap of the non-empty buckets.
 *    Scheduling appends to a bucket and dispatch pops its head, both
 *    O(1); the free list is threaded through the same next index.
 *
 *  - Later events wait in an overflow binary min-heap of 24-byte
 *    {when, seq, slot} keys. Every time now() advances, before any
 *    callback at the new cycle runs, the heap entries that came
 *    within the horizon move into their buckets in (when, seq) order.
 *
 *  - Order proof: a bucket's FIFO order is (when, seq) order. Direct
 *    appends happen in schedule (= seq) order. An event migrated from
 *    the heap was scheduled before its cycle entered the horizon, and
 *    it migrates the moment its cycle does, before any event for that
 *    cycle can be scheduled directly (such an event only goes to the
 *    wheel once the cycle is inside the horizon, and gets a larger
 *    seq). So migrated events precede direct ones and are themselves
 *    popped from the heap in seq order. The bucket of now() is the
 *    same-cycle FIFO: a continuation scheduled at now() is the newest
 *    event of its cycle and runs after every older peer.
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

    /** Timing-wheel span in cycles (a power of two): longer than a
     *  DRAM round trip, so nearly every event skips the heap. */
    static constexpr std::uint32_t kWheelSlots = 1024;

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
        const std::uint64_t seq = seq_++;
        if (when - now_ < kWheelSlots)
            pushBucket(when, slot);
        else
            pushHeap(Key{when, seq, slot});
    }

    bool empty() const { return wheel_count_ == 0 && heap_.empty(); }

    std::size_t size() const { return wheel_count_ + heap_.size(); }

    /** Cycle of the earliest pending event (kCycleNever if none). */
    Cycle
    nextEventCycle() const
    {
        if (wheel_count_ > 0)
            return nextWheelCycle();
        return heap_.empty() ? kCycleNever : heap_.front().when;
    }

    /**
     * Pop and run the single earliest event (exact (when, seq)
     * order), advancing now() to its cycle. The benchmark's
     * event-kernel replay (perfbench/replay.cc) times single
     * dispatches with it. @pre !empty().
     */
    void
    runOneEarliest()
    {
        cmpsim_assert(!empty(), "runOneEarliest on an empty queue");
        if (wheel_[bucketOf(now_)].head == kNil)
            advanceClock(nextEventCycle());
        dispatch(popBucket(bucketOf(now_)));
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
        if (when != now_)
            advanceClock(when);
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

    /** One wheel bucket: a FIFO list of slots threaded through
     *  next_ (tail is meaningless while head is kNil). */
    struct Bucket
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    static constexpr std::uint32_t kNil = ~0u;
    static constexpr std::uint32_t kWords = kWheelSlots / 64;
    static_assert((kWheelSlots & (kWheelSlots - 1)) == 0 &&
                      kWheelSlots >= 64,
                  "the wheel is a power-of-two number of 64-bit words");

    /** Slab chunk size in slots (a power of two). */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

    static std::uint32_t
    bucketOf(Cycle when)
    {
        return static_cast<std::uint32_t>(when) & (kWheelSlots - 1);
    }

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
        next_.resize(slotCount());
        // Push in reverse so the lowest new slot is handed out first.
        for (std::uint32_t i = kChunkSlots; i-- > 0;)
            freeSlot(base + i);
    }

    std::uint32_t
    allocSlot()
    {
        if (free_head_ == kNil)
            addChunk();
        const std::uint32_t slot = free_head_;
        free_head_ = next_[slot];
        return slot;
    }

    void
    freeSlot(std::uint32_t slot)
    {
        next_[slot] = free_head_;
        free_head_ = slot;
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
        freeSlot(slot);
    }

    /** Append @p slot to the bucket of @p when (inside the horizon). */
    void
    pushBucket(Cycle when, std::uint32_t slot)
    {
        const std::uint32_t b = bucketOf(when);
        Bucket &bucket = wheel_[b];
        next_[slot] = kNil;
        if (bucket.head == kNil) {
            bucket.head = slot;
            occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
        } else {
            next_[bucket.tail] = slot;
        }
        bucket.tail = slot;
        ++wheel_count_;
    }

    /** Take the head of non-empty bucket @p b. */
    std::uint32_t
    popBucket(std::uint32_t b)
    {
        Bucket &bucket = wheel_[b];
        const std::uint32_t slot = bucket.head;
        bucket.head = next_[slot];
        if (bucket.head == kNil)
            occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        --wheel_count_;
        return slot;
    }

    /** Cycle of the first non-empty bucket at or after now().
     *  @pre wheel_count_ > 0. */
    Cycle
    nextWheelCycle() const
    {
        const std::uint32_t start = bucketOf(now_);
        std::uint32_t w = start / 64;
        std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
        // kWords + 1 probes: the last revisits the start word's low
        // bits, i.e. the buckets just before start (cycles near the
        // far end of the horizon).
        for (std::uint32_t i = 0; i <= kWords; ++i) {
            if (bits != 0) {
                const std::uint32_t b =
                    w * 64 + static_cast<std::uint32_t>(__builtin_ctzll(bits));
                return now_ + ((b - start) & (kWheelSlots - 1));
            }
            w = (w + 1) % kWords;
            bits = occupied_[w];
        }
        cmpsim_panic("event wheel count %zu with no occupied bucket",
                     wheel_count_);
    }

    /** Move now() to @p when, then pull every heap entry that came
     *  within the horizon into its bucket, in (when, seq) order. */
    void
    advanceClock(Cycle when)
    {
        now_ = when;
        while (!heap_.empty() && heap_.front().when - now_ < kWheelSlots) {
            const Key key = popHeap();
            pushBucket(key.when, key.slot);
        }
    }

    /**
     * Run every due event: everything at cycles <= @p limit, including
     * the same-cycle continuations they spawn. On return the earliest
     * pending event (if any) is past limit.
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
        // drain() may be called with a limit in the past and must be
        // a no-op then: nothing at or after now() is due.
        while (now_ <= limit) {
            const std::uint32_t b = bucketOf(now_);
            if (wheel_[b].head != kNil) {
                dispatch(popBucket(b));
                ++executed;
                continue;
            }
            const Cycle next = nextEventCycle();
            if (next == kCycleNever || next > limit)
                break;
            advanceClock(next);
        }
        return executed;
    }

    void
    pushHeap(const Key &key)
    {
        heap_.push_back(key);
        siftUp(heap_.size() - 1);
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

    Bucket wheel_[kWheelSlots];          ///< one FIFO per cycle mod span
    std::uint64_t occupied_[kWords] = {}; ///< bit per non-empty bucket
    std::size_t wheel_count_ = 0;        ///< events in the wheel
    std::vector<Key> heap_; ///< events past the horizon, by (when, seq)
    Cycle now_ = 0;
    std::uint64_t seq_ = 0; ///< next sequence number

    /** Callback slab: fixed-size chunks that never move; destroying
     *  them destroys every still-pending callback exactly once. */
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    /** Per slot: the next slot of its bucket, or of the free list. */
    std::vector<std::uint32_t> next_;
    std::uint32_t free_head_ = kNil; ///< free slots, LIFO
};

} // namespace cmpsim

#endif // CMPSIM_SIM_EVENT_QUEUE_H
