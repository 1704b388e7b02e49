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
 *  - The pending set is an intrusive binary min-heap over a
 *    std::vector<Event>, ordered by (when, seq). Unlike
 *    std::priority_queue, popping *moves* the Event (and its
 *    heap-allocated std::function) out of the root, and the sift-down
 *    uses moves throughout — no callback is ever copied.
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
#include <functional>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/types.h"
#include "src/obs/profiler.h"

namespace cmpsim {

/** Time-ordered callback queue. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated cycle. */
    Cycle now() const { return now_; }

    /**
     * Pre-size the pending-event storage for @p events outstanding
     * events so the heap never reallocates mid-run (the caller bounds
     * in-flight continuations, e.g. cores x ROB entries).
     */
    void
    reserve(std::size_t events)
    {
        heap_.reserve(events);
        same_cycle_.reserve(events);
    }

    /** Schedule @p cb at @p when. @pre when >= now(). */
    void
    schedule(Cycle when, Callback cb)
    {
        cmpsim_assert(when >= now_,
                      "schedule into the past: when=%llu now=%llu",
                      static_cast<unsigned long long>(when),
                      static_cast<unsigned long long>(now_));
        if (when == now_) {
            // Same-cycle continuation: newest seq by construction, so
            // FIFO append order is (when, seq) order.
            same_cycle_.push_back(Event{when, seq_++, std::move(cb)});
            return;
        }
        heap_.push_back(Event{when, seq_++, std::move(cb)});
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
            Event ev = std::move(same_cycle_[same_head_++]);
            if (same_head_ == same_cycle_.size()) {
                same_cycle_.clear();
                same_head_ = 0;
            }
            now_ = ev.when;
            ev.cb();
            return;
        }
        Event ev = popHeap();
        now_ = ev.when;
        ev.cb();
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

    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        bool
        before(const Event &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

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
                Event ev = popHeap();
                ev.cb();
            } else if (now_due && same_head_ < same_cycle_.size()) {
                Event ev = std::move(same_cycle_[same_head_++]);
                if (same_head_ == same_cycle_.size()) {
                    same_cycle_.clear();
                    same_head_ = 0;
                }
                ev.cb();
            } else if (!heap_.empty() && heap_.front().when <= limit) {
                Event ev = popHeap();
                now_ = ev.when;
                ev.cb();
            } else {
                break;
            }
            ++executed;
        }
        return executed;
    }

    /** Move the root out and restore the heap property with moves. */
    Event
    popHeap()
    {
        Event top = std::move(heap_.front());
        if (heap_.size() > 1) {
            heap_.front() = std::move(heap_.back());
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
        Event ev = std::move(heap_[i]);
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!ev.before(heap_[parent]))
                break;
            heap_[i] = std::move(heap_[parent]);
            i = parent;
        }
        heap_[i] = std::move(ev);
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        Event ev = std::move(heap_[i]);
        while (true) {
            std::size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap_[child + 1].before(heap_[child]))
                ++child;
            if (!heap_[child].before(ev))
                break;
            heap_[i] = std::move(heap_[child]);
            i = child;
        }
        heap_[i] = std::move(ev);
    }

    std::vector<Event> heap_;       ///< binary min-heap by (when, seq)
    std::vector<Event> same_cycle_; ///< FIFO of events at now()
    std::size_t same_head_ = 0;     ///< first unconsumed FIFO slot
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;         ///< next sequence number
};

} // namespace cmpsim

#endif // CMPSIM_SIM_EVENT_QUEUE_H
