/**
 * @file
 * RingQueue: a growable FIFO over one power-of-two ring buffer.
 *
 * It replaces std::deque in the timed path's short queues (the core's
 * pointer-chase queue, the link's class queues, the DRAM controller's
 * request queues, the prefetcher's recent-miss window). A deque frees
 * and reallocates its blocks as a queue drains and refills; a ring
 * only allocates when it grows past its high-water mark, so a
 * steady-state queue never touches the heap.
 *
 * Slots always hold live T objects: pop_front() and erase() reset the
 * vacated slot to T{} (destroying, e.g., a held continuation), which
 * is why T must be default-constructible and move-assignable.
 */

#ifndef CMPSIM_COMMON_RING_QUEUE_H
#define CMPSIM_COMMON_RING_QUEUE_H

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/log.h"

namespace cmpsim {

template <typename T>
class RingQueue
{
  public:
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }

    void
    push_back(T v)
    {
        if (count_ == slots_.size())
            grow();
        slots_[wrap(head_ + count_)] = std::move(v);
        ++count_;
    }

    void
    pop_front()
    {
        cmpsim_assert(count_ > 0, "pop_front on an empty RingQueue");
        slots_[head_] = T{};
        head_ = wrap(head_ + 1);
        --count_;
    }

    /** Remove element @p i, keeping the order of the rest. */
    void
    erase(std::size_t i)
    {
        cmpsim_assert(i < count_, "RingQueue::erase out of range");
        for (std::size_t k = i; k + 1 < count_; ++k)
            (*this)[k] = std::move((*this)[k + 1]);
        (*this)[count_ - 1] = T{};
        --count_;
    }

    /** Drop every element; the ring keeps its capacity. */
    void
    clear()
    {
        while (count_ > 0)
            pop_front();
        head_ = 0;
    }

    /** Read-only front-to-back iteration (range-for). */
    class const_iterator
    {
      public:
        const_iterator(const RingQueue *q, std::size_t i) : q_(q), i_(i) {}
        const T &operator*() const { return (*q_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator!=(const const_iterator &o) const { return i_ != o.i_; }

      private:
        const RingQueue *q_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count_}; }

  private:
    std::size_t wrap(std::size_t i) const { return i & (slots_.size() - 1); }

    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
        for (std::size_t k = 0; k < count_; ++k)
            bigger[k] = std::move((*this)[k]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_; ///< capacity is 0 or a power of two
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_RING_QUEUE_H
