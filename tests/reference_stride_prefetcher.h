/**
 * @file
 * Reference model of StridePrefetcher (the Power4 stride engine) for
 * differential tests: the same three filter tables, stream table and
 * recent-miss window, written as directly as the description reads,
 * with the stream window tested by the original division formula.
 * encode() writes the checkpoint layout of the real prefetcher so the
 * whole table state compares byte for byte.
 */

#ifndef CMPSIM_TESTS_REFERENCE_STRIDE_PREFETCHER_H
#define CMPSIM_TESTS_REFERENCE_STRIDE_PREFETCHER_H

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "src/ckpt/ckpt_io.h"
#include "src/prefetch/stride_prefetcher.h"

namespace cmpsim {

class ReferenceStridePrefetcher
{
  public:
    explicit ReferenceStridePrefetcher(const PrefetcherParams &p)
        : p_(p), tables_(3, std::vector<Filter>(p.filter_entries)),
          streams_(p.stream_entries)
    {
    }

    std::vector<Addr>
    observeMiss(Addr addr, unsigned limit)
    {
        ++tick_;
        const auto line = static_cast<std::int64_t>(lineNumber(addr));
        if (Stream *s = findStream(line))
            return advance(*s, line, limit);
        // Tables in order: +1, -1, learned stride (0 = use the entry's).
        const std::int64_t table_stride[3] = {1, -1, 0};
        for (int t = 0; t < 3; ++t) {
            for (Filter &f : tables_[t]) {
                const std::int64_t s = table_stride[t] ? table_stride[t]
                                                       : f.stride;
                if (!f.valid || s == 0 || f.last + s != line)
                    continue;
                f.last = line;
                f.lru = tick_;
                if (++f.count < p_.train_count)
                    return {};
                f.valid = false;
                return limit ? allocStream(line, f.stride, limit)
                             : std::vector<Addr>{};
            }
        }
        allocFilter(tables_[0], line, 1, 1);
        allocFilter(tables_[1], line, -1, 1);
        for (const std::int64_t m : recent_) {
            const std::int64_t d = line - m;
            if (std::abs(d) > 1 && std::abs(d) <= p_.max_stride) {
                allocFilter(tables_[2], line, d, 2);
                break;
            }
        }
        recent_.push_back(line);
        if (recent_.size() > 8)
            recent_.pop_front();
        return {};
    }

    std::vector<Addr>
    observeUse(Addr addr, unsigned limit)
    {
        ++tick_;
        const auto line = static_cast<std::int64_t>(lineNumber(addr));
        Stream *s = findStream(line);
        return s ? advance(*s, line, limit) : std::vector<Addr>{};
    }

    /** CheckpointCodec::encodePrefetcher's layout. */
    std::string
    encode() const
    {
        ckpt::Encoder e;
        for (const auto &table : tables_) {
            e.u32(static_cast<std::uint32_t>(table.size()));
            for (const Filter &f : table) {
                e.i64(f.last);
                e.i64(f.stride);
                e.u32(f.count);
                e.u64(f.lru);
                e.boolean(f.valid);
            }
        }
        e.u32(static_cast<std::uint32_t>(streams_.size()));
        for (const Stream &s : streams_) {
            e.i64(s.next_pf);
            e.i64(s.stride);
            e.i64(s.demand);
            e.u64(s.lru);
            e.boolean(s.valid);
        }
        e.u32(static_cast<std::uint32_t>(recent_.size()));
        for (const std::int64_t m : recent_)
            e.i64(m);
        e.u64(tick_);
        return e.take();
    }

  private:
    struct Filter
    {
        std::int64_t last = 0, stride = 0;
        unsigned count = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };
    struct Stream
    {
        std::int64_t next_pf = 0, stride = 0, demand = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    /** First invalid slot, else the least recently used. */
    template <typename T>
    static T &
    victim(std::vector<T> &slots)
    {
        T *v = &slots[0];
        for (T &s : slots) {
            if (!s.valid)
                return s;
            if (s.lru < v->lru)
                v = &s;
        }
        return *v;
    }

    void
    allocFilter(std::vector<Filter> &table, std::int64_t line,
                std::int64_t stride, unsigned count)
    {
        victim(table) = Filter{line, stride, count, tick_, true};
    }

    bool
    samePage(std::int64_t a, std::int64_t b) const
    {
        return p_.page_lines == 0 ||
               static_cast<std::uint64_t>(a) / p_.page_lines ==
                   static_cast<std::uint64_t>(b) / p_.page_lines;
    }

    std::vector<Addr>
    allocStream(std::int64_t line, std::int64_t stride, unsigned limit)
    {
        const unsigned n = std::min(p_.startup_prefetches, limit);
        if (n == 0)
            return {};
        std::vector<Addr> out;
        for (unsigned i = 1; i <= n; ++i) {
            const std::int64_t l = line + stride * i;
            if (l < 0 || !samePage(line, l))
                break;
            out.push_back(static_cast<Addr>(l) << kLineShift);
        }
        victim(streams_) =
            Stream{line + stride * (n + 1), stride, line, tick_, true};
        return out;
    }

    Stream *
    findStream(std::int64_t line)
    {
        for (Stream &s : streams_) {
            const std::int64_t delta = line - s.demand;
            if (!s.valid || delta == 0 || delta % s.stride != 0)
                continue;
            const std::int64_t steps = delta / s.stride;
            if (steps > 0 && steps <= (s.next_pf - s.demand) / s.stride)
                return &s;
        }
        return nullptr;
    }

    std::vector<Addr>
    advance(Stream &s, std::int64_t line, unsigned limit)
    {
        s.lru = tick_;
        if ((line - s.demand) * s.stride > 0)
            s.demand = line;
        if (limit == 0)
            return {};
        if (s.next_pf < 0) {
            s.valid = false;
            return {};
        }
        if ((s.next_pf - s.demand) / s.stride > limit ||
            !samePage(s.demand, s.next_pf))
            return {};
        const std::int64_t l = s.next_pf;
        s.next_pf += s.stride;
        return {static_cast<Addr>(l) << kLineShift};
    }

    PrefetcherParams p_;
    std::vector<std::vector<Filter>> tables_; ///< +1, -1, non-unit
    std::vector<Stream> streams_;
    std::deque<std::int64_t> recent_;
    std::uint64_t tick_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_TESTS_REFERENCE_STRIDE_PREFETCHER_H
