#include "src/prefetch/stride_prefetcher.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace cmpsim {

namespace {
constexpr unsigned kRecentMissWindow = 8;

/** Key of an entry that cannot match: real lines are non-negative,
 *  and a valid key is at least -max_stride. */
constexpr std::int64_t kNoKey = std::numeric_limits<std::int64_t>::min();
} // namespace

StridePrefetcher::FilterTable::FilterTable(unsigned size,
                                           std::int64_t match_stride)
    : entries(size), match_stride_(match_stride), keys_(size, kNoKey),
      newer_(size, kNone), older_(size, kNone)
{
    cmpsim_assert(size > 0 && size <= 64,
                  "a filter table holds 1 to 64 entries");
    clear();
}

int
StridePrefetcher::FilterTable::match(std::int64_t line) const
{
    std::uint64_t hits = 0;
    for (unsigned i = 0; i < keys_.size(); ++i)
        hits |= static_cast<std::uint64_t>(keys_[i] == line) << i;
    return hits != 0 ? __builtin_ctzll(hits) : -1;
}

unsigned
StridePrefetcher::FilterTable::victim() const
{
    return invalid_ != 0 ? static_cast<unsigned>(__builtin_ctzll(invalid_))
                         : lru_;
}

void
StridePrefetcher::FilterTable::unlink(unsigned i)
{
    const std::uint8_t n = newer_[i];
    const std::uint8_t o = older_[i];
    (n != kNone ? older_[n] : mru_) = o;
    (o != kNone ? newer_[o] : lru_) = n;
}

void
StridePrefetcher::FilterTable::linkMru(unsigned i)
{
    newer_[i] = kNone;
    older_[i] = mru_;
    (mru_ != kNone ? newer_[mru_] : lru_) = static_cast<std::uint8_t>(i);
    mru_ = static_cast<std::uint8_t>(i);
}

void
StridePrefetcher::FilterTable::touch(unsigned i)
{
    const std::uint64_t bit = std::uint64_t{1} << i;
    if ((invalid_ & bit) != 0)
        invalid_ &= ~bit;
    else
        unlink(i);
    linkMru(i);
    const std::int64_t s = stride(i);
    keys_[i] = s != 0 ? entries[i].last_line + s : kNoKey;
}

void
StridePrefetcher::FilterTable::retire(unsigned i)
{
    entries[i].valid = false;
    keys_[i] = kNoKey;
    unlink(i);
    invalid_ |= std::uint64_t{1} << i;
}

void
StridePrefetcher::FilterTable::clear()
{
    for (FilterEntry &e : entries)
        e.valid = false;
    reindex();
}

void
StridePrefetcher::FilterTable::reindex()
{
    const auto n = static_cast<unsigned>(entries.size());
    invalid_ = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    mru_ = lru_ = kNone;
    std::uint8_t order[64];
    unsigned valid = 0;
    for (unsigned i = 0; i < n; ++i) {
        keys_[i] = kNoKey;
        if (entries[i].valid)
            order[valid++] = static_cast<std::uint8_t>(i);
    }
    // Oldest (lru, index) first, so it ends at the LRU end.
    std::sort(order, order + valid, [this](std::uint8_t x, std::uint8_t y) {
        return entries[x].lru != entries[y].lru
                   ? entries[x].lru < entries[y].lru
                   : x < y;
    });
    for (unsigned k = 0; k < valid; ++k)
        touch(order[k]);
}

StridePrefetcher::StridePrefetcher(const PrefetcherParams &params)
    : params_(params), pos_unit_(params.filter_entries, +1),
      neg_unit_(params.filter_entries, -1),
      non_unit_(params.filter_entries, 0), streams_(params.stream_entries)
{
    cmpsim_assert(params.filter_entries > 0);
    cmpsim_assert(params.stream_entries > 0);
    cmpsim_assert(params.train_count >= 2);
    cmpsim_assert(params.startup_prefetches <= kMaxStartupPrefetches);
}

PrefetchList
StridePrefetcher::trainFilter(FilterTable &table, unsigned i,
                              std::int64_t line, unsigned startup_limit)
{
    FilterEntry &e = table.entries[i];
    e.last_line = line;
    e.lru = tick_;
    if (++e.count >= params_.train_count) {
        const std::int64_t stride = table.stride(i);
        table.retire(i);
        return startup_limit ? allocStream(line, stride, startup_limit)
                             : PrefetchList{};
    }
    table.touch(i);
    return {};
}

void
StridePrefetcher::allocFilter(FilterTable &table, std::int64_t line,
                              std::int64_t stride, unsigned count)
{
    ++filter_allocs_;
    const unsigned i = table.victim();
    FilterEntry &e = table.entries[i];
    e.valid = true;
    e.last_line = line;
    e.stride = stride;
    e.count = count;
    e.lru = tick_;
    table.touch(i);
}

bool
StridePrefetcher::samePage(std::int64_t a, std::int64_t b) const
{
    if (params_.page_lines == 0)
        return true;
    return static_cast<std::uint64_t>(a) / params_.page_lines ==
           static_cast<std::uint64_t>(b) / params_.page_lines;
}

PrefetchList
StridePrefetcher::allocStream(std::int64_t line, std::int64_t stride,
                              unsigned startup_limit)
{
    const unsigned n =
        std::min(params_.startup_prefetches, startup_limit);
    if (n == 0)
        return {};

    StreamEntry *victim = &streams_[0];
    for (auto &s : streams_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (s.lru < victim->lru)
            victim = &s;
    }

    ++streams_alloc_;
    victim->valid = true;
    victim->stride = stride;
    victim->lru = tick_;

    PrefetchList out;
    for (unsigned i = 1; i <= n; ++i) {
        const std::int64_t l = line + stride * static_cast<int>(i);
        if (l < 0 || !samePage(line, l))
            break;
        out.push_back(static_cast<Addr>(l) << kLineShift);
    }
    generated_ += out.size();

    victim->last_demand = line;
    victim->next_pf = line + stride * static_cast<int>(n) + stride;
    return out;
}

bool
StridePrefetcher::streamCovers(std::int64_t delta, std::int64_t stride,
                               std::int64_t span)
{
    // With steps = delta / stride and depth = span / stride (both
    // truncating), the window is delta % stride == 0 and
    // 1 <= steps <= depth. steps >= 1 means delta has stride's sign;
    // then steps <= depth is delta <= span for a rising stream and
    // delta >= span for a falling one, for any span (a span against
    // the stride gives depth <= 0 and fails both forms). So only the
    // lattice test divides, and unit strides skip it.
    const bool ahead = stride > 0 ? delta > 0 && delta <= span
                                  : delta < 0 && delta >= span;
    return ahead && (stride == 1 || stride == -1 || delta % stride == 0);
}

StridePrefetcher::StreamEntry *
StridePrefetcher::findStream(std::int64_t line)
{
    // A line belongs to a stream only if it lies on the stride
    // lattice between the demand head and the prefetch head — the
    // region the stream has actually prefetched. (An unbounded
    // window would let unrelated hot-region misses "advance" streams
    // and run them away from the demand stream.)
    for (auto &s : streams_) {
        if (s.valid && streamCovers(line - s.last_demand, s.stride,
                                    s.next_pf - s.last_demand))
            return &s;
    }
    return nullptr;
}

PrefetchList
StridePrefetcher::advanceStream(StreamEntry &stream, std::int64_t line,
                                unsigned startup_limit)
{
    stream.lru = tick_;
    // The demand head has reached `line`.
    if ((line - stream.last_demand) * (stream.stride > 0 ? 1 : -1) > 0)
        stream.last_demand = line;
    if (startup_limit == 0)
        return {};
    if (stream.next_pf < 0) {
        stream.valid = false;
        return {};
    }
    ++stream_advances_;
    PrefetchList out;
    // The demand head moved; keep the prefetch head a bounded
    // distance in front of it (the startup depth), as the Power4
    // ramping scheme does.
    const std::int64_t ahead =
        (stream.next_pf - stream.last_demand) / stream.stride;
    if (ahead <= static_cast<std::int64_t>(startup_limit) &&
        samePage(stream.last_demand, stream.next_pf)) {
        ++generated_;
        out.push_back(static_cast<Addr>(stream.next_pf) << kLineShift);
        stream.next_pf += stream.stride;
    }
    return out;
}

PrefetchList
StridePrefetcher::observeMiss(Addr line_addr, unsigned startup_limit)
{
    ++tick_;
    const auto line = static_cast<std::int64_t>(lineNumber(line_addr));

    // A miss inside an active stream window (the prefetch was dropped
    // or already evicted): keep the stream alive and move it along.
    if (StreamEntry *s = findStream(line))
        return advanceStream(*s, line, startup_limit);

    // Positive unit stride, then negative unit stride, then non-unit
    // stride (stride learned per entry).
    if (const int i = pos_unit_.match(line); i >= 0)
        return trainFilter(pos_unit_, static_cast<unsigned>(i), line,
                           startup_limit);
    if (const int i = neg_unit_.match(line); i >= 0)
        return trainFilter(neg_unit_, static_cast<unsigned>(i), line,
                           startup_limit);
    if (const int i = non_unit_.match(line); i >= 0)
        return trainFilter(non_unit_, static_cast<unsigned>(i), line,
                           startup_limit);

    // No match: start tracking this miss. Unit tables learn from the
    // address alone; the non-unit table pairs it with a recent miss.
    allocFilter(pos_unit_, line, +1, 1);
    allocFilter(neg_unit_, line, -1, 1);
    for (const std::int64_t m : recent_misses_) {
        const std::int64_t d = line - m;
        if (d != 0 && std::abs(d) > 1 &&
            std::abs(d) <= params_.max_stride) {
            allocFilter(non_unit_, line, d, 2);
            break;
        }
    }
    recent_misses_.push_back(line);
    if (recent_misses_.size() > kRecentMissWindow)
        recent_misses_.pop_front();
    return {};
}

PrefetchList
StridePrefetcher::observeUse(Addr line_addr, unsigned startup_limit)
{
    ++tick_;
    const auto line = static_cast<std::int64_t>(lineNumber(line_addr));
    if (StreamEntry *s = findStream(line))
        return advanceStream(*s, line, startup_limit);
    return {};
}

void
StridePrefetcher::registerStats(StatRegistry &reg,
                                const std::string &prefix)
{
    reg.registerCounter(prefix + ".streams", &streams_alloc_);
    reg.registerCounter(prefix + ".generated", &generated_);
    reg.registerCounter(prefix + ".filter_allocs", &filter_allocs_);
    reg.registerCounter(prefix + ".advances", &stream_advances_);
}

void
StridePrefetcher::resetStats()
{
    streams_alloc_.reset();
    generated_.reset();
    filter_allocs_.reset();
    stream_advances_.reset();
}

void
StridePrefetcher::clear()
{
    pos_unit_.clear();
    neg_unit_.clear();
    non_unit_.clear();
    for (auto &s : streams_)
        s.valid = false;
    recent_misses_.clear();
}

} // namespace cmpsim
