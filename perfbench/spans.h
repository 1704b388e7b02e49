/**
 * @file
 * In-memory span log for the benchmark's traced runs: one record
 * (name, start, end, parent) per call the harness makes into a cmpsim
 * layer. Spans are kept in memory while the run executes and written
 * out once at exit, so recording costs one clock read and one vector
 * append per span. A disarmed log records nothing.
 */

#ifndef CMPSIM_PERFBENCH_SPANS_H
#define CMPSIM_PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Quantile @p q of @p v, linearly interpolated (0 when empty). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start_us = 0;
        double end_us = 0;
        int parent = -1; ///< index of the enclosing span, -1 at the root
    };

    explicit SpanLog(bool armed) : armed_(armed), epoch_(Clock::now()) {}

    bool armed() const { return armed_; }

    /** Open a span under the innermost open one; -1 when disarmed. */
    int
    open(const std::string &name)
    {
        if (!armed_)
            return -1;
        spans_.push_back({name, nowUs(), 0, open_.empty() ? -1 : open_.back()});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end_us = nowUs();
        open_.pop_back();
    }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &name)
            : log_(log), id_(log.open(name))
        {
        }
        ~Scope() { log_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int id_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Total and self time (minus child spans) per span name, in s. */
    struct Totals
    {
        unsigned count = 0;
        double total_s = 0;
        double self_s = 0;
    };

    std::map<std::string, Totals>
    totals() const
    {
        std::vector<double> child_us(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child_us[static_cast<std::size_t>(s.parent)] +=
                    s.end_us - s.start_us;
        }
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const double dur = spans_[i].end_us - spans_[i].start_us;
            Totals &t = out[spans_[i].name];
            ++t.count;
            t.total_s += dur * 1e-6;
            t.self_s += (dur - child_us[i]) * 1e-6;
        }
        return out;
    }

    /** Write every span as a Chrome trace-event JSON array. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fputs("[\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,"
                         "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                         i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                         s.end_us - s.start_us, i, s.parent);
        }
        std::fputs("]\n", f);
        return std::fclose(f) == 0;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    bool armed_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // CMPSIM_PERFBENCH_SPANS_H
