/**
 * @file
 * Host-speed reference. The benchmark runs on shared machines whose
 * speed drifts by tens of percent over minutes as other tenants come
 * and go, which no number of repetitions inside one run averages out.
 * So before every timed call the harness also times a fixed reference
 * kernel, and reports each host timing scaled by the run's median of
 * kNominalNs / (reference time): the host time the work would take on
 * a host where the reference takes kNominalNs. Work on several threads
 * is scaled by the kernel timed on as many threads at once. The kernel is the
 * benchmark's own code, independent of cmpsim, so a change to the
 * simulator cannot move it. It walks a 32 KB table, small enough to
 * stay cached whatever ran before it, so it times the core's speed and
 * not the cache state the simulator left behind.
 */

#ifndef CMPSIM_PERFBENCH_REFERENCE_H
#define CMPSIM_PERFBENCH_REFERENCE_H

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

/** About the reference kernel's time on a calm 4-vCPU host of the kind
 *  the benchmark was tuned on; it only sets the scale of the numbers. */
constexpr double kNominalNs = 0.5e6;

/** Host time of one reference-kernel run, in ns. */
inline double
referenceNs()
{
    // One cycle through 8 Ki entries (Sattolo's shuffle driven by a
    // fixed xorshift), so every step is a dependent, unpredictable load.
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> v(1u << 13);
        for (std::uint32_t i = 0; i < v.size(); ++i)
            v[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = v.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::size_t j = x % i;
            std::swap(v[i], v[j]);
        }
        return v;
    }();
    const Clock::time_point t0 = Clock::now();
    std::uint32_t p = 0;
    std::uint64_t acc = 0;
    for (std::uint32_t k = 0; k < 200000; ++k) {
        p = next[p];
        acc = (acc ^ p) * 0x100000001b3ull + k;
    }
    // Keep acc observable so the walk cannot be optimised away.
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(acc, std::memory_order_relaxed);
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/**
 * Host speed seen by @p threads reference runs at once — the median
 * of their kNominalNs / ns — for timings of work that keeps that many
 * cores busy, which other tenants slow more than one core.
 */
inline double
parallelHostSpeed(unsigned threads)
{
    std::vector<double> ns(threads, 0.0);
    {
        std::vector<std::jthread> others;
        for (unsigned t = 1; t < threads; ++t)
            others.emplace_back([&ns, t] { ns[t] = referenceNs(); });
        ns[0] = referenceNs();
    }
    std::vector<double> speed;
    for (const double n : ns)
        speed.push_back(kNominalNs / n);
    return median(speed);
}

} // namespace perfbench

#endif // CMPSIM_PERFBENCH_REFERENCE_H
