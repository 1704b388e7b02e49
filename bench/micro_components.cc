/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrates: the
 * decoupled variable-segment set, the stride prefetcher, the event
 * kernel, the priority link, and the functional L2 access path that
 * dominates warmup time.
 */

#include <benchmark/benchmark.h>

#include <queue>

#include "src/cache/decoupled_set.h"
#include "src/common/random.h"
#include "src/cache/l2_cache.h"
#include "src/compression/fpc.h"
#include "src/mem/priority_link.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sim/event_queue.h"

namespace {

using namespace cmpsim;

/**
 * The pre-optimization event kernel, kept here as the baseline the
 * EventQueue benchmarks compare against: std::priority_queue with
 * either copy-on-pop (the original) or move-on-pop (the first fix).
 */
template <bool MovePop>
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return now_; }

    void
    schedule(Cycle when, Callback cb)
    {
        heap_.push(Event{when, next_seq_++, std::move(cb)});
    }

    void
    drain()
    {
        while (!heap_.empty()) {
            Event ev = MovePop
                           ? std::move(const_cast<Event &>(heap_.top()))
                           : heap_.top();
            heap_.pop();
            now_ = ev.when;
            ev.cb();
        }
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
};

/**
 * Fat capture block matching what simulator callbacks carry (this +
 * address + request metadata): pushes the std::function past the
 * small-object buffer so pop-by-copy pays a real allocation, exactly
 * as the production continuations do.
 */
struct FatPayload
{
    std::uint64_t *sink;
    std::uint64_t addr;
    std::uint64_t meta;
    std::uint64_t cycle;
};

template <typename Queue>
void
runScheduleDrainBatch(Queue &q, std::uint64_t &sink)
{
    FatPayload p{&sink, 0x1000, 7, 0};
    for (int i = 0; i < 16; ++i) {
        p.addr += 64;
        q.schedule(q.now() + 1 + (i * 7) % 13,
                   [p] { *p.sink += p.addr + p.meta; });
    }
    q.drain();
}

void
BM_DecoupledSetInsert(benchmark::State &state)
{
    DecoupledSet set(8, 32);
    Random rng(1);
    std::uint64_t line = 0;
    for (auto _ : state) {
        TagEntry e;
        e.line = (line++ % 64) << kLineShift;
        e.valid = true;
        e.segments = static_cast<std::uint8_t>(rng.inRange(1, 8));
        if (set.find(e.line) == nullptr)
            benchmark::DoNotOptimize(set.insert(e));
        else
            set.touch(e.line);
    }
}
BENCHMARK(BM_DecoupledSetInsert);

void
BM_DecoupledSetLookup(benchmark::State &state)
{
    DecoupledSet set(8, 32);
    for (Addr a = 0; a < 6; ++a) {
        TagEntry e;
        e.line = a << kLineShift;
        e.valid = true;
        e.segments = 5;
        set.insert(e);
    }
    Addr probe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            set.find(((probe++) % 8) << kLineShift));
    }
}
BENCHMARK(BM_DecoupledSetLookup);

void
BM_PrefetcherObserveMiss(benchmark::State &state)
{
    PrefetcherParams p;
    p.startup_prefetches = 25;
    StridePrefetcher pf(p);
    std::uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pf.observeMiss((line++ & 0xffff) << kLineShift, 25));
    }
}
BENCHMARK(BM_PrefetcherObserveMiss);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 5, [&sink] { ++sink; });
        eq.schedule(eq.now() + 3, [&sink] { ++sink; });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The copy-on-pop/move-on-pop/timing-wheel progression on the same
// schedule-then-drain workload (16 fat-capture events per iteration).
void
BM_EventKernelLegacyCopyPop(benchmark::State &state)
{
    LegacyEventQueue<false> eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelLegacyCopyPop);

void
BM_EventKernelLegacyMovePop(benchmark::State &state)
{
    LegacyEventQueue<true> eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelLegacyMovePop);

void
BM_EventKernelTimingWheel(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state)
        runScheduleDrainBatch(eq, sink);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelTimingWheel);

// Cascading same-cycle continuations (the cache-bank -> link ->
// directory pattern): each continuation is an append to the wheel
// bucket of the executing cycle. The legacy variant pays a heap push
// + sift per continuation.
void
BM_EventKernelLegacyCascade(benchmark::State &state)
{
    LegacyEventQueue<true> eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 1, [&] {
            for (int i = 0; i < 8; ++i)
                eq.schedule(eq.now(), [&sink] { ++sink; });
        });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventKernelLegacyCascade);

void
BM_EventQueueSameCycleCascade(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.now() + 1, [&] {
            for (int i = 0; i < 8; ++i)
                eq.schedule(eq.now(), [&sink] { ++sink; });
        });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueSameCycleCascade);

// Burst scheduling with and without pre-sized storage: CmpSystem
// reserves cores x ROB entries up front, so the slab never grows
// mid-run. The batch is
// drained outside the reserve so growth cost recurs every iteration
// in the no-reserve variant.
void
BM_EventQueueBurstNoReserve(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (int i = 0; i < 512; ++i)
            eq.schedule(static_cast<Cycle>(1 + (i % 7)),
                        [&sink] { ++sink; });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueBurstNoReserve);

void
BM_EventQueueBurstWithReserve(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        eq.reserve(512);
        for (int i = 0; i < 512; ++i)
            eq.schedule(static_cast<Cycle>(1 + (i % 7)),
                        [&sink] { ++sink; });
        eq.drain();
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueBurstWithReserve);

void
BM_PriorityLinkSend(benchmark::State &state)
{
    EventQueue eq;
    PriorityLink link(eq, 4.0, false);
    for (auto _ : state) {
        link.send(72, LinkClass::Demand, eq.now(), nullptr);
        link.send(72, LinkClass::Prefetch, eq.now(), nullptr);
        eq.drain();
    }
}
BENCHMARK(BM_PriorityLinkSend);

// The observability probes live permanently in the hot paths; these
// two pin down their disarmed cost (one relaxed atomic load plus a
// predictable branch — compare against BM_EventQueueScheduleRun-level
// numbers, not zero, since the loop itself isn't free).
void
BM_TraceProbeDisabled(benchmark::State &state)
{
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        traceInstant("bench.probe", ++cycle,
                     {{"line", std::uint64_t{0x1000}}});
        benchmark::DoNotOptimize(cycle);
    }
}
BENCHMARK(BM_TraceProbeDisabled);

void
BM_ProfScopeDisabled(benchmark::State &state)
{
    std::uint64_t sink = 0;
    for (auto _ : state) {
        CMPSIM_PROF_SCOPE("bench.prof_probe");
        benchmark::DoNotOptimize(++sink);
    }
}
BENCHMARK(BM_ProfScopeDisabled);

void
BM_L2FunctionalAccess(benchmark::State &state)
{
    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values(fpc);
    MemoryParams mp;
    MainMemory mem(eq, values, mp);
    L2Params p2;
    p2.sets = 1024;
    p2.banks = 8;
    p2.cores = 1;
    L2Cache l2(eq, values, mem, p2);
    l2.setFunctionalMode(true);
    Random rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(l2.accessFunctional(
            0, (rng.below(4096)) << kLineShift, false,
            ReqType::Demand));
    }
}
BENCHMARK(BM_L2FunctionalAccess);

} // namespace

BENCHMARK_MAIN();
