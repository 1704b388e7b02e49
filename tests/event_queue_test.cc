#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace cmpsim {
namespace {

TEST(EventQueueTest, StartsEmptyAtCycleZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventCycle(), kCycleNever);
}

TEST(EventQueueTest, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, SameCycleEventsRunInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.schedule(2, [&] {
            ++fired;
            eq.schedule(5, [&] { ++fired; });
        });
    });
    eq.drain();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueueTest, AdvanceToRunsOnlyDueEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(15, [&] { ++fired; });
    eq.advanceTo(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.nextEventCycle(), 15u);
    eq.advanceTo(15);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, NowTracksEventBeingRun)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.schedule(42, [&] { seen = eq.now(); });
    eq.drain();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueueTest, DrainWithLimitLeavesFutureEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    EXPECT_EQ(eq.drain(50), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
}

TEST(EventQueueTest, ZeroDelayEventAtCurrentCycleRuns)
{
    EventQueue eq;
    eq.advanceTo(10);
    bool ran = false;
    eq.schedule(10, [&] { ran = true; });
    eq.advanceTo(10);
    EXPECT_TRUE(ran);
}

TEST(EventQueueTest, SameCycleContinuationsRunAfterOlderPeers)
{
    // Events already pending at cycle T must run before continuations
    // scheduled back at T while T executes — strict (when, seq) order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.schedule(5, [&] { order.push_back(2); });
        eq.schedule(5, [&] { order.push_back(3); });
    });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(6, [&] { order.push_back(4); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, NestedSameCycleCascadeRunsToCompletion)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.schedule(eq.now(), chain);
    };
    eq.schedule(3, chain);
    EXPECT_EQ(eq.drain(), 10u);
    EXPECT_EQ(depth, 10);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, SizeAndNextCycleSeeSameCyclePendings)
{
    EventQueue eq;
    eq.advanceTo(4);
    eq.schedule(4, [] {});
    eq.schedule(9, [] {});
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.nextEventCycle(), 4u);
    eq.advanceTo(4);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventCycle(), 9u);
}

TEST(EventQueueTest, ReservePreservesOrderAndContents)
{
    EventQueue eq;
    eq.reserve(64);
    std::vector<int> order;
    for (int i = 0; i < 32; ++i)
        eq.schedule(static_cast<Cycle>(100 - i), [&order, i] {
            order.push_back(i);
        });
    eq.drain();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], 31 - i);
}

TEST(EventQueueTest, RunOneEarliestAdvancesNowPerEvent)
{
    EventQueue eq;
    std::vector<Cycle> seen;
    eq.schedule(3, [&] { seen.push_back(eq.now()); });
    eq.schedule(8, [&] { seen.push_back(eq.now()); });
    eq.runOneEarliest();
    eq.runOneEarliest();
    EXPECT_EQ(seen, (std::vector<Cycle>{3, 8}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, RunOneEarliestRunsHeapPeersBeforeContinuations)
{
    // A same-cycle continuation is younger than a heap entry already
    // pending at that cycle, so single-stepping must run the heap
    // entry first: exact (when, seq) order, as drain() would.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(0);
        eq.schedule(5, [&] { order.push_back(2); });
    });
    eq.schedule(5, [&] { order.push_back(1); });
    while (!eq.empty())
        eq.runOneEarliest();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, InterleavedCyclesKeepScheduleOrder)
{
    // Stress the wheel buckets: many events at duplicated cycles
    // must still pop in exact (when, seq) order.
    EventQueue eq;
    std::vector<std::pair<Cycle, int>> order;
    int n = 0;
    for (Cycle when : {30u, 10u, 20u, 10u, 30u, 20u, 10u, 40u, 10u}) {
        const int id = n++;
        eq.schedule(when, [&, when, id] { order.emplace_back(when, id); });
    }
    eq.drain();
    const std::vector<std::pair<Cycle, int>> expect = {
        {10, 1}, {10, 3}, {10, 6}, {10, 8}, {20, 2},
        {20, 5}, {30, 0}, {30, 4}, {40, 7},
    };
    EXPECT_EQ(order, expect);
}

TEST(EventQueueTest, CallbackSchedulingSeveralSlabChunksRunsInPlace)
{
    // One running callback schedules enough events to grow the slab by
    // several chunks; it runs in place, so its own captures must
    // survive the growth, and every new event must run in (when, seq)
    // order.
    EventQueue eq;
    std::vector<int> order;
    const std::vector<int> payload(64, 7);
    int payload_sum = 0;
    constexpr int kEvents = 1000;
    eq.schedule(1, [&, payload] {
        for (int i = 0; i < kEvents; ++i) {
            const Cycle when =
                i % 2 != 0 ? eq.now() : eq.now() + 1 + i % 5;
            eq.schedule(when, [&order, i] { order.push_back(i); });
        }
        payload_sum = std::accumulate(payload.begin(), payload.end(), 0);
    });
    eq.drain();
    EXPECT_EQ(payload_sum, 64 * 7);

    std::vector<std::pair<Cycle, int>> expect;
    for (int i = 0; i < kEvents; ++i)
        expect.emplace_back(i % 2 != 0 ? 1 : 2 + i % 5, i);
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(order.size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k)
        ASSERT_EQ(order[k], expect[k].second) << k;
}

/** Records the address it runs at: the slab slot it was built in. */
struct SlotProbe
{
    std::vector<const void *> *seen;
    void operator()() const { seen->push_back(this); }
};

TEST(EventQueueTest, FreedSlotsAreReusedAndOrderHolds)
{
    EventQueue eq;
    std::vector<const void *> seen;
    eq.schedule(1, SlotProbe{&seen});
    eq.drain();
    eq.schedule(2, SlotProbe{&seen});
    eq.drain();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], seen[1]); // the freed slot was handed out again

    // Random scheduling interleaved with single dispatches keeps
    // recycling slots; every dispatch must still be the (when, seq)
    // minimum of a reference model.
    std::set<std::pair<std::pair<Cycle, std::uint64_t>, int>> pending;
    std::uint64_t seq = 0;
    int ran = -1;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    for (int id = 0; id < 5000; ++id) {
        const Cycle when = eq.now() + next() % 8;
        eq.schedule(when, [&ran, id] { ran = id; });
        pending.insert({{when, seq++}, id});
        while (!pending.empty() && next() % 3 == 0) {
            eq.runOneEarliest();
            ASSERT_EQ(ran, pending.begin()->second) << id;
            ASSERT_EQ(eq.now(), pending.begin()->first.first);
            pending.erase(pending.begin());
        }
    }
    while (!pending.empty()) {
        eq.runOneEarliest();
        ASSERT_EQ(ran, pending.begin()->second);
        pending.erase(pending.begin());
    }
    EXPECT_TRUE(eq.empty());
}

/** A capture that counts destructions of its live (not moved-from)
 *  instances. */
struct Tracker
{
    int *destroyed;
    bool live = true;

    explicit Tracker(int *d) : destroyed(d) {}
    Tracker(Tracker &&o) noexcept : destroyed(o.destroyed), live(o.live)
    {
        o.live = false;
    }
    Tracker(const Tracker &) = delete;
    Tracker &operator=(const Tracker &) = delete;
    Tracker &operator=(Tracker &&) = delete;
    ~Tracker()
    {
        if (live)
            ++*destroyed;
    }
};

TEST(EventQueueTest, CallbacksAreDestroyedExactlyOnce)
{
    int destroyed = 0;
    {
        EventQueue eq;
        for (int i = 0; i < 300; ++i)
            eq.schedule(10 + i, [t = Tracker(&destroyed)] {});
        eq.schedule(5, [t = Tracker(&destroyed)] {});
        eq.advanceTo(5);
        // The callback that ran is destroyed right after running.
        EXPECT_EQ(destroyed, 1);
        // One more pending in the same-cycle FIFO at destruction.
        eq.schedule(5, [t = Tracker(&destroyed)] {});
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(destroyed, 302);
}

// ---- Differential test against a reference (when, seq) queue ------

/** The event kernel's contract written as directly as it reads: one
 *  ordered map from (when, seq) to callback. */
class ReferenceEventQueue
{
  public:
    Cycle now() const { return now_; }
    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    Cycle
    nextEventCycle() const
    {
        return q_.empty() ? kCycleNever : q_.begin()->first.first;
    }

    void
    schedule(Cycle when, std::function<void()> cb)
    {
        ASSERT_GE(when, now_);
        q_.emplace(std::make_pair(when, seq_++), std::move(cb));
    }

    void
    runOneEarliest()
    {
        const auto it = q_.begin();
        now_ = it->first.first;
        const std::function<void()> cb = std::move(it->second);
        q_.erase(it);
        cb();
    }

    std::uint64_t
    drain(Cycle limit = kCycleNever)
    {
        std::uint64_t n = 0;
        for (; !q_.empty() && q_.begin()->first.first <= limit; ++n)
            runOneEarliest();
        return n;
    }

    void
    advanceTo(Cycle when)
    {
        drain(when);
        now_ = when;
    }

  private:
    std::map<std::pair<Cycle, std::uint64_t>, std::function<void()>> q_;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
};

/** SplitMix64 finalizer: the per-event decisions of the driver. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Drives one queue through a scripted workload. Every event logs
 * (id, now) when it runs and may, as a function of its id alone,
 * schedule a same-cycle continuation or a later event (some past the
 * wheel horizon), so two queues with the same contract log the same.
 */
template <typename Q>
struct QueueDriver
{
    Q q;
    std::vector<std::pair<std::uint64_t, Cycle>> log;
    std::uint64_t next_id = 0;

    void
    add(Cycle when)
    {
        const std::uint64_t id = next_id++;
        q.schedule(when, [this, id] {
            log.emplace_back(id, q.now());
            const std::uint64_t h = mix(id);
            switch (h % 4) {
              case 0: // same-cycle continuation
                add(q.now());
                break;
              case 1: // later, up to past the horizon
                add(q.now() + (h >> 8) % 1500);
                break;
              default:
                break;
            }
        });
    }
};

TEST(EventQueueDiffTest, MatchesReferenceQueueOnRandomInterleavings)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        QueueDriver<EventQueue> real;
        QueueDriver<ReferenceEventQueue> ref;
        std::uint64_t rng = seed;
        auto draw = [&rng](std::uint64_t n) { return mix(rng++) % n; };
        std::size_t checked = 0; // log entries already compared
        for (int op = 0; op < 20000; ++op) {
            const Cycle now = real.q.now();
            switch (draw(10)) {
              case 0:
              case 1:
              case 2:
              case 3: { // schedule: same cycle, near, at or past the horizon
                const Cycle spans[] = {1, 8, 1024, 1040, 6000};
                Cycle when = now + draw(spans[draw(5)]);
                if (draw(4) == 0)
                    when = now + EventQueue::kWheelSlots - 2 + draw(4);
                real.add(when);
                ref.add(when);
                break;
              }
              case 4:
              case 5: {
                const Cycle to = now + draw(draw(2) == 0 ? 16 : 3000);
                real.q.advanceTo(to);
                ref.q.advanceTo(to);
                break;
              }
              case 6:
              case 7: { // a limit in the past, near, far or unbounded
                const Cycle limits[] = {now == 0 ? 0 : now - 1,
                                        now + draw(64), now + draw(5000),
                                        kCycleNever};
                const Cycle limit = limits[draw(draw(50) == 0 ? 4 : 3)];
                ASSERT_EQ(real.q.drain(limit), ref.q.drain(limit))
                    << "op " << op;
                break;
              }
              default:
                if (!ref.q.empty()) {
                    real.q.runOneEarliest();
                    ref.q.runOneEarliest();
                }
                break;
            }
            ASSERT_EQ(real.log.size(), ref.log.size()) << "op " << op;
            for (; checked < ref.log.size(); ++checked) {
                ASSERT_EQ(real.log[checked], ref.log[checked])
                    << "op " << op;
            }
            ASSERT_EQ(real.q.now(), ref.q.now()) << "op " << op;
            ASSERT_EQ(real.q.size(), ref.q.size()) << "op " << op;
            ASSERT_EQ(real.q.empty(), ref.q.empty()) << "op " << op;
            ASSERT_EQ(real.q.nextEventCycle(), ref.q.nextEventCycle())
                << "op " << op;
        }
        real.q.drain();
        ref.q.drain();
        EXPECT_EQ(real.log, ref.log);
        // The run wrapped the wheel many times and ran a lot of events.
        EXPECT_GT(real.q.now(), 100u * EventQueue::kWheelSlots);
        EXPECT_GT(real.log.size(), 10000u);
    }
}

} // namespace
} // namespace cmpsim
