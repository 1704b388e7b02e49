#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
    // Stress the intrusive heap: many events at duplicated cycles
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

} // namespace
} // namespace cmpsim
