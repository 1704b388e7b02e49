#include "src/prefetch/stride_prefetcher.h"

#include <gtest/gtest.h>

#include "src/ckpt/checkpoint.h"
#include "src/common/random.h"
#include "src/core_api/cmp_system.h"
#include "src/prefetch/adaptive_controller.h"
#include "src/workload/workload_params.h"
#include "tests/reference_stride_prefetcher.h"

namespace cmpsim {
namespace {

Addr
la(std::uint64_t line)
{
    return line << kLineShift;
}

PrefetcherParams
l1Params()
{
    PrefetcherParams p;
    p.startup_prefetches = 6;
    return p;
}

PrefetcherParams
l2Params()
{
    PrefetcherParams p;
    p.startup_prefetches = 25;
    return p;
}

TEST(StridePrefetcherTest, NoPrefetchBeforeFourMisses)
{
    StridePrefetcher pf(l1Params());
    EXPECT_TRUE(pf.observeMiss(la(100), 6).empty());
    EXPECT_TRUE(pf.observeMiss(la(101), 6).empty());
    EXPECT_TRUE(pf.observeMiss(la(102), 6).empty());
    EXPECT_EQ(pf.streamsAllocated(), 0u);
}

TEST(StridePrefetcherTest, FourthUnitStrideMissLaunchesStartupBurst)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 103; ++l)
        EXPECT_TRUE(pf.observeMiss(la(l), 6).empty());
    const auto out = pf.observeMiss(la(103), 6);
    ASSERT_EQ(out.size(), 6u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(out[i], la(104 + i));
    EXPECT_EQ(pf.streamsAllocated(), 1u);
    EXPECT_EQ(pf.prefetchesGenerated(), 6u);
}

TEST(StridePrefetcherTest, NegativeUnitStrideDetected)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 203; l > 200; --l)
        EXPECT_TRUE(pf.observeMiss(la(l), 6).empty());
    const auto out = pf.observeMiss(la(200), 6);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], la(199));
    EXPECT_EQ(out[5], la(194));
}

TEST(StridePrefetcherTest, NonUnitStrideDetected)
{
    StridePrefetcher pf(l1Params());
    // Stride of 3 lines: 100, 103, 106, 109.
    EXPECT_TRUE(pf.observeMiss(la(100), 6).empty());
    EXPECT_TRUE(pf.observeMiss(la(103), 6).empty()); // learns stride 3
    EXPECT_TRUE(pf.observeMiss(la(106), 6).empty()); // count 3
    const auto out = pf.observeMiss(la(109), 6);     // count 4: stream
    ASSERT_EQ(out.size(), 6u);
    EXPECT_EQ(out[0], la(112));
    EXPECT_EQ(out[1], la(115));
}

TEST(StridePrefetcherTest, StrideBeyondMaxNotLearned)
{
    PrefetcherParams p = l1Params();
    p.max_stride = 8;
    StridePrefetcher pf(p);
    for (std::uint64_t l = 100; l <= 100 + 16 * 10; l += 16)
        EXPECT_TRUE(pf.observeMiss(la(l), 6).empty());
    EXPECT_EQ(pf.streamsAllocated(), 0u);
}

TEST(StridePrefetcherTest, UseAdvancesStreamOneLine)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 104; ++l)
        pf.observeMiss(la(l), 6);
    // Startup window is 104..109; first use advances to 110.
    const auto out = pf.observeUse(la(104), 6);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], la(110));
    // And the window now includes 110.
    const auto out2 = pf.observeUse(la(110), 6);
    ASSERT_EQ(out2.size(), 1u);
    EXPECT_EQ(out2[0], la(111));
}

TEST(StridePrefetcherTest, UseOutsideAnyStreamIsIgnored)
{
    StridePrefetcher pf(l1Params());
    EXPECT_TRUE(pf.observeUse(la(500), 6).empty());
}

TEST(StridePrefetcherTest, MissInsideWindowKeepsStreamAlive)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 104; ++l)
        pf.observeMiss(la(l), 6);
    // A demand miss at 105 (prefetch evicted): stream advances anyway.
    const auto out = pf.observeMiss(la(105), 6);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], la(110));
}

TEST(StridePrefetcherTest, L2StartupIsTwentyFive)
{
    // Lines 2560..2588 all sit inside one 128-line page.
    StridePrefetcher pf(l2Params());
    for (std::uint64_t l = 2560; l < 2563; ++l)
        pf.observeMiss(la(l), 25);
    EXPECT_EQ(pf.observeMiss(la(2563), 25).size(), 25u);
}

TEST(StridePrefetcherTest, BurstStopsAtPageBoundary)
{
    // Training ends at line 123; page 0 ends at line 127: only 4 of
    // the 25 startup prefetches fit (hardware prefetchers cannot
    // cross a physical page).
    StridePrefetcher pf(l2Params());
    for (std::uint64_t l = 120; l < 123; ++l)
        pf.observeMiss(la(l), 25);
    const auto out = pf.observeMiss(la(123), 25);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out.back(), la(127));
    // Advances refuse to cross the boundary too.
    EXPECT_TRUE(pf.observeUse(la(124), 25).empty());
}

TEST(StridePrefetcherTest, StartupLimitThrottlesBurst)
{
    StridePrefetcher pf(l2Params());
    for (std::uint64_t l = 100; l < 103; ++l)
        pf.observeMiss(la(l), 25);
    EXPECT_EQ(pf.observeMiss(la(103), 3).size(), 3u);
}

TEST(StridePrefetcherTest, ZeroLimitDisablesCompletely)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 110; ++l)
        EXPECT_TRUE(pf.observeMiss(la(l), 0).empty());
    EXPECT_EQ(pf.streamsAllocated(), 0u);
    EXPECT_EQ(pf.prefetchesGenerated(), 0u);
}

TEST(StridePrefetcherTest, InterleavedStreamsBothDetected)
{
    StridePrefetcher pf(l1Params());
    unsigned bursts = 0;
    for (std::uint64_t i = 0; i < 4; ++i) {
        bursts += !pf.observeMiss(la(1000 + i), 6).empty();
        bursts += !pf.observeMiss(la(5000 + i * 2), 6).empty();
    }
    EXPECT_EQ(bursts, 2u);
    EXPECT_EQ(pf.streamsAllocated(), 2u);
}

TEST(StridePrefetcherTest, StreamTableEvictsLru)
{
    PrefetcherParams p = l1Params();
    p.stream_entries = 2;
    StridePrefetcher pf(p);
    // Train three streams; the first should be evicted.
    for (std::uint64_t base : {1000u, 2000u, 3000u}) {
        for (std::uint64_t i = 0; i < 4; ++i)
            pf.observeMiss(la(base + i), 6);
    }
    EXPECT_EQ(pf.streamsAllocated(), 3u);
    // Stream 1's window (1004..1009) is gone: use does nothing.
    EXPECT_TRUE(pf.observeUse(la(1004), 6).empty());
    // Stream 3's window is alive.
    EXPECT_FALSE(pf.observeUse(la(3004), 6).empty());
}

TEST(StridePrefetcherTest, NegativeStreamStopsAtLineZero)
{
    StridePrefetcher pf(l1Params());
    pf.observeMiss(la(7), 6);
    pf.observeMiss(la(6), 6);
    pf.observeMiss(la(5), 6);
    const auto out = pf.observeMiss(la(4), 6);
    // Only lines 3,2,1,0 exist below 4.
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(out.back(), la(0));
}

TEST(StridePrefetcherTest, ClearDropsAllState)
{
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 104; ++l)
        pf.observeMiss(la(l), 6);
    pf.clear();
    EXPECT_TRUE(pf.observeUse(la(104), 6).empty());
    // Training starts over.
    EXPECT_TRUE(pf.observeMiss(la(300), 6).empty());
}

TEST(AdaptiveControllerTest, DisabledAlwaysAllowsMax)
{
    AdaptivePrefetchController ctl(25, /*enabled=*/false);
    for (int i = 0; i < 100; ++i)
        ctl.onUselessPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 25u);
    EXPECT_EQ(ctl.uselessCount(), 100u);
}

TEST(AdaptiveControllerTest, UselessAndHarmfulThrottle)
{
    AdaptivePrefetchController ctl(6, true);
    EXPECT_EQ(ctl.allowedStartup(), 6u);
    ctl.onUselessPrefetch();
    ctl.onHarmfulPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 4u);
    for (int i = 0; i < 10; ++i)
        ctl.onUselessPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 0u);
}

TEST(AdaptiveControllerTest, UsefulPrefetchesRecover)
{
    AdaptivePrefetchController ctl(6, true);
    for (int i = 0; i < 6; ++i)
        ctl.onUselessPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 0u);
    ctl.onUsefulPrefetch();
    ctl.onUsefulPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 2u);
    for (int i = 0; i < 100; ++i)
        ctl.onUsefulPrefetch();
    EXPECT_EQ(ctl.allowedStartup(), 6u);
}

TEST(AdaptiveControllerTest, ThrottledPrefetcherEndToEnd)
{
    // Counter at 2 limits the startup burst of a fresh stream.
    AdaptivePrefetchController ctl(6, true);
    for (int i = 0; i < 4; ++i)
        ctl.onUselessPrefetch();
    StridePrefetcher pf(l1Params());
    for (std::uint64_t l = 100; l < 103; ++l)
        pf.observeMiss(la(l), ctl.allowedStartup());
    EXPECT_EQ(pf.observeMiss(la(103), ctl.allowedStartup()).size(), 2u);
}

/** findStream's window test as first written, with three divisions. */
bool
coversByDivision(std::int64_t delta, std::int64_t stride, std::int64_t span)
{
    if (delta == 0 || delta % stride != 0)
        return false;
    const std::int64_t steps = delta / stride;
    const std::int64_t depth = span / stride;
    return steps > 0 && steps <= depth;
}

TEST(StridePrefetcherTest, WindowTestMatchesDivisionFormula)
{
    Random rng(11);
    unsigned covered = 0;
    for (unsigned i = 0; i < 400000; ++i) {
        // Unit strides half the time; non-unit up to +-max_stride.
        std::int64_t stride = rng.below(2) ? 1 : static_cast<std::int64_t>(
                                                     rng.inRange(2, 32));
        if (rng.below(2))
            stride = -stride;
        // Spans near a whole number of strides (the stream's depth),
        // either sign, with jitter; deltas around the same range.
        const auto depth = static_cast<std::int64_t>(rng.inRange(0, 30)) -
                           3;
        const std::int64_t span =
            depth * stride + static_cast<std::int64_t>(rng.below(5)) - 2;
        const std::int64_t delta =
            rng.below(2)
                ? static_cast<std::int64_t>(rng.inRange(0, 40)) * stride -
                      stride * 4 + static_cast<std::int64_t>(rng.below(3)) -
                      1
                : static_cast<std::int64_t>(rng.inRange(0, 2000)) - 1000;
        const bool expect = coversByDivision(delta, stride, span);
        ASSERT_EQ(StridePrefetcher::streamCovers(delta, stride, span), expect)
            << "delta=" << delta << " stride=" << stride << " span=" << span;
        covered += expect;
    }
    // The stream draws must exercise both verdicts heavily.
    EXPECT_GT(covered, 20000u);
}

// ---- Differential test against the reference Power4 engine ---------

std::string
encodeEngine(const StridePrefetcher &pf)
{
    ckpt::Encoder e;
    CheckpointCodec::encodePrefetcher(e, pf);
    return e.take();
}

TEST(StridePrefetcherDiffTest, MatchesReferenceOnRandomStreams)
{
    for (const PrefetcherParams params : {l1Params(), l2Params()}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            SCOPED_TRACE(testing::Message()
                         << "startup " << params.startup_prefetches
                         << " seed " << seed);
            Random rng(seed);
            StridePrefetcher real(params);
            ReferenceStridePrefetcher ref(params);
            // A few concurrent walkers (unit and non-unit strides,
            // both directions, crossing 128-line pages) plus random
            // misses; uses of issued prefetches feed observeUse().
            struct Walker
            {
                std::int64_t line, stride;
            };
            std::vector<Walker> walkers(4);
            std::vector<Addr> issued;
            for (unsigned step = 0; step < 60000; ++step) {
                Walker &w = walkers[rng.below(walkers.size())];
                if (step % 500 == 0 || w.line < 64) {
                    const std::int64_t strides[] = {1, -1, 1, -1, 2, -3, 5,
                                                    16, -32, 40};
                    w.stride = strides[rng.below(10)];
                    w.line = static_cast<std::int64_t>(
                        rng.inRange(1000, 1 << 20));
                }
                const unsigned limit =
                    rng.below(8) == 0 ? 0 : static_cast<unsigned>(
                                                rng.inRange(1, 25));
                Addr addr;
                std::vector<Addr> got, want;
                if (!issued.empty() && rng.below(3) == 0) {
                    addr = issued[rng.below(issued.size())];
                    const PrefetchList r = real.observeUse(addr, limit);
                    got.assign(r.begin(), r.end());
                    want = ref.observeUse(addr, limit);
                } else {
                    w.line += w.stride;
                    addr = rng.below(10) == 0
                               ? static_cast<Addr>(rng.below(1 << 22))
                                     << kLineShift
                               : static_cast<Addr>(w.line) << kLineShift;
                    const PrefetchList r = real.observeMiss(addr, limit);
                    got.assign(r.begin(), r.end());
                    want = ref.observeMiss(addr, limit);
                }
                ASSERT_EQ(got, want) << "step " << step << " addr "
                                     << std::hex << addr;
                issued.insert(issued.end(), got.begin(), got.end());
                if (issued.size() > 256)
                    issued.erase(issued.begin(), issued.begin() + 128);
                if (step % 1000 == 0) {
                    ASSERT_EQ(encodeEngine(real), ref.encode()) << step;
                }
            }
            EXPECT_EQ(encodeEngine(real), ref.encode());
            EXPECT_GT(real.streamsAllocated(), 100u);
        }
    }
}

/** Demand-miss line addresses of a short 4-core zeus run with
 *  prefetching on, captured at the shared L2 in arrival order. */
const std::vector<Addr> &
zeusMissStream()
{
    static const std::vector<Addr> misses = [] {
        CmpSystem sys(makeConfig(4, 4, true, false, true, true),
                      benchmarkParams("zeus"));
        std::vector<Addr> out;
        sys.l2().setMissObserver([&out](ReqType t, Addr line) {
            if (t == ReqType::Demand)
                out.push_back(line);
        });
        sys.warmup(20000);
        sys.run(200000);
        return out;
    }();
    return misses;
}

TEST(StridePrefetcherDiffTest, MatchesReferenceOnCapturedZeusMisses)
{
    const std::vector<Addr> &misses = zeusMissStream();
    ASSERT_GT(misses.size(), 5000u);
    for (const PrefetcherParams params : {l1Params(), l2Params()}) {
        SCOPED_TRACE(testing::Message()
                     << "startup " << params.startup_prefetches);
        StridePrefetcher real(params);
        ReferenceStridePrefetcher ref(params);
        std::vector<Addr> issued;
        for (std::size_t i = 0; i < misses.size(); ++i) {
            // Every fourth step is the first use of a line the engine
            // asked for, as a prefetch hit would report it.
            const bool use = !issued.empty() && i % 4 == 3;
            const Addr addr = use ? issued[i % issued.size()] : misses[i];
            std::vector<Addr> got;
            std::vector<Addr> want;
            if (use) {
                const PrefetchList r = real.observeUse(addr, params.startup_prefetches);
                got.assign(r.begin(), r.end());
                want = ref.observeUse(addr, params.startup_prefetches);
            } else {
                const PrefetchList r =
                    real.observeMiss(addr, params.startup_prefetches);
                got.assign(r.begin(), r.end());
                want = ref.observeMiss(addr, params.startup_prefetches);
            }
            ASSERT_EQ(got, want) << "miss " << i;
            issued.insert(issued.end(), got.begin(), got.end());
            if (issued.size() > 256)
                issued.erase(issued.begin(), issued.begin() + 128);
        }
        EXPECT_EQ(encodeEngine(real), ref.encode());
        EXPECT_GT(real.streamsAllocated(), 10u);
    }
}

TEST(StridePrefetcherDiffTest, CheckpointRoundTripKeepsTrainedBehaviour)
{
    const std::vector<Addr> &misses = zeusMissStream();
    const std::size_t train = misses.size() - 1000;
    ASSERT_GT(train, 4000u);
    const PrefetcherParams params = l2Params();
    StridePrefetcher trained(params);
    for (std::size_t i = 0; i < train; ++i)
        trained.observeMiss(misses[i], params.startup_prefetches);

    // Encode, decode into a fresh engine, encode again: the decoder
    // rebuilds the tables' match keys and recency order from the
    // entries alone, and must lose nothing the bytes carry.
    const std::string bytes = encodeEngine(trained);
    StridePrefetcher restored(params);
    ckpt::Decoder d(bytes);
    CheckpointCodec::decodePrefetcher(d, restored);
    d.expectEnd("prefetcher");
    ASSERT_EQ(encodeEngine(restored), bytes);

    // ...and must behave exactly like the engine that never left
    // memory, including its victim choices in full filter tables.
    for (std::size_t i = train; i < misses.size(); ++i) {
        const PrefetchList a =
            trained.observeMiss(misses[i], params.startup_prefetches);
        const PrefetchList b =
            restored.observeMiss(misses[i], params.startup_prefetches);
        ASSERT_EQ(std::vector<Addr>(a.begin(), a.end()),
                  std::vector<Addr>(b.begin(), b.end()))
            << "miss " << i;
    }
    EXPECT_EQ(encodeEngine(restored), encodeEngine(trained));
}

} // namespace
} // namespace cmpsim
