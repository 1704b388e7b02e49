#include "src/core_api/cmp_system.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/common/sim_error.h"
#include "src/core_api/experiment.h"
#include "src/core_api/miss_classify.h"

namespace cmpsim {
namespace {

constexpr std::uint64_t kWarm = 60000;
constexpr std::uint64_t kMeasure = 15000;

/** Build, warm and run one config; returns the system for probing. */
std::unique_ptr<CmpSystem>
runSystem(SystemConfig cfg, const std::string &wl,
          std::uint64_t warm = kWarm, std::uint64_t measure = kMeasure)
{
    auto sys =
        std::make_unique<CmpSystem>(cfg, benchmarkParams(wl));
    sys->warmup(warm);
    sys->run(measure);
    return sys;
}

TEST(CmpSystemTest, RunsAndRetiresRequestedWork)
{
    auto sys = runSystem(makeConfig(8, 4, false, false, false, false),
                         "zeus");
    EXPECT_GE(sys->instructions(), 8u * kMeasure);
    EXPECT_GT(sys->cycles(), 0u);
    EXPECT_GT(sys->ipc(), 0.5);
    EXPECT_LT(sys->ipc(), 32.0);
}

TEST(CmpSystemTest, WarmupPopulatesCachesAndResetsStats)
{
    SystemConfig cfg = makeConfig(4, 4, false, false, false, false);
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.warmup(kWarm);
    // Caches warm but stats clean.
    EXPECT_GT(sys.l2().effectiveBytes(), 0u);
    EXPECT_EQ(sys.stats().counter("l2.demand_misses"), 0u);
    EXPECT_EQ(sys.memory().link().totalBytes(), 0u);
}

TEST(CmpSystemTest, DeterministicForSameSeed)
{
    const auto cfg = makeConfig(4, 4, true, true, true, true);
    auto a = runSystem(cfg, "apache");
    auto b = runSystem(cfg, "apache");
    EXPECT_EQ(a->cycles(), b->cycles());
    EXPECT_EQ(a->stats().counter("l2.demand_misses"),
              b->stats().counter("l2.demand_misses"));
}

TEST(CmpSystemTest, DifferentSeedsDiffer)
{
    auto cfg = makeConfig(4, 4, false, false, false, false);
    auto a = runSystem(cfg, "zeus");
    cfg.seed = 2;
    auto b = runSystem(cfg, "zeus");
    EXPECT_NE(a->cycles(), b->cycles());
}

TEST(CmpSystemTest, CompressionRaisesEffectiveCapacityForCommercial)
{
    auto sys = runSystem(makeConfig(8, 4, true, false, false, false),
                         "oltp", 400000);
    // oltp data is highly compressible (Table 3: ~1.8); even the
    // packed in-cache ratio should clear 1.15 once warm.
    EXPECT_GT(sys->compressionRatio(), 1.15);
    EXPECT_GT(sys->stats().counter("l2.penalized_hits"), 0u);
}

TEST(CmpSystemTest, CompressionReducesMissesForCommercial)
{
    auto base = runSystem(makeConfig(8, 4, false, false, false, false),
                          "apache", 120000);
    auto compr = runSystem(makeConfig(8, 4, true, true, false, false),
                           "apache", 120000);
    const double m_base =
        static_cast<double>(base->stats().counter("l2.demand_misses"));
    const double m_compr = static_cast<double>(
        compr->stats().counter("l2.demand_misses"));
    EXPECT_LT(m_compr, m_base);
}

TEST(CmpSystemTest, LinkCompressionReducesFlits)
{
    auto plain = runSystem(makeConfig(8, 4, false, false, false, false),
                           "oltp");
    auto link = runSystem(makeConfig(8, 4, false, true, false, false),
                          "oltp");
    auto flits_per_msg = [](CmpSystem &sys) {
        return static_cast<double>(sys.memory().dataFlits()) /
               static_cast<double>(sys.memory().reads() +
                                   sys.memory().writebacks());
    };
    EXPECT_DOUBLE_EQ(flits_per_msg(*plain), 8.0);
    EXPECT_LT(flits_per_msg(*link), 7.0); // oltp compresses well
}

TEST(CmpSystemTest, PrefetchingIssuesAndCovers)
{
    auto sys = runSystem(makeConfig(8, 4, false, false, true, false),
                         "zeus", 120000);
    EXPECT_GT(sys->stats().counter("l2.l2pf_issued"), 0u);
    EXPECT_GT(sys->stats().counter("l2.pf_hits_l2"), 0u);
    EXPECT_GT(sys->sumL1Counter("l1d", "pf_issued"), 0u);
    EXPECT_GT(sys->sumL1Counter("l1i", "pf_issued"), 0u);
}

TEST(CmpSystemTest, PrefetchingHurtsJbbAdaptiveRescues)
{
    // The paper's jbb story: non-adaptive prefetching degrades
    // performance; the adaptive mechanism recovers most of it.
    auto base = runSystem(makeConfig(8, 4, false, false, false, false),
                          "jbb", 120000, 25000);
    auto pref = runSystem(makeConfig(8, 4, false, false, true, false),
                          "jbb", 120000, 25000);
    auto adap = runSystem(makeConfig(8, 4, false, false, true, true),
                          "jbb", 120000, 25000);
    EXPECT_GT(pref->cycles(), base->cycles());  // prefetching hurts
    EXPECT_LT(adap->cycles(), pref->cycles());  // adaptation recovers
    // And the adaptive throttle actually engaged.
    EXPECT_LT(adap->l2Adaptive().counterValue(), 25u);
}

TEST(CmpSystemTest, InfiniteBandwidthNeverSlower)
{
    auto finite = runSystem(makeConfig(8, 4, false, false, true, false),
                            "fma3d", 80000);
    auto cfg = makeConfig(8, 4, false, false, true, false);
    cfg.infinite_bandwidth = true;
    auto infinite = runSystem(cfg, "fma3d", 80000);
    EXPECT_LE(infinite->cycles(), finite->cycles());
    // Demand measured on the infinite link exceeds the 20 GB/s cap
    // for the paper's bandwidth-bound workload.
    EXPECT_GT(infinite->bandwidthGBps(), 20.0);
}

TEST(CmpSystemTest, LowerPinBandwidthIsSlower)
{
    auto fast =
        runSystem(makeConfig(8, 4, false, false, false, false, 80.0),
                  "apache");
    auto slow =
        runSystem(makeConfig(8, 4, false, false, false, false, 10.0),
                  "apache");
    EXPECT_GT(slow->cycles(), fast->cycles());
}

TEST(CmpSystemTest, CoreCountScalesPressure)
{
    // Same per-core work: more cores -> more contention per core on
    // the shared L2 and pins (the premise of Figures 1 and 12).
    auto one = runSystem(makeConfig(1, 4, false, false, false, false),
                         "zeus");
    auto sixteen =
        runSystem(makeConfig(16, 4, false, false, false, false), "zeus");
    const double ipc1 = one->ipc() / 1.0;
    const double ipc16 = sixteen->ipc() / 16.0;
    EXPECT_LT(ipc16, ipc1);
}

TEST(CmpSystemTest, SharedL2PrefetcherAblationRuns)
{
    auto cfg = makeConfig(4, 4, false, false, true, false);
    cfg.shared_l2_prefetcher = true;
    auto sys = runSystem(cfg, "mgrid");
    EXPECT_GT(sys->stats().counter("l2.l2pf_issued"), 0u);
}

TEST(CmpSystemTest, VictimTagsPresentInAdaptiveConfigs)
{
    auto cfg = makeConfig(8, 4, false, false, true, true);
    auto sys = runSystem(cfg, "jbb");
    // Uncompressed adaptive config has 4 extra tags per set: victim
    // tags survive even in heavily-churned sets (Section 5.4).
    EXPECT_GT(sys->l2().meanVictimTags(), 0.3);
}

TEST(ExperimentTest, RunOnceExtractsMetrics)
{
    RunLengths len;
    len.warmup_per_core = kWarm;
    len.measure_per_core = kMeasure;
    const auto r =
        runOnce(makeConfig(8, 4, true, true, true, true), "zeus", len);
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.l2_demand_accesses, 0.0);
    EXPECT_GT(r.bandwidth_gbps, 0.0);
    EXPECT_GT(r.compression_ratio, 0.5);
    EXPECT_GT(r.l2pf.rate_per_kilo_instr, 0.0);
    EXPECT_GE(r.l2pf.accuracy_pct, 0.0);
    EXPECT_LE(r.l2pf.accuracy_pct, 100.0);
}

TEST(ExperimentTest, RunSeedsSummarizes)
{
    RunLengths len;
    len.warmup_per_core = 30000;
    len.measure_per_core = 8000;
    const auto s = runSeeds(makeConfig(4, 4, false, false, false, false),
                            "art", len, 3);
    EXPECT_EQ(s.runs.size(), 3u);
    EXPECT_EQ(s.cycles.n, 3u);
    EXPECT_GT(s.cycles.mean, 0.0);
    EXPECT_GT(s.cycles.ci95, 0.0); // seeds differ
}

TEST(ExperimentTest, SpeedupAndInteractionMath)
{
    EXPECT_DOUBLE_EQ(speedup(200, 100), 2.0);
    // EQ 5: S(A,B) = S(A) x S(B) x (1 + I)
    EXPECT_NEAR(interaction(1.2, 1.1, 1.452), 0.10, 1e-9);
    EXPECT_NEAR(interaction(1.2, 1.1, 1.32), 0.0, 1e-9);
    EXPECT_LT(interaction(1.2, 1.1, 1.2), 0.0);
}

TEST(ExperimentTest, MissObserverFeedsClassifier)
{
    SystemConfig cfg = makeConfig(4, 4, false, false, false, false);
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    MissProfile profile;
    sys.l2().setMissObserver(
        [&](ReqType t, Addr line) { profile.record(t, line); });
    sys.warmup(kWarm);
    sys.run(kMeasure);
    EXPECT_EQ(profile.totalDemandMisses(),
              sys.stats().counter("l2.demand_misses"));
}

// ------------------------------------------------------ env knobs

/** Sets one environment knob for its lifetime and then restores its
 *  previous value (the suite may itself run under CMPSIM_AUDIT). */
class KnobGuard
{
  public:
    KnobGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~KnobGuard()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    KnobGuard(const KnobGuard &) = delete;
    KnobGuard &operator=(const KnobGuard &) = delete;

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

SystemConfig
knobConfig()
{
    return makeConfig(2, 8, false, false, false, false);
}

/** Every malformed value of integer knob @p knob is refused when a
 *  CmpSystem is built, with a ConfigError naming the knob. */
void
expectStrictKnob(const char *knob)
{
    for (const char *bad : {"abc", "1abc", "-1", "+5", " 7",
                            "99999999999999999999999"}) {
        KnobGuard env(knob, bad);
        try {
            CmpSystem sys(knobConfig(), benchmarkParams("zeus"));
            ADD_FAILURE() << knob << "=\"" << bad << "\" was accepted";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.context(), std::string("env.") + knob) << bad;
            EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
                << e.what();
        }
    }
}

TEST(CmpSystemKnobTest, AuditIsParsedStrictly)
{
    expectStrictKnob("CMPSIM_AUDIT");
    KnobGuard env("CMPSIM_AUDIT", "7000");
    CmpSystem sys(knobConfig(), benchmarkParams("zeus"));
    EXPECT_EQ(sys.config().audit_interval, 7000u);
    EXPECT_TRUE(sys.config().audit_fill_roundtrip);
}

TEST(CmpSystemKnobTest, WatchdogIsParsedStrictly)
{
    expectStrictKnob("CMPSIM_WATCHDOG");
    KnobGuard env("CMPSIM_WATCHDOG", "123456");
    CmpSystem sys(knobConfig(), benchmarkParams("zeus"));
    EXPECT_EQ(sys.config().watchdog_cycles, 123456u);
}

TEST(CmpSystemKnobTest, SampleCyclesIsParsedStrictly)
{
    expectStrictKnob("CMPSIM_SAMPLE_CYCLES");
    KnobGuard env("CMPSIM_SAMPLE_CYCLES", "5000");
    CmpSystem sys(knobConfig(), benchmarkParams("zeus"));
    EXPECT_EQ(sys.config().sample_interval, 5000u);
}

} // namespace
} // namespace cmpsim
