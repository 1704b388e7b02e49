/**
 * @file
 * Statistical sampling engine contract (DESIGN.md §14): the
 * CMPSIM_SAMPLING plan grammar and validation, fast-forward
 * instruction conservation, detail-interval stat isolation, the CI
 * stopping rule, sampled-run determinism across repeats and lane
 * counts, mid-plan checkpoint/restore to a byte-identical final
 * report, and the MatrixSampler's leader-equivalence guarantee.
 */

#include "src/sample/sampling_controller.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/ckpt/checkpoint.h"
#include "src/ckpt/cont_tag.h"
#include "src/common/fingerprint.h"
#include "src/common/sim_error.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/experiment.h"
#include "src/core_api/parallel_runner.h"
#include "src/sample/matrix_sampler.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

/** Small full-feature config; sampling plans are set per test. */
SystemConfig
smallConfig()
{
    SystemConfig cfg = makeConfig(/*cores=*/2, /*scale=*/8,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/false);
    cfg.seed = 4242;
    return cfg;
}

/** Stats fingerprint of a finished system, exactly as the
 *  determinism gate hashes it. */
std::uint64_t
statsHash(CmpSystem &sys)
{
    std::ostringstream out;
    sys.stats().dump(out);
    out << "cycles " << sys.cycles() << "\n";
    out << "instructions " << sys.instructions() << "\n";
    return fnv1a(out.str());
}

/** Bit-level fingerprint of a result's per-interval samples. */
std::uint64_t
samplesHash(const SamplingResult &r)
{
    std::ostringstream out;
    out.precision(17);
    for (const IntervalSample &s : r.samples) {
        out << s.cycles << " " << s.instructions << " " << s.ipc << " "
            << s.l2_miss_rate << " " << s.l2_mpki << " "
            << s.bandwidth_gbps << " " << s.compression_ratio << "\n";
    }
    return fnv1a(out.str());
}

class EnvGuard
{
  public:
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        setenv(name_, value.c_str(), 1);
    }
    ~EnvGuard() { unsetenv(name_); }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name_;
};

// ------------------------------------------------------ plan grammar

TEST(SamplingPlanTest, ParsesBareTriple)
{
    const SamplingPlan p = SamplingPlan::parse("100000:5000:30");
    EXPECT_EQ(p.ff_per_core, 100000u);
    EXPECT_EQ(p.detail_per_core, 5000u);
    EXPECT_EQ(p.max_intervals, 30u);
    EXPECT_EQ(p.ci_target_pct, 0.0);
    EXPECT_TRUE(p.armed());
    // Without a warm suffix, the whole fast-forward phase warms.
    EXPECT_EQ(p.warm_per_core, SamplingPlan::kWarmAll);
    EXPECT_EQ(p.warmPerCore(), 100000u);
}

TEST(SamplingPlanTest, ParsesCiAndWarmSuffixesInEitherOrder)
{
    const SamplingPlan a =
        SamplingPlan::parse("100000:5000:30:ci2.5:warm20000");
    EXPECT_EQ(a.ci_target_pct, 2.5);
    EXPECT_EQ(a.warm_per_core, 20000u);
    EXPECT_EQ(a.warmPerCore(), 20000u);

    const SamplingPlan b =
        SamplingPlan::parse("100000:5000:30:warm20000:ci2.5");
    EXPECT_EQ(b.ci_target_pct, 2.5);
    EXPECT_EQ(b.warm_per_core, 20000u);
}

TEST(SamplingPlanTest, WarmTailClampsToFastForwardLength)
{
    const SamplingPlan p =
        SamplingPlan::parse("10000:5000:4:warm999999");
    EXPECT_EQ(p.warm_per_core, 999999u);
    EXPECT_EQ(p.warmPerCore(), 10000u);
}

TEST(SamplingPlanTest, DefaultPlanIsDisarmed)
{
    EXPECT_FALSE(SamplingPlan{}.armed());
    const SamplingPlan zero = SamplingPlan::parse("0:5000:0");
    EXPECT_FALSE(zero.armed());
}

TEST(SamplingPlanTest, MalformedSpecsThrowConfigError)
{
    EXPECT_THROW(SamplingPlan::parse(""), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:x"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:ci"), ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:warm"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:fast"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30junk"),
                 ConfigError);
    EXPECT_THROW(SamplingPlan::parse("100000:5000:30:ci5:2"),
                 ConfigError);
}

TEST(SamplingPlanTest, EnvSpecIsAppliedAndValidatedByMakeConfig)
{
    EnvGuard env("CMPSIM_SAMPLING", "8000:2000:3:warm1000");
    const SystemConfig cfg =
        makeConfig(2, 8, false, false, false, false);
    EXPECT_TRUE(cfg.sampling.armed());
    EXPECT_EQ(cfg.sampling.ff_per_core, 8000u);
    EXPECT_EQ(cfg.sampling.detail_per_core, 2000u);
    EXPECT_EQ(cfg.sampling.max_intervals, 3u);
    EXPECT_EQ(cfg.sampling.warm_per_core, 1000u);
}

TEST(SamplingPlanTest, ValidateRejectsUnmeasurablePlans)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("8000:1:3");
    cfg.sampling.detail_per_core = 0; // pure fast-forward
    EXPECT_THROW(cfg.validate(), ConfigError);

    cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("8000:2000:3:ci150");
    EXPECT_THROW(cfg.validate(), ConfigError);
}

// --------------------------------------------- plan execution basics

TEST(SamplingRunTest, ConservesFastForwardInstructions)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:4:warm2000");
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    SamplingController ctl(sys);
    const SamplingResult res = ctl.run();

    EXPECT_EQ(res.intervals, 4u);
    // Every interval fast-forwards ff_per_core on each core.
    const std::uint64_t expected_ff = 6000ull * 2 * 4;
    EXPECT_EQ(res.ff_instructions, expected_ff);
    EXPECT_EQ(sys.stats().counter("sample.ff_instructions"),
              expected_ff);
    // The skip/warm split: 4000 of each 6000 skip, 2000 warm.
    EXPECT_EQ(sys.stats().counter("sample.ff_skip_instructions"),
              4000ull * 2 * 4);
    // The conservation audit (sample.conservation) must hold.
    EXPECT_TRUE(sys.audits().check().empty());
}

TEST(SamplingRunTest, DetailTotalsExcludeFastForward)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:4");
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    const SamplingResult res = SamplingController(sys).run();

    // The measured instruction total covers exactly the detailed
    // windows (a run() window can overshoot its budget by at most a
    // few instructions per core), never the 48k fast-forwarded ones.
    const double budget = 2000.0 * 2 * 4;
    EXPECT_GE(res.detail_instructions, budget);
    EXPECT_LT(res.detail_instructions, budget + 100 * 2 * 4);

    // The per-interval retired-counter deltas agree with the total.
    double retired = 0;
    for (unsigned c = 0; c < 2; ++c) {
        retired += static_cast<double>(res.totals.counter(
            "core." + std::to_string(c) + ".retired"));
    }
    EXPECT_EQ(retired, res.detail_instructions);

    // Every headline summary reduces over all measured intervals.
    EXPECT_EQ(res.samples.size(), 4u);
    EXPECT_EQ(res.ipc.n, 4u);
    EXPECT_GT(res.ipc.mean, 0.0);
    EXPECT_GT(res.cycles.ci95, 0.0);
}

TEST(SamplingRunTest, CiStoppingRuleFiresEarly)
{
    SystemConfig cfg = smallConfig();
    // A 90% IPC half-width target is met after the minimum two
    // intervals on any stable workload.
    cfg.sampling = SamplingPlan::parse("3000:2000:50:ci90");
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    const SamplingResult res = SamplingController(sys).run();

    EXPECT_TRUE(res.stopped_early);
    EXPECT_LT(res.intervals, 50u);
    EXPECT_GE(res.intervals, 2u);
    EXPECT_EQ(res.samples.size(), res.intervals);
}

// ---------------------------------------------------- determinism

TEST(SamplingDeterminismTest, RepeatRunsAreByteIdentical)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:3:warm2000");

    std::uint64_t stats[2];
    std::uint64_t samples[2];
    for (int i = 0; i < 2; ++i) {
        CmpSystem sys(cfg, benchmarkParams("apsi"));
        const SamplingResult res = SamplingController(sys).run();
        stats[i] = statsHash(sys);
        samples[i] = samplesHash(res);
    }
    EXPECT_EQ(stats[0], stats[1]);
    EXPECT_EQ(samples[0], samples[1]);
}

// ------------------------------------------- checkpoint mid-plan

TEST(SamplingCheckpointTest, MidPlanRestoreFinishesByteIdentical)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("4000:2000:4:warm1000");
    const std::string path =
        ::testing::TempDir() + "cmpsim_sampling_midplan.ckpt";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    // Uninterrupted reference.
    std::uint64_t want_stats = 0;
    std::uint64_t want_samples = 0;
    {
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        const SamplingResult res = SamplingController(sys).run();
        want_stats = statsHash(sys);
        want_samples = samplesHash(res);
    }

    // Autosave every 1000 timed cycles: the last snapshot lands
    // inside a detailed interval, mid-plan.
    {
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every1000");
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        SamplingController(sys).run();
    }

    // Resume from the mid-plan snapshot and finish the plan.
    {
        EnvGuard restore("CMPSIM_RESTORE", path);
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        const SamplingResult res = SamplingController(sys).run();
        // The restored cursor sits mid-plan, so the resumed half
        // measures fewer intervals than the full plan...
        EXPECT_EQ(res.intervals, 4u);
        EXPECT_EQ(res.samples.size(), 4u);
        // ...but the final report is byte-identical to the
        // uninterrupted run: the serialized SampleState carries the
        // closed intervals and the open interval's baseline.
        EXPECT_EQ(statsHash(sys), want_stats);
        EXPECT_EQ(samplesHash(res), want_samples);
    }

    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

/** The call log of checkpoint container @p bytes. */
CallLog
snapshotLog(const std::string &bytes)
{
    for (const ckpt::Section &s : ckpt::parseFile(bytes).sections) {
        if (s.name == "log")
            return CheckpointCodec::decodeLog(s.payload);
    }
    ADD_FAILURE() << "snapshot has no log section";
    return {};
}

TEST(SamplingCheckpointTest, MidPlanLogStartsAtLastFastForward)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("4000:2000:4:warm1000");
    const std::string path =
        ::testing::TempDir() + "cmpsim_sampling_midplan_log.ckpt";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    {
        EnvGuard ckpt("CMPSIM_CKPT", path + ":every1000");
        CmpSystem sys(cfg, benchmarkParams("zeus"));
        SamplingController(sys).run();
    }
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());

    // Every fast-forward drains to a quiesced point, so the last
    // (mid-interval) snapshot replays one fast-forward and part of one
    // detailed interval, never the plan so far.
    const CallLog log = snapshotLog(bytes);
    ASSERT_EQ(log.calls.size(), 2u);
    EXPECT_EQ(log.calls[0].kind, LoggedCall::kFastForward);
    EXPECT_EQ(log.calls[0].instr, 4000u);
    EXPECT_EQ(log.calls[0].warm, 1000u);
    EXPECT_EQ(log.calls[1].kind, LoggedCall::kRun);
    EXPECT_EQ(log.calls[1].instr, 2000u);
    EXPECT_NE(log.interrupted_at, kCycleNever);

    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
}

// ------------------------------------------------- matrix sampler

TEST(MatrixSamplerTest, LeaderIsByteIdenticalToStandaloneRun)
{
    SystemConfig base = smallConfig();
    base.sampling = SamplingPlan::parse("6000:2000:3:warm2000");
    SystemConfig pref = base;
    pref.prefetching = false; // a genuinely different follower config

    // Standalone run of the leader's exact config.
    std::uint64_t want_stats = 0;
    std::uint64_t want_samples = 0;
    {
        CmpSystem sys(base, benchmarkParams("zeus"));
        const SamplingResult res = SamplingController(sys).run();
        want_stats = statsHash(sys);
        want_samples = samplesHash(res);
    }

    CmpSystem lead(base, benchmarkParams("zeus"));
    CmpSystem follow(pref, benchmarkParams("zeus"));
    const auto results = MatrixSampler({&lead, &follow}).run();
    ASSERT_EQ(results.size(), 2u);

    // Journaling the leader's skips and sharing them must not perturb
    // the leader's own execution in any way.
    EXPECT_EQ(statsHash(lead), want_stats);
    EXPECT_EQ(samplesHash(results[0]), want_samples);

    // Followers measure the full plan on the same workload windows.
    EXPECT_EQ(results[1].intervals, 3u);
    EXPECT_EQ(results[1].samples.size(), 3u);
    EXPECT_GT(results[1].ipc.mean, 0.0);
    EXPECT_NE(samplesHash(results[1]), samplesHash(results[0]));

    // Both systems' invariant audits (including fast-forward
    // conservation on the adopted skips) hold.
    EXPECT_TRUE(lead.audits().check().empty());
    EXPECT_TRUE(follow.audits().check().empty());
}

TEST(MatrixSamplerTest, MatrixRunsAreDeterministic)
{
    SystemConfig base = smallConfig();
    base.sampling = SamplingPlan::parse("6000:2000:3:warm2000");
    SystemConfig compr = base;
    compr.cache_compression = false;
    compr.link_compression = false;

    std::uint64_t follower_hash[2];
    for (int i = 0; i < 2; ++i) {
        CmpSystem lead(base, benchmarkParams("apsi"));
        CmpSystem follow(compr, benchmarkParams("apsi"));
        const auto results = MatrixSampler({&lead, &follow}).run();
        follower_hash[i] =
            samplesHash(results[1]) ^ statsHash(follow);
    }
    EXPECT_EQ(follower_hash[0], follower_hash[1]);
}

TEST(MatrixSamplerTest, AdoptedSkipEndsAtAQuiescedPoint)
{
    SystemConfig base = smallConfig();
    base.sampling = SamplingPlan::parse("6000:2000:3:warm2000");
    SystemConfig pref = base;
    pref.prefetching = false;

    ckpt::setArmed(true);
    CmpSystem lead(base, benchmarkParams("zeus"));
    CmpSystem follow(pref, benchmarkParams("zeus"));
    CmpSystem resumed(pref, benchmarkParams("zeus"));
    ckpt::setArmed(false);

    lead.run(2000);
    follow.run(2000);
    const std::vector<ValueStore::Op> ops =
        lead.fastForwardJournaled(4000);
    follow.adoptSkip(lead, ops, 4000);

    // The adoption's end is a quiesced point, so no log ever holds an
    // adoptSkip: a snapshot taken here has nothing to replay...
    const std::string at_adopt = follow.checkpointBytes();
    EXPECT_TRUE(snapshotLog(at_adopt).calls.empty());
    follow.run(2000);
    const CallLog after = snapshotLog(follow.checkpointBytes());
    ASSERT_EQ(after.calls.size(), 1u);
    EXPECT_EQ(after.calls[0].kind, LoggedCall::kRun);

    // ...and restoring it needs no leader to finish identically.
    resumed.restoreCheckpoint(at_adopt);
    resumed.run(2000);
    EXPECT_EQ(statsHash(resumed), statsHash(follow));
}

// ------------------------------------------------- experiment layer

TEST(SampledExperimentTest, RunOnceReportsSampledMetrics)
{
    SystemConfig cfg = smallConfig();
    cfg.sampling = SamplingPlan::parse("6000:2000:3");
    RunLengths lengths;
    lengths.warmup_per_core = 2000;
    lengths.measure_per_core = 0; // sampled runs ignore it

    const RunResult r = runOnce(cfg, "zeus", lengths);
    EXPECT_TRUE(r.sampled.armed);
    EXPECT_EQ(r.sampled.intervals, 3u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.sampled.ipc.mean, 0.0);
    EXPECT_GT(r.sampled.ipc.ci95, 0.0);
    EXPECT_GT(r.sampled.ff_instructions, 0.0);
    // Measured counters cover only the detailed windows.
    const double budget = 2000.0 * 2 * 3;
    EXPECT_GE(r.instructions, budget);
    EXPECT_LT(r.instructions, budget * 1.1);
}

} // namespace
} // namespace cmpsim
