/**
 * @file
 * Environment parsing for the experiment layer, in particular that an
 * explicit 0 is a legitimate value (CMPSIM_JOBS=0 = auto worker
 * count, CMPSIM_WARMUP=0 = no warmup) and only genuine parse errors
 * are fatal.
 */

#include "src/core_api/experiment.h"

#include <gtest/gtest.h>

#include "src/common/sim_error.h"

#include <cstdlib>

#include "src/core_api/parallel_runner.h"

namespace cmpsim {
namespace {

class EnvUint64OrTest : public ::testing::Test
{
  protected:
    static constexpr const char *kVar = "CMPSIM_TEST_ENV_VALUE";

    void SetUp() override { ::unsetenv(kVar); }
    void TearDown() override { ::unsetenv(kVar); }
};

TEST_F(EnvUint64OrTest, UnsetReturnsFallback)
{
    EXPECT_EQ(envUint64Or(kVar, 7), 7u);
}

TEST_F(EnvUint64OrTest, EmptyReturnsFallback)
{
    ::setenv(kVar, "", 1);
    EXPECT_EQ(envUint64Or(kVar, 7), 7u);
}

TEST_F(EnvUint64OrTest, ParsesValue)
{
    ::setenv(kVar, "400000", 1);
    EXPECT_EQ(envUint64Or(kVar, 7), 400000u);
}

TEST_F(EnvUint64OrTest, ExplicitZeroIsAValueNotAnError)
{
    ::setenv(kVar, "0", 1);
    EXPECT_EQ(envUint64Or(kVar, 7), 0u);
}

TEST_F(EnvUint64OrTest, NonNumericIsFatal)
{
    ::setenv(kVar, "fast", 1);
    EXPECT_THROW(envUint64Or(kVar, 7), ConfigError);
}

TEST_F(EnvUint64OrTest, TrailingGarbageIsFatal)
{
    ::setenv(kVar, "8threads", 1);
    EXPECT_THROW(envUint64Or(kVar, 7), ConfigError);
}

TEST_F(EnvUint64OrTest, SignIsFatal)
{
    // strtoull would wrap "-1" to 2^64-1.
    for (const char *signed_value : {"-1", "+4"}) {
        ::setenv(kVar, signed_value, 1);
        EXPECT_THROW(envUint64Or(kVar, 7), ConfigError) << signed_value;
    }
}

TEST_F(EnvUint64OrTest, OverflowIsFatalAndNamesTheKnob)
{
    ::setenv(kVar, "99999999999999999999999", 1);
    try {
        envUint64Or(kVar, 7);
        FAIL() << "overflowing value was accepted";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.context(), std::string("env.") + kVar);
        EXPECT_NE(std::string(e.what()).find(kVar), std::string::npos);
    }
}

TEST(DefaultJobsTest, ZeroMeansHardwareAuto)
{
    ::setenv("CMPSIM_JOBS", "0", 1);
    EXPECT_GE(defaultJobs(), 1u);
    ::setenv("CMPSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::unsetenv("CMPSIM_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(DefaultRunLengthsTest, ExplicitZeroWarmupRunsEndToEnd)
{
    // CMPSIM_WARMUP=0 must mean "no warmup", not "fall back to the
    // 400k default" — and a zero-warmup experiment must complete and
    // publish sane metrics, cold caches and all.
    ::setenv("CMPSIM_WARMUP", "0", 1);
    ::setenv("CMPSIM_MEASURE", "2000", 1);
    const RunLengths lengths = defaultRunLengths();
    ::unsetenv("CMPSIM_WARMUP");
    ::unsetenv("CMPSIM_MEASURE");
    EXPECT_EQ(lengths.warmup_per_core, 0u);
    EXPECT_EQ(lengths.measure_per_core, 2000u);

    SystemConfig cfg = makeConfig(/*cores=*/2, /*scale=*/8,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/false);
    const MetricSummary cold = runSeeds(cfg, "zeus", lengths, 1);
    EXPECT_GT(cold.runs.front().instructions, 0.0);
    EXPECT_GT(cold.runs.front().ipc, 0.0);

    // A warmed run of the same point must differ: if the two agree,
    // the zero was silently replaced by a default somewhere below.
    RunLengths warmed = lengths;
    warmed.warmup_per_core = 5000;
    const MetricSummary warm = runSeeds(cfg, "zeus", warmed, 1);
    EXPECT_NE(cold.runs.front().cycles, warm.runs.front().cycles);
}

} // namespace
} // namespace cmpsim
