/**
 * @file
 * Parallel skip fast-forward (DESIGN.md §14): a pure-skip window runs
 * each core on its own host thread and commits the cores' value-store
 * logs in serial order, so every observable outcome — stats, value
 * store lines and bytes, workload cursors, the skip journal and the
 * checkpoint bytes — is the same at every thread count and the same
 * as a serial skip. Speculation is deterministic (it does not depend
 * on the thread count), so a broken rollback would agree with itself
 * across thread counts; the serial reference below is what catches
 * it.
 */

#include "src/sample/fast_forward.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/ckpt/cont_tag.h"
#include "src/common/sim_error.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/experiment.h"
#include "src/sim/fault_injection.h"
#include "src/workload/workload_params.h"

namespace cmpsim {
namespace {

constexpr unsigned kCores = 8;
const unsigned kThreadCounts[] = {1, 2, 3, 4, 8};

/** First skip from construction: one full window and a short one. */
constexpr std::uint64_t kFirstSkip = 24000;

SystemConfig
skipConfig()
{
    SystemConfig cfg = makeConfig(kCores, /*scale=*/8,
                                  /*cache_compression=*/true,
                                  /*link_compression=*/true,
                                  /*prefetching=*/true,
                                  /*adaptive=*/true);
    cfg.seed = 7;
    cfg.sampling = SamplingPlan::parse("20000:2000:2:warm2000");
    return cfg;
}

/** Value-store contents: every line address and its bytes. */
struct StoreImage
{
    std::vector<Addr> lines;
    std::vector<LineData> bytes;
    bool operator==(const StoreImage &) const = default;
};

StoreImage
imageOf(const ValueStore &values)
{
    StoreImage img;
    img.lines = values.sortedLines();
    for (Addr line : img.lines)
        img.bytes.push_back(values.line(line));
    return img;
}

std::vector<SyntheticWorkload::Cursor>
cursorsOf(const CmpSystem &sys)
{
    std::vector<SyntheticWorkload::Cursor> out;
    for (unsigned c = 0; c < kCores; ++c)
        out.push_back(sys.stream(c).cursor());
    return out;
}

std::vector<CoreModel::SkipState>
skipStatesOf(CmpSystem &sys)
{
    std::vector<CoreModel::SkipState> out;
    for (unsigned c = 0; c < kCores; ++c)
        out.push_back(sys.core(c).skipState());
    return out;
}

/** Everything a scenario leaves behind. */
struct Outcome
{
    // After the first skip, from construction (serially checkable).
    std::vector<ValueStore::Op> first_journal;
    StoreImage first_image;
    std::vector<SyntheticWorkload::Cursor> first_cursors;
    // At the end.
    std::vector<ValueStore::Op> last_journal;
    StoreImage image;
    std::vector<SyntheticWorkload::Cursor> cursors;
    std::vector<CoreModel::SkipState> states;
    std::string stats;
    std::string ckpt;
    std::uint64_t rollbacks = 0;
};

/**
 * Skip from construction, then (after an optional warm-up) a split
 * skip/warm phase, a detailed window and a skip ending in a partial
 * round, all on @p threads skip threads.
 */
Outcome
runScenario(const std::string &bench, unsigned threads)
{
    ckpt::setArmed(true);
    CmpSystem sys(skipConfig(), benchmarkParams(bench));
    ckpt::setArmed(false);
    sys.setSkipThreads(threads);

    Outcome o;
    o.first_journal = sys.fastForwardJournaled(kFirstSkip);
    o.first_image = imageOf(sys.values());
    o.first_cursors = cursorsOf(sys);
    sys.fastForward(9000, 3000);
    sys.run(2000);
    o.last_journal = sys.fastForwardJournaled(16500);

    o.image = imageOf(sys.values());
    o.cursors = cursorsOf(sys);
    o.states = skipStatesOf(sys);
    std::ostringstream stats;
    sys.stats().dump(stats);
    o.stats = stats.str();
    o.ckpt = sys.checkpointBytes();
    o.rollbacks = sys.fastForwardEngine()->rollbacks();
    return o;
}

/**
 * The serial skip, written out: cores interleaved in 2,000-instruction
 * rounds, each instruction's first touch and store applied to the
 * store at once, as the skip did before it ran in parallel.
 */
struct SerialReference
{
    ValueStore values;
    std::vector<std::unique_ptr<SyntheticWorkload>> streams;

    SerialReference(const CmpSystem &sys, const Compressor &compressor)
        : values(compressor)
    {
        for (unsigned c = 0; c < kCores; ++c) {
            streams.push_back(std::make_unique<SyntheticWorkload>(
                sys.workload(), values, c, sys.config().seed));
        }
    }

    std::vector<ValueStore::Op>
    skip(std::uint64_t instr_per_core)
    {
        values.startJournal();
        for (std::uint64_t done = 0; done < instr_per_core;) {
            const std::uint64_t len =
                std::min<std::uint64_t>(2000, instr_per_core - done);
            for (auto &stream : streams) {
                for (std::uint64_t i = 0; i < len; ++i) {
                    const Instruction in = stream->next();
                    if (in.type == InstrType::Store) {
                        values.writeWord(in.addr & ~static_cast<Addr>(3),
                                         in.store_value);
                    }
                }
            }
            done += len;
        }
        return values.takeJournal();
    }
};

class ParallelSkipTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ParallelSkipTest, IdenticalAtEveryThreadCountAndToSerial)
{
    const std::string bench = GetParam();
    const Outcome base = runScenario(bench, kThreadCounts[0]);

    // The first skip against the serial reference.
    {
        const CmpSystem shape(skipConfig(), benchmarkParams(bench));
        FpcCompressor fpc;
        SerialReference ref(shape, fpc);
        const std::vector<ValueStore::Op> journal = ref.skip(kFirstSkip);
        EXPECT_TRUE(base.first_journal == journal) << bench;
        EXPECT_TRUE(base.first_image == imageOf(ref.values)) << bench;
        for (unsigned c = 0; c < kCores; ++c) {
            EXPECT_TRUE(base.first_cursors[c] == ref.streams[c]->cursor())
                << bench << " core " << c;
        }
    }

    for (unsigned threads : kThreadCounts) {
        if (threads == kThreadCounts[0])
            continue;
        SCOPED_TRACE(bench + " at " + std::to_string(threads) + " threads");
        const Outcome o = runScenario(bench, threads);
        EXPECT_EQ(o.stats, base.stats);
        EXPECT_TRUE(o.first_journal == base.first_journal);
        EXPECT_TRUE(o.last_journal == base.last_journal);
        EXPECT_TRUE(o.image == base.image);
        EXPECT_TRUE(o.cursors == base.cursors);
        EXPECT_TRUE(o.states == base.states);
        EXPECT_TRUE(o.ckpt == base.ckpt);
        EXPECT_EQ(o.rollbacks, base.rollbacks);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ParallelSkipTest,
    ::testing::Values("zeus", "apache", "jbb", "oltp", "art", "apsi",
                      "fma3d", "mgrid"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// Zeus with no warm-up first-touches shared lines from several cores
// in the same window, so the commit finds mis-speculations and must
// roll back; the outcome still matches the serial skip.
TEST(ParallelSkipRollbackTest, ColdZeusRollsBackAndStaysExact)
{
    const Outcome serial = runScenario("zeus", 1);
    EXPECT_GT(serial.rollbacks, 0u);
    const Outcome parallel = runScenario("zeus", 4);
    EXPECT_EQ(parallel.rollbacks, serial.rollbacks);
    EXPECT_EQ(parallel.stats, serial.stats);
    EXPECT_TRUE(parallel.image == serial.image);
    EXPECT_TRUE(parallel.cursors == serial.cursors);
    EXPECT_TRUE(parallel.ckpt == serial.ckpt);
}

// A worker records capped: an op without room is dropped rather than
// allocated for, and grow() makes room keeping what was recorded.
TEST(ParallelSkipLogTest, CappedLogDropsOpsAndGrowKeepsTheRest)
{
    FpcCompressor fpc;
    ValueStore values(fpc);
    const auto make = [] { return LineData{}; };
    SkipLog log;
    log.reserve(/*ops=*/2, /*lines=*/1);
    log.cap();
    log.touch(values, 0x1000, make);
    log.write(0x1004, 7);
    EXPECT_FALSE(log.full());
    log.write(0x1008, 8); // no op room
    EXPECT_TRUE(log.full());
    log.endRound();
    log.grow();
    ASSERT_TRUE(log.applyRound(0, values));
    EXPECT_EQ(lineWord(values.line(0x1000), 1), 7u);
    EXPECT_EQ(lineWord(values.line(0x1000), 2), 0u);

    SkipLog touches;
    touches.reserve(/*ops=*/8, /*lines=*/2);
    touches.cap();
    touches.touch(values, 0x2000, make);
    touches.touch(values, 0x3000, make);
    EXPECT_FALSE(touches.full());
    touches.touch(values, 0x4000, make); // no line room
    EXPECT_TRUE(touches.full());
    touches.endRound();
    ASSERT_TRUE(touches.applyRound(0, values));
    EXPECT_TRUE(values.hasLine(0x3000));
    EXPECT_FALSE(values.hasLine(0x4000));
}

/** What a fault at probe @p nth of a cold zeus skip leaves behind. */
struct FaultOutcome
{
    std::string what;
    StoreImage image;
    std::vector<SyntheticWorkload::Cursor> cursors;
    std::vector<CoreModel::SkipState> states;
    std::uint64_t chunks = 0;
    std::uint64_t skip_instructions = 0;
};

FaultOutcome
faultAt(std::uint64_t nth, unsigned threads)
{
    CmpSystem sys(skipConfig(), benchmarkParams("zeus"));
    sys.setSkipThreads(threads);
    FaultOutcome o;
    {
        const FaultPlan plan =
            FaultPlan::parse("sample.ff:" + std::to_string(nth));
        const FaultArmGuard arm(plan, 1);
        try {
            sys.fastForward(kFirstSkip, 0);
        } catch (const InjectedFault &e) {
            o.what = e.what();
        }
    }
    o.image = imageOf(sys.values());
    o.cursors = cursorsOf(sys);
    o.states = skipStatesOf(sys);
    o.chunks = sys.stats().counter("sample.ff_chunks");
    o.skip_instructions = sys.stats().counter("sample.ff_skip_instructions");
    return o;
}

// sample.ff:N fires at the N-th round's probe, on the calling thread,
// and leaves the state a serial skip has there: the rounds before it
// committed, none after — in a window's commit and in its rollback.
TEST(ParallelSkipFaultTest, ProbeFiresAtTheSameRoundAtEveryThreadCount)
{
    for (std::uint64_t nth : {1u, 2u, 5u, 8u, 9u, 12u}) {
        SCOPED_TRACE("sample.ff:" + std::to_string(nth));
        const FaultOutcome serial = faultAt(nth, 1);
        ASSERT_FALSE(serial.what.empty());

        // The clean state after exactly nth - 1 rounds.
        CmpSystem clean(skipConfig(), benchmarkParams("zeus"));
        clean.setSkipThreads(1);
        if (nth > 1)
            clean.fastForward((nth - 1) * 2000, 0);
        EXPECT_TRUE(serial.image == imageOf(clean.values()));
        EXPECT_TRUE(serial.cursors == cursorsOf(clean));
        EXPECT_TRUE(serial.states == skipStatesOf(clean));
        EXPECT_EQ(serial.chunks, nth - 1);
        EXPECT_EQ(serial.skip_instructions, (nth - 1) * 2000 * kCores);

        for (unsigned threads : {4u, 8u}) {
            const FaultOutcome o = faultAt(nth, threads);
            EXPECT_EQ(o.what, serial.what);
            EXPECT_TRUE(o.image == serial.image);
            EXPECT_TRUE(o.cursors == serial.cursors);
            EXPECT_TRUE(o.states == serial.states);
            EXPECT_EQ(o.chunks, serial.chunks);
            EXPECT_EQ(o.skip_instructions, serial.skip_instructions);
        }
    }
}

// A checkpoint restore replays the logged fast-forward with fault
// sites muted on the calling thread. Its skip windows run on worker
// threads, which never probe, so the armed sample.ff:1 stays silent
// through the replay — and still fires, with its count intact, at the
// first probe after it.
TEST(ParallelSkipFaultTest, ProbeMutedDuringRestoreStaysMutedOnWorkers)
{
    ckpt::setArmed(true);
    CmpSystem saved(skipConfig(), benchmarkParams("zeus"));
    CmpSystem restored(skipConfig(), benchmarkParams("zeus"));
    ckpt::setArmed(false);
    saved.setSkipThreads(1);
    restored.setSkipThreads(4);

    saved.fastForward(kFirstSkip, 0);
    saved.run(1000);
    const std::string bytes = saved.checkpointBytes();

    const FaultPlan plan = FaultPlan::parse("sample.ff:1");
    const FaultArmGuard arm(plan, 1);
    EXPECT_NO_THROW(restored.restoreCheckpoint(bytes));
    EXPECT_EQ(restored.checkpointBytes(), bytes);
    EXPECT_GT(restored.fastForwardEngine()->rollbacks(), 0u);
    EXPECT_THROW(restored.fastForward(2000, 0), InjectedFault);
}

} // namespace
} // namespace cmpsim
