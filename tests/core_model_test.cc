#include "src/core/core_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/audit/invariant_registry.h"
#include "src/compression/fpc.h"

namespace cmpsim {
namespace {

/** Scripted instruction stream for deterministic core tests. */
class ScriptedStream : public InstructionStream
{
  public:
    static constexpr Addr kPc = 0x10000000;
    std::vector<Instruction> script;
    std::size_t pos = 0;

    Instruction
    next() override
    {
        if (pos < script.size())
            return script[pos++];
        Instruction alu;
        alu.type = InstrType::Alu;
        alu.pc = kPc; // one I-line: a single cold fetch miss
        ++pos;
        return alu;
    }

    void
    addAlu(int count)
    {
        for (int i = 0; i < count; ++i) {
            Instruction in;
            in.type = InstrType::Alu;
            in.pc = kPc;
            script.push_back(in);
        }
    }

    void
    addLoad(Addr addr)
    {
        Instruction in;
        in.type = InstrType::Load;
        in.pc = kPc;
        in.addr = addr;
        script.push_back(in);
    }

    void
    addStore(Addr addr, std::uint32_t v)
    {
        Instruction in;
        in.type = InstrType::Store;
        in.pc = kPc;
        in.addr = addr;
        in.store_value = v;
        script.push_back(in);
    }

    void
    addBranch(bool mispredict)
    {
        Instruction in;
        in.type = InstrType::Branch;
        in.pc = kPc;
        in.mispredict = mispredict;
        script.push_back(in);
    }
};

class CoreModelTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    FpcCompressor fpc;
    ValueStore values{fpc};
    std::unique_ptr<MainMemory> mem;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<L1Cache> icache, dcache;
    ScriptedStream stream;
    std::unique_ptr<CoreModel> core;

    void
    build()
    {
        MemoryParams mp;
        mem = std::make_unique<MainMemory>(eq, values, mp);
        L2Params p2;
        p2.sets = 256;
        p2.banks = 2;
        p2.cores = 1;
        l2 = std::make_unique<L2Cache>(eq, values, *mem, p2);
        L1Params p1;
        p1.sets = 16;
        icache = std::make_unique<L1Cache>(eq, *l2, 0, p1);
        dcache = std::make_unique<L1Cache>(eq, *l2, 0, p1);
        CoreParams cp;
        core = std::make_unique<CoreModel>(eq, *icache, *dcache, values,
                                           stream, 0, cp);
    }

    /** Run until @p instructions retire; returns final cycle. */
    Cycle
    runUntil(std::uint64_t instructions, Cycle limit = 2000000)
    {
        Cycle now = 0;
        while (core->instructionsRetired() < instructions) {
            const Cycle core_wake = core->nextWake();
            const Cycle ev = eq.nextEventCycle();
            Cycle next = std::min(core_wake, ev);
            cmpsim_assert(next != kCycleNever);
            if (next < now)
                next = now;
            eq.advanceTo(next);
            now = next;
            if (core->nextWake() <= now)
                core->tick(now);
            cmpsim_assert(now < limit);
        }
        return now;
    }
};

TEST_F(CoreModelTest, AluIpcApproachesWidth)
{
    build();
    // First instruction I-fetch misses; afterwards pure ALU sustains
    // near-width IPC. Measure the steady-state delta.
    const Cycle warm = runUntil(100);
    const Cycle end = runUntil(8100);
    const double ipc = 8000.0 / static_cast<double>(end - warm);
    EXPECT_GT(ipc, 3.0);
}

TEST_F(CoreModelTest, LoadHitDoesNotStallPipeline)
{
    build();
    stream.addLoad(0x2000); // warm the line (miss)
    stream.addAlu(100);
    for (int i = 0; i < 50; ++i) {
        stream.addLoad(0x2000 + (i % 8) * 4);
        stream.addAlu(3);
    }
    // Warm section: I-miss + load miss (~900 cycles).
    const Cycle warm = runUntil(101);
    // Hit section: 200 instructions with L1-hit loads overlap fully.
    const Cycle end = runUntil(stream.script.size());
    EXPECT_LT(end - warm, 150u);
}

TEST_F(CoreModelTest, LoadMissStallsUntilMemoryReturns)
{
    build();
    stream.addLoad(0x40000);
    const Cycle end = runUntil(1);
    EXPECT_GT(end, 400u); // DRAM latency dominates
}

TEST_F(CoreModelTest, IndependentMissesOverlap)
{
    build();
    // Two independent loads to different lines dispatch in the same
    // cycle and overlap their ~440-cycle memory latencies.
    stream.addAlu(8); // absorb the I-fetch miss first
    stream.addLoad(0x100000);
    stream.addLoad(0x200000);
    const Cycle warm = runUntil(8);
    const Cycle end = runUntil(10);
    EXPECT_LT(end - warm, 600u); // less than 2x the miss latency
}

TEST_F(CoreModelTest, RobLimitsMemoryLevelParallelism)
{
    build();
    // A load miss followed by >128 ALU ops: the ROB fills and the next
    // miss cannot dispatch until the first retires.
    stream.addLoad(0x100000);
    stream.addAlu(200);
    stream.addLoad(0x200000);
    const Cycle end = runUntil(stream.script.size());
    EXPECT_GT(end, 800u); // the two misses serialize
}

TEST_F(CoreModelTest, StoresRetireWithoutWaitingForMemory)
{
    build();
    stream.addAlu(8); // absorb the I-fetch miss first
    stream.addStore(0x300000, 7);
    stream.addAlu(20);
    const Cycle warm = runUntil(8);
    const Cycle end = runUntil(29);
    EXPECT_LT(end - warm, 100u); // no 400-cycle stall
    // But the MSHR was used: the store's line lands in the caches.
    eq.drain();
    EXPECT_TRUE(dcache->probeHit(0x300000));
}

TEST_F(CoreModelTest, StoreWritesValueStore)
{
    build();
    stream.addStore(0x300004, 0xabcd1234);
    runUntil(1);
    EXPECT_EQ(lineWord(values.line(0x300000), 1), 0xabcd1234u);
}

TEST_F(CoreModelTest, MispredictedBranchStallsFetch)
{
    build();
    stream.addAlu(16); // warm I-line
    stream.addBranch(true);
    stream.addAlu(16);
    const Cycle no_penalty_estimate = 16 / 4 + 16 / 4 + 1;
    const Cycle end = runUntil(33);
    EXPECT_GT(end, no_penalty_estimate + 8);
}

TEST_F(CoreModelTest, MshrLimitThrottlesOutstandingLoads)
{
    build();
    for (int i = 0; i < 32; ++i)
        stream.addLoad(0x400000 + i * 64);
    runUntil(32);
    // With 16 MSHRs the 32 misses need two memory rounds. (Padding
    // ALU instructions may retire alongside the scripted loads.)
    EXPECT_GE(core->instructionsRetired(), 32u);
    EXPECT_GT(dcache->misses(), 16u);
}

TEST_F(CoreModelTest, FunctionalRunWarmsCaches)
{
    build();
    stream.addLoad(0x500000);
    stream.addLoad(0x500040);
    core->runFunctional(2);
    EXPECT_TRUE(dcache->probeHit(0x500000));
    EXPECT_TRUE(dcache->probeHit(0x500040));
    EXPECT_EQ(core->instructionsRetired(), 2u);
    EXPECT_EQ(mem->link().totalBytes(), 0u);
}

TEST_F(CoreModelTest, IFetchMissStallsDispatch)
{
    build();
    // All instructions on one line; first fetch misses: nothing can
    // retire before the I-line returns (~440 cycles).
    stream.addAlu(4);
    const Cycle end = runUntil(4);
    EXPECT_GT(end, 400u);
}

TEST_F(CoreModelTest, RobWakeAuditHoldsEveryCycle)
{
    // Blocks the core on every kind of wait in turn: load misses, a
    // full MSHR file, mispredicted branches and the cold I-fetch.
    for (int i = 0; i < 60; ++i) {
        stream.addLoad(0x200000 + 0x1000 * static_cast<Addr>(i));
        stream.addAlu(3);
        stream.addStore(0x400000 + 64 * static_cast<Addr>(i), 7);
        stream.addBranch(i % 5 == 0);
    }
    build();
    InvariantRegistry reg;
    core->registerAudits(reg, "core.0");
    Cycle now = 0;
    unsigned blocked_ticks = 0;
    while (core->instructionsRetired() < 400) {
        Cycle next = std::min(core->nextWake(), eq.nextEventCycle());
        ASSERT_NE(next, kCycleNever) << "core lost its wake-up";
        next = std::max(next, now);
        eq.advanceTo(next);
        now = next;
        if (core->nextWake() <= now && core->tick(now) != now + 1)
            ++blocked_ticks;
        const auto failures = reg.check();
        ASSERT_TRUE(failures.empty())
            << "cycle " << now << ": " << failures[0].detail;
    }
    EXPECT_GT(blocked_ticks, 100u);
}

} // namespace
} // namespace cmpsim
