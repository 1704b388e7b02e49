/**
 * @file
 * Allocation gate for the timed path: once a detailed run has reached
 * its high-water marks (event slab, MSHR files, queues), further
 * run() calls must not touch the heap.
 *
 * The one allocation source a run keeps is the simulated memory
 * image: the value store grows its arena as the workload touches lines
 * for the first time (zeus keeps touching new lines long after
 * warm-up). The store counts those growth allocations itself, and the
 * gate requires every counted allocation to be one of them.
 *
 * This binary replaces the global operator new with a counting one,
 * which is why it is its own executable: no other suite pays for (or
 * is perturbed by) the counter. Only allocations made while a
 * CountScope is open are counted.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/compression/fpc.h"
#include "src/core_api/cmp_system.h"
#include "src/core_api/experiment.h"

extern char **environ;

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    if (g_counting)
        ++g_allocs;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

// The replacement pair is malloc/free by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cmpsim {
namespace {

/** Counts operator-new calls made while it is alive. */
class CountScope
{
  public:
    CountScope()
    {
        g_allocs = 0;
        g_counting = true;
    }
    ~CountScope() { g_counting = false; }
    CountScope(const CountScope &) = delete;
    CountScope &operator=(const CountScope &) = delete;

    std::uint64_t count() const { return g_allocs; }
};

/**
 * The gate measures the default timed path. CMPSIM_* knobs arm
 * audits (whose fill round-trip check builds bit streams), traces or
 * checkpoints, all of which allocate by design, so they are cleared
 * for this process.
 */
void
clearCmpsimKnobs()
{
    std::vector<std::string> names;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "CMPSIM_", 7) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

TEST(AllocFreeTest, SteadyStateDetailedRunDoesNotAllocate)
{
    clearCmpsimKnobs();
    // zeus, 8 cores, cache + link compression, adaptive prefetching,
    // fixed-latency DRAM.
    SystemConfig cfg = makeConfig(8, 4, true, true, true, true);
    cfg.dram.backend = DramBackendKind::Fixed;
    CmpSystem sys(cfg, benchmarkParams("zeus"));
    sys.run(20000);
    const std::uint64_t growth0 = sys.values().growthAllocations();
    std::uint64_t allocs = 0;
    {
        const CountScope scope;
        sys.run(20000);
        allocs = scope.count();
    }
    const std::uint64_t growth = sys.values().growthAllocations() - growth0;
    EXPECT_GT(sys.instructions(), 0u);
    EXPECT_EQ(allocs - growth, 0u)
        << allocs << " allocations, " << growth
        << " of them value-store growth";
}

TEST(AllocFreeTest, FpcSizeOnlyCompressDoesNotAllocate)
{
    // A zero line, a small-value line, and a line of raw words.
    std::vector<LineData> lines(3);
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        setLineWord(lines[1], w, w % 3 == 0 ? 0 : w * 5);
        setLineWord(lines[2], w, 0x9e3779b9u * (w + 1));
    }
    const FpcCompressor fpc;
    unsigned segments = 0;
    std::uint64_t allocs = 0;
    {
        const CountScope scope;
        for (const LineData &l : lines)
            segments += fpc.compress(l, nullptr).segments;
        allocs = scope.count();
    }
    EXPECT_EQ(segments, 1u + fpc.compressedSegments(lines[1]) + 8u);
    EXPECT_EQ(allocs, 0u);
}

} // namespace
} // namespace cmpsim
