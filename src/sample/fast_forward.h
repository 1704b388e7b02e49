/**
 * @file
 * FastForwardEngine (DESIGN.md §14): first-class functional execution
 * — every core advances its instruction stream updating cache,
 * directory, prefetcher-table and DRAM-row state with no event
 * timing. This generalizes CmpSystem::warmup()'s inner loop into a
 * budgeted mode the sampling engine invokes between detailed
 * intervals, with its own fault site (sample.ff), deadline polling,
 * stat counters and an instruction-conservation audit.
 *
 * The pure-skip prefix of a phase runs in windows of up to
 * kWindowRounds interleave rounds, each core's rounds on its own host
 * thread, with the value store read-only; the calling thread then
 * applies the cores' SkipLogs in serial order. A core that speculated
 * wrong about a first touch is rolled back and finishes the window
 * one chunk at a time. The outcome is byte-identical to a serial skip
 * at any thread count.
 *
 * The engine must only run from a *quiesced* system (no pending
 * events): functional accesses evict cache lines, and a pending fill
 * completion holding a tag reference across an eviction would corrupt
 * the set. CmpSystem::fastForward() drains all event queues to
 * quiescence before delegating here.
 */

#ifndef CMPSIM_SAMPLE_FAST_FORWARD_H
#define CMPSIM_SAMPLE_FAST_FORWARD_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/core/core_model.h"
#include "src/mem/skip_log.h"
#include "src/workload/synthetic_workload.h"

namespace cmpsim {

class L2Cache;

/** Budgeted functional execution over all cores. */
class FastForwardEngine
{
  public:
    /** @p streams[i] feeds @p cores[i]; @p values is the store both
     *  touch. */
    FastForwardEngine(std::vector<CoreModel *> cores,
                      std::vector<SyntheticWorkload *> streams,
                      ValueStore &values, L2Cache &l2);
    ~FastForwardEngine();

    FastForwardEngine(const FastForwardEngine &) = delete;
    FastForwardEngine &operator=(const FastForwardEngine &) = delete;

    /**
     * Advance every core @p instr_per_core instructions, interleaved
     * in chunks so the shared L2 sees a realistic access mix. The
     * last @p warm_per_core instructions (clamped; default the whole
     * budget) run in functional-warming mode updating cache and
     * prefetcher state; anything before runs in pure skip mode
     * (workload position and value store only — see
     * CoreModel::runSkip()), in parallel windows. Probes
     * faultSite("sample.ff") and the point deadline once per chunk
     * round, in order, on the calling thread.
     */
    void advance(std::uint64_t instr_per_core,
                 std::uint64_t warm_per_core =
                     ~static_cast<std::uint64_t>(0));

    /**
     * Host threads a skip window may use, the calling thread
     * included; 0 (the default) means the host's hardware
     * concurrency. A window uses min(cores, this) threads. Workers
     * start at the first window that needs them, not here.
     */
    void setSkipThreads(unsigned threads) { skip_threads_ = threads; }

    /** Lanes (one core's window) rolled back on a mis-speculated
     *  first touch. Not a registered stat: it depends on nothing but
     *  the workload, yet adding it would change every sampled stats
     *  dump. */
    std::uint64_t rollbacks() const { return rollbacks_; }

    /** Total instructions fast-forwarded (all cores, all calls). */
    std::uint64_t instructionsAdvanced() const
    {
        return instructions_.value();
    }

    /**
     * Account for a pure-skip budget a lockstep leader executed on
     * this system's behalf (CmpSystem::adoptSkip()). The cores'
     * retirement counters were copied to the post-skip values, so
     * both sides of the conservation audit grow by @p budget.
     */
    void
    noteAdopted(std::uint64_t budget)
    {
        instructions_ += budget;
        skip_instructions_ += budget;
        expected_ += budget;
        observed_ += budget;
    }

    /**
     * Conservation audit: across every advance() call, the cores'
     * retirement counters must have grown by exactly the budget
     * handed out — a functional loop that skips or double-counts
     * instructions would silently bias every sampled metric.
     */
    bool conserved(std::string &why) const;

    /** Register "prefix.ff_instructions" / "prefix.ff_chunks" /
     *  "prefix.ff_skip_instructions". */
    void registerStats(StatRegistry &reg, const std::string &prefix);

  private:
    class Workers;

    /** Interleave rounds per parallel skip window (DESIGN.md §14). */
    static constexpr unsigned kWindowRounds = 8;
    /** Rounds of a window after one that rolled a lane back: where
     *  first touches collide, a short window discards less
     *  speculation. Each clean window doubles the next one's rounds,
     *  up to kWindowRounds. */
    static constexpr unsigned kColdWindowRounds = 2;
    static_assert(kWindowRounds <= SkipLog::kMaxRounds);

    /** One core's skip window: its log and where it stood at the
     *  start of each round. Cache-line aligned: worker threads write
     *  neighbouring lanes.
     *
     *  Only the calling thread allocates any of it: the log with the
     *  engine, the cursor snapshots at the first window, and log
     *  growth between windows. A worker's allocations would come from
     *  that thread's own malloc arena, and which worker runs which
     *  lane changes from run to run; with the logs grown on the
     *  workers, perfbench's functional_mgrid peak RSS spread over
     *  3.5 MB across runs. Where the buffers sit in the heap moves it
     *  too: with the logs sized at the first window instead, the heap
     *  kept 4 MB more free but fragmented. */
    struct alignas(64) Lane
    {
        CoreModel *core;
        SyntheticWorkload *stream;
        SkipLog log;
        std::array<SyntheticWorkload::Cursor, kWindowRounds> cursors;
        std::array<CoreModel::SkipState, kWindowRounds> states;
        /** Rounds of this window the log holds: fewer than the
         *  window's when a round found the capped log full. */
        unsigned speculated = 0;
        /** Rolled back or out of log room in this window: runs the
         *  rest of it chunk by chunk on the calling thread. */
        bool serial = false;

        /** Put the core back to the start of round @p r. */
        void rewind(unsigned r);
    };

    /** Sum of every core's retirement counter. */
    std::uint64_t retiredTotal() const;

    /** Run the window in window_len_[0, window_rounds_): speculate,
     *  then commit in serial order. */
    void skipWindow();

    /** Lane @p i's whole window, from its current state (any thread). */
    void speculate(unsigned i);

    /** The chunk function: @p len instructions of @p lane into its log,
     *  closing one round there. */
    static void runRound(Lane &lane, std::uint64_t len);

    /** Count one finished round of @p len instructions per core. */
    void countRound(std::uint64_t len);

    /** Threads the next window uses. */
    unsigned windowThreads() const;

    ValueStore &values_;
    L2Cache &l2_;
    std::vector<Lane> lanes_;
    std::array<std::uint64_t, kWindowRounds> window_len_{};
    bool shaped_ = false; ///< cursor snapshots allocated (first window)
    unsigned window_rounds_ = 0;
    unsigned next_rounds_ = kWindowRounds; ///< the next window's length
    unsigned skip_threads_ = 0;
    std::unique_ptr<Workers> workers_;
    std::uint64_t rollbacks_ = 0;
    Counter instructions_;      ///< budget handed out (all cores)
    Counter skip_instructions_; ///< pure-skip share of the budget
    Counter chunks_;            ///< interleave rounds executed
    std::uint64_t expected_ = 0; ///< cumulative budget (all cores)
    std::uint64_t observed_ = 0; ///< retirement growth across advances
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_FAST_FORWARD_H
