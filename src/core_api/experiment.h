/**
 * @file
 * Experiment harness: runs (config, workload, seed) points, extracts
 * the paper's metrics, aggregates over seeds with 95% confidence
 * intervals [3], and computes the speedup / interaction arithmetic of
 * Section 5 (EQ 5, after Fields et al. [21]).
 */

#ifndef CMPSIM_CORE_API_EXPERIMENT_H
#define CMPSIM_CORE_API_EXPERIMENT_H

#include <string>
#include <vector>

#include "src/core_api/cmp_system.h"
#include "src/workload/workload_params.h"

namespace cmpsim {

/** Metrics extracted from one simulation run. */
struct RunResult
{
    double cycles = 0;
    double instructions = 0;
    double ipc = 0;

    // L2 behaviour.
    double l2_demand_misses = 0;
    double l2_demand_accesses = 0;
    double l2_miss_rate = 0;                  ///< misses / accesses
    double l2_misses_per_kilo_instr = 0;

    // Off-chip.
    double bandwidth_gbps = 0;

    // Compression.
    double compression_ratio = 1.0;
    double penalized_hits = 0;

    // Prefetching (Table 4 metrics per prefetcher level).
    struct PfMetrics
    {
        double rate_per_kilo_instr = 0; ///< EQ 2
        double coverage_pct = 0;        ///< EQ 3
        double accuracy_pct = 0;        ///< EQ 4
    };
    PfMetrics l1i, l1d, l2pf;

    // Adaptive mechanism.
    double l2_adaptive_counter = 0;
    double useful_prefetches = 0;
    double useless_prefetches = 0;
    double harmful_flags = 0;
    double victim_tags_per_set = 0;

    /**
     * Statistical sampling (DESIGN.md §14): populated when the run
     * used an armed config.sampling plan. The headline fields above
     * then aggregate over exactly the detailed intervals (counter
     * deltas bracketing each measured window), and these summaries
     * carry the per-interval mean / 95% CI of each metric.
     */
    struct SampledMetrics
    {
        bool armed = false;
        unsigned intervals = 0;     ///< intervals actually measured
        bool stopped_early = false; ///< CI stopping rule fired
        double ff_instructions = 0; ///< fast-forwarded, all cores

        SampleSummary cycles;
        SampleSummary ipc;
        SampleSummary l2_miss_rate;
        SampleSummary l2_mpki;
        SampleSummary bandwidth_gbps;
        SampleSummary compression_ratio;
    };
    SampledMetrics sampled;
};

/** Run-length policy (overridable via environment; see options.cc). */
struct RunLengths
{
    std::uint64_t warmup_per_core = 200000;
    std::uint64_t measure_per_core = 60000;
};

/**
 * Environment-configured defaults:
 *   CMPSIM_SCALE   capacity divisor (default 4; 1 = paper full size)
 *   CMPSIM_WARMUP  functional warmup instructions per core
 *   CMPSIM_MEASURE timed instructions per core
 *   CMPSIM_SEEDS   seeds per experiment point (default 2)
 *   CMPSIM_JOBS    experiment worker threads (0/unset = hardware)
 */
unsigned defaultScale();
RunLengths defaultRunLengths();
unsigned defaultSeeds();

/**
 * Parse environment variable @p name as an unsigned integer,
 * returning @p fallback when unset or empty. An explicit 0 is a
 * valid value (e.g. CMPSIM_WARMUP=0, CMPSIM_JOBS=0 = auto); anything
 * parseKnobUint() rejects throws ConfigError naming the knob.
 */
std::uint64_t envUint64Or(const char *name, std::uint64_t fallback);

/**
 * Build a system, warm it up, run it, and extract metrics. When
 * config.sampling is armed the run executes the sampling plan instead
 * of one contiguous lengths.measure_per_core window (which is then
 * ignored — the plan's detail_per_core defines the measured length)
 * and RunResult::sampled carries the per-interval CIs.
 * @p skip_threads bounds the host threads of the plan's skip windows
 * (CmpSystem::setSkipThreads; 0 = hardware concurrency); it changes
 * only the speed.
 */
RunResult runOnce(const SystemConfig &config,
                  const std::string &benchmark,
                  const RunLengths &lengths, unsigned skip_threads = 0);

/** Multi-seed aggregate of a metric extracted per run. */
struct MetricSummary
{
    SampleSummary cycles;
    /** Over-seed IPC summary. Recomputed from runs wherever cycles
     *  is (aggregatePoint), never serialized: journal bodies written
     *  before it existed parse unchanged. */
    SampleSummary ipc;
    std::vector<RunResult> runs;
};

/** Run @p seeds seeds of one point. */
MetricSummary runSeeds(SystemConfig config, const std::string &benchmark,
                       const RunLengths &lengths, unsigned seeds);

/** Speedup of @p enhanced over @p base (both in cycles). */
inline double
speedup(double base_cycles, double enhanced_cycles)
{
    return base_cycles / enhanced_cycles;
}

/**
 * Interaction(A, B) per EQ 5:
 *   Speedup(A,B) = Speedup(A) x Speedup(B) x (1 + Interaction(A,B)).
 */
inline double
interaction(double speedup_a, double speedup_b, double speedup_ab)
{
    return speedup_ab / (speedup_a * speedup_b) - 1.0;
}

/** Mean over seeds of the cycle counts of @p s. */
double meanCycles(const MetricSummary &s);

/** Mean of an arbitrary RunResult field over seeds. */
double meanOf(const MetricSummary &s,
              double (*extract)(const RunResult &));

} // namespace cmpsim

#endif // CMPSIM_CORE_API_EXPERIMENT_H
