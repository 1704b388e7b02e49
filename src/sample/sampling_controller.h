/**
 * @file
 * SamplingController (DESIGN.md §14): drives one statistical-sampling
 * plan over a CmpSystem — alternating functional fast-forward and
 * detailed (timed) measurement intervals — and reduces the
 * per-interval metric samples to means with 95% confidence intervals
 * via the Student-t summarize() the multi-seed path already uses.
 *
 * All progress state lives in CmpSystem::sampleState() (see
 * sample_state.h) so mid-plan CMPSIM_CKPT autosaves — which always
 * land inside a detailed interval, the only phase that advances
 * simulated time — save the plan cursor alongside the machine, and a
 * CMPSIM_RESTORE'd system (quiesced at the interval's fast-forward,
 * then replayed to the save point) resumes the open interval and the
 * remaining plan to a byte-identical final report.
 */

#ifndef CMPSIM_SAMPLE_SAMPLING_CONTROLLER_H
#define CMPSIM_SAMPLE_SAMPLING_CONTROLLER_H

#include "src/common/stats.h"
#include "src/sample/sample_state.h"
#include "src/sample/sampling_plan.h"

namespace cmpsim {

class CmpSystem;

/** Reduction of one completed sampling plan. */
struct SamplingResult
{
    unsigned intervals = 0;      ///< intervals actually measured
    bool stopped_early = false;  ///< CI stopping rule fired
    std::uint64_t ff_instructions = 0; ///< all cores, all FF phases

    /** Totals across detailed intervals only (FF/drain excluded). */
    double detail_cycles = 0;
    double detail_instructions = 0;

    /** Per-interval mean / 95% CI of each headline metric; every
     *  summary's n is the measured interval count. */
    SampleSummary cycles;
    SampleSummary ipc;
    SampleSummary l2_miss_rate;
    SampleSummary l2_mpki;
    SampleSummary bandwidth_gbps;
    SampleSummary compression_ratio;

    /** Summed per-interval stat deltas (counter deltas over exactly
     *  the detailed windows) for derived-metric extraction. */
    StatSnapshot totals;

    /** The raw per-interval samples behind the summaries. Because
     *  intervals are instruction-indexed, two runs differing only in
     *  architectural knobs measure the *same* workload windows —
     *  pairing samples[i] across configs cancels the phase noise
     *  that dominates the unpaired CIs (DESIGN.md §14). */
    std::vector<IntervalSample> samples;
};

/** Drives config().sampling over one system. */
class SamplingController
{
  public:
    /** @p sys must have an armed config().sampling plan. */
    explicit SamplingController(CmpSystem &sys);

    /**
     * Execute (or, after a mid-plan restore, finish) the plan:
     * for each interval, fast-forward ff_per_core instructions per
     * core, snapshot stats, run detail_per_core timed instructions
     * per core, and close the interval with the stat delta. Stops
     * early when the optional CI target is met. Probes
     * faultSite("sample.interval") once per interval.
     */
    SamplingResult run();

    /**
     * One plan step with the fast-forward phase already performed by
     * the caller (shared-prefix matrix studies, see MatrixSampler):
     * probe the interval fault site, then measure one detailed
     * interval of plan().detail_per_core instructions per core.
     */
    void measureInterval();

    /** Reduce the intervals measured so far (MatrixSampler's
     *  per-system result after it drives the plan itself). */
    SamplingResult finish() const { return reduce(); }

    const SamplingPlan &plan() const { return plan_; }

  private:
    /** Snapshot the baseline and open a detailed interval. */
    void beginInterval();

    /** Difference stats against the baseline, append the interval's
     *  metric sample, and accumulate the delta into the totals. */
    void closeInterval();

    /** True once the CI stopping rule is satisfied (needs >= 2
     *  intervals and an armed ci_target_pct). */
    bool ciTargetMet() const;

    SamplingResult reduce() const;

    CmpSystem &sys_;
    SamplingPlan plan_;
    SampleState &state_;
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_SAMPLING_CONTROLLER_H
