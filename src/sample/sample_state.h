/**
 * @file
 * Mutable progress state of one statistical-sampling plan (DESIGN.md
 * §14), owned by CmpSystem so CheckpointCodec saves it with every
 * snapshot: a mid-plan autosave must carry the interval cursor, the
 * in-progress interval's stat baseline and every closed interval's
 * metric sample, or a restored run could not resume to a
 * byte-identical final report. The SamplingController in src/sample/ holds the *logic*;
 * all of its *state* lives here.
 */

#ifndef CMPSIM_SAMPLE_SAMPLE_STATE_H
#define CMPSIM_SAMPLE_SAMPLE_STATE_H

#include <cstdint>
#include <vector>

#include "src/common/stats.h"

namespace cmpsim {

/** Headline metrics of one closed detailed interval. */
struct IntervalSample
{
    double cycles = 0;
    double instructions = 0;
    double ipc = 0;
    double l2_miss_rate = 0;
    double l2_mpki = 0;
    double bandwidth_gbps = 0;
    double compression_ratio = 0;
};

/** Progress of one sampling plan (checkpointed when armed). */
struct SampleState
{
    /** Closed (fully measured) intervals so far. */
    std::uint32_t intervals_done = 0;

    /** A detailed interval is in progress (between beginInterval()
     *  and closeInterval()) — where every mid-plan autosave lands,
     *  since only detailed intervals advance simulated time. */
    bool in_detail = false;

    /** Stat baseline at the open interval's start (valid only while
     *  in_detail); differenced against the interval-end snapshot. */
    StatSnapshot baseline;

    /** Accumulated per-interval stat deltas over closed intervals —
     *  the counters a sampled RunResult's metrics are derived from,
     *  so fast-forward and drain phases never pollute them. */
    StatSnapshot detail_totals;

    /** Per-interval metric samples (CI inputs). */
    std::vector<IntervalSample> samples;

    /** Total functionally fast-forwarded instructions (all cores). */
    std::uint64_t ff_instructions = 0;

    /** The CI stopping rule fired before max_intervals. */
    bool stopped_early = false;
};

} // namespace cmpsim

#endif // CMPSIM_SAMPLE_SAMPLE_STATE_H
