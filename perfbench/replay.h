/**
 * @file
 * Per-layer replays for traced runs: each layer's public calls are
 * driven directly on a stream taken from the workload itself —
 * SyntheticWorkload::next() addresses and the L2 misses captured from
 * the pipeline — and timed per call. Each replay also checks what it
 * can of its layer's outputs (codec round trips, link delivery, event
 * counts), counting a wrong output as a failed operation.
 */

#ifndef CMPSIM_PERFBENCH_REPLAY_H
#define CMPSIM_PERFBENCH_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"

namespace perfbench {

/** Host nanoseconds per call, medians over the replay passes. */
struct LayerTimes
{
    double next_ns = 0;
    std::uint64_t lines_touched = 0;
    double value_store_line_ns = 0;
    double fpc_compress_ns = 0;
    double fpc_decompress_ns = 0;
    double bdi_compress_ns = 0;
    double ratio = 0; ///< FPC compression ratio of the replayed lines
    double l2_functional_ns = 0;
    double set_find_ns = 0;
    double set_insert_ns = 0; ///< includes the presence check
    double observe_miss_ns = 0;
    double link_send_ns = 0; ///< send plus its delivery events
    double eq_ns_per_event = 0;

    unsigned attempted = 0;
    std::vector<std::string> failures;
};

/**
 * Replay every layer for @p plan's workload, seed and config.
 * @p l2_misses are the pipeline's captured miss lines; @p smoke
 * shrinks the streams.
 */
LayerTimes replayLayers(const PipelinePlan &plan,
                        const std::vector<cmpsim::Addr> &l2_misses,
                        bool smoke, SpanLog &spans);

/** Host time of the matrix's points, each re-run by hand. */
struct PointTimes
{
    std::vector<double> task_s; ///< one per (point, seed)
    double warm_s = 0;          ///< summed warmup() time
    unsigned attempted = 0;
    std::vector<std::string> failures;
};

/**
 * Re-run every (point, seed) of @p matrix serially through the same
 * public calls runOnce() makes, timing warm-up and measurement apart,
 * and check each result's cycles against @p batch's.
 */
PointTimes replayPoints(const MatrixPlan &matrix,
                        const cmpsim::BatchResult &batch, SpanLog &spans);

/** Checkpoint save/restore at the end of warm-up. */
struct CheckpointTimes
{
    double save_ms = 0;
    double restore_ms = 0;
    std::size_t bytes = 0;
    unsigned attempted = 0;
    std::vector<std::string> failures;
};

/**
 * Warm @p plan's system, save a checkpoint, finish the run; restore
 * the checkpoint into a fresh system and finish that one too. Both
 * stats fingerprints must equal @p uninterrupted_fp.
 */
CheckpointTimes checkpointRoundTrip(const PipelinePlan &plan,
                                    std::uint64_t uninterrupted_fp,
                                    SpanLog &spans);

} // namespace perfbench

#endif // CMPSIM_PERFBENCH_REPLAY_H
