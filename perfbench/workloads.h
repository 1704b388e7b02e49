/**
 * @file
 * The benchmark's workloads and the unit of work one repetition runs.
 *
 * Every workload is the same two-part unit with different sizes, so
 * every end-to-end metric is measured on every workload:
 *
 *  - a hand-driven *pipeline*: construct a CmpSystem (several times,
 *    for setup_s), warmup(), then per interval a skip-mode and a
 *    warm-mode fastForward() and a timed run(), then the end-of-run
 *    audit and conservation checks and a stats fingerprint;
 *  - a Table-5-style *matrix* {benchmarks} x {base, pref, compr,
 *    compr+pref} through runPointsChecked(), scored against the
 *    paper's Table 5.
 *
 * detail_zeus spends its time in run(), functional_mgrid in warmup()
 * and fastForward(), matrix_jbb_oltp in the parallel matrix.
 */

#ifndef CMPSIM_PERFBENCH_WORKLOADS_H
#define CMPSIM_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/common/stats.h"
#include "src/core_api/parallel_runner.h"

namespace perfbench {

/** The hand-driven point. Lengths are instructions per core. */
struct PipelinePlan
{
    std::string benchmark;
    cmpsim::SystemConfig config; ///< sampling armed so fastForward works
    std::uint64_t warmup = 0;
    std::uint64_t ff_skip = 0; ///< skip-mode fast-forward per interval
    std::uint64_t ff_warm = 0; ///< warm-mode fast-forward per interval
    std::uint64_t detail = 0;  ///< timed run() per interval
    unsigned intervals = 1;
    /** Each phase of an interval is split into this many timed calls,
     *  so one repetition gives many throughput samples. */
    unsigned chunks = 1;
    unsigned constructs = 1; ///< constructions timed per repetition
};

/** The figure matrix, run through runPointsChecked(). */
struct MatrixPlan
{
    std::vector<std::string> benchmarks;
    unsigned scale = 4;
    unsigned seeds = 1;
    cmpsim::RunLengths lengths;
    cmpsim::SamplingPlan sampling; ///< armed = a sampled matrix
    unsigned jobs = 1;

    /** Points in benchmark-major, then base/pref/compr/compr+pref order. */
    std::vector<cmpsim::PointSpec> points() const;
};

struct WorkloadSpec
{
    PipelinePlan pipe;
    MatrixPlan matrix;
};

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * The spec of workload @p name for workload seed @p seed. The seed
 * drives the pipeline's system; matrix points use the runner's own
 * per-point seeds 1..N, so paper_err_pp is fixed for a commit.
 * @p smoke shrinks every length so the unit runs in about a second.
 * @p nproc caps the matrix's worker count. Throws on unknown names.
 */
WorkloadSpec workloadSpec(const std::string &name, std::uint64_t seed,
                          bool smoke, unsigned nproc);

/** Host time of one pipeline phase over its timed calls. */
struct PhaseTimes
{
    double seconds = 0;
    std::uint64_t instructions = 0; ///< all cores
    std::vector<double> kips;       ///< one sample per call

    void add(std::uint64_t instr, double s);
};

/** Simulated counts of one pipeline's timed run() calls. */
struct RunCounts
{
    std::uint64_t l1d_misses = 0;
    std::uint64_t l2_demand_misses = 0;
    std::uint64_t penalized_hits = 0;
    std::uint64_t pf_issued = 0;
    std::uint64_t link_bytes = 0;
    double link_queue_delay = 0; ///< mean cycles, end of pipeline
};

/** Op counts over the post-warm-up window (fast-forward + run). */
struct WindowCounts
{
    std::uint64_t instructions = 0;   ///< all cores
    std::uint64_t l2_lookups = 0;     ///< profiler "l2.lookup" calls
    std::uint64_t l2_functional = 0;  ///< profiler "l2.functional" calls
    std::uint64_t events = 0;         ///< profiler "eq.dispatch" events
    std::uint64_t l1_misses = 0;      ///< L1I + L1D
    std::uint64_t l2_misses = 0;
    std::uint64_t fills_and_writebacks = 0; ///< values (re)compressed
    std::uint64_t link_transfers = 0;
    std::uint64_t stores = 0;
    // Prefetch accuracy spans the window: a prefetch issued in warm
    // fast-forward can prove useful in run().
    std::uint64_t pf_issued = 0;
    std::uint64_t pf_useful = 0;
};

/** Host times and results of one repetition of the unit. */
struct UnitResult
{
    std::vector<double> construct_s;
    PhaseTimes warm;
    PhaseTimes ff_skip;
    PhaseTimes ff_warm;
    PhaseTimes run;
    RunCounts counts;
    double audit_s = 0;
    double matrix_s = 0;
    double wall_s = 0; ///< less the reference-kernel runs

    /** Host speed relative to nominal, one sample before each timed
     *  call (reference.h), and on the matrix's worker count on both
     *  sides of the matrix. */
    std::vector<double> host_speed;
    std::vector<double> matrix_host_speed;
    double reference_s = 0; ///< spent in the reference kernel

    void sampleHostSpeed();
    void sampleMatrixHostSpeed(unsigned jobs);

    std::uint64_t stats_fp = 0;  ///< FNV-1a of the pipeline stats dump
    std::uint64_t matrix_fp = 0; ///< FNV-1a of the summaries' bytes
    double paper_err_pp = 0;
    cmpsim::BatchResult batch;

    unsigned attempted = 0;
    std::vector<std::string> failures;

    /** Filled when the unit ran with capture on (traced runs). */
    WindowCounts window;
    std::vector<cmpsim::Addr> l2_misses; ///< captured miss lines
};

/**
 * Run one repetition. With @p capture the pipeline also records its
 * L2 misses through L2Cache::setMissObserver and counts window ops
 * with the built-in profiler; both cost host time, so they are off in
 * untraced runs.
 */
UnitResult runUnit(const WorkloadSpec &spec, SpanLog &spans, bool capture);

/** The pipeline's warm-up calls on @p sys, timed into @p r. */
void warmPipeline(cmpsim::CmpSystem &sys, const PipelinePlan &plan,
                  SpanLog &spans, UnitResult &r);

/** The pipeline's post-warm-up calls on @p sys, timed into @p r. */
void finishPipeline(cmpsim::CmpSystem &sys, const PipelinePlan &plan,
                    SpanLog &spans, UnitResult &r);

/** FNV-1a of @p stats' full dump. */
std::uint64_t statsFingerprint(const cmpsim::StatRegistry &stats);

} // namespace perfbench

#endif // CMPSIM_PERFBENCH_WORKLOADS_H
