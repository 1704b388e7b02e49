#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench/bench_common.h"
#include "perfbench/reference.h"
#include "src/common/fingerprint.h"
#include "src/obs/profiler.h"

namespace perfbench {

using namespace cmpsim;

namespace {

/** Cap on captured L2 miss lines (2 MB of addresses). */
constexpr std::size_t kMaxCapturedMisses = 1u << 18;

/** Sum "<side>.<cpu>.<leaf>" over every core. */
std::uint64_t
perCoreSum(const StatSnapshot &s, unsigned cores, const char *side,
           const char *leaf)
{
    std::uint64_t total = 0;
    for (unsigned c = 0; c < cores; ++c) {
        total += s.counter(std::string(side) + "." + std::to_string(c) +
                           "." + leaf);
    }
    return total;
}

std::uint64_t
prefetchesIssued(const StatSnapshot &s, unsigned cores)
{
    return perCoreSum(s, cores, "l1i", "pf_issued") +
           perCoreSum(s, cores, "l1d", "pf_issued") +
           s.counter("l2.l2pf_issued");
}

void
addRunCounts(RunCounts &rc, const StatSnapshot &d, unsigned cores)
{
    rc.l1d_misses += perCoreSum(d, cores, "l1d", "misses");
    rc.l2_demand_misses += d.counter("l2.demand_misses");
    rc.penalized_hits += d.counter("l2.penalized_hits");
    rc.pf_issued += prefetchesIssued(d, cores);
    rc.link_bytes += d.counter("mem.link.bytes");
}

std::uint64_t
profCalls(const std::vector<ProfSample> &prof, const char *site)
{
    for (const ProfSample &s : prof) {
        if (s.name == site)
            return s.calls;
    }
    return 0;
}

/** Mean absolute error (pp) of the matrix's Table 5 columns. */
double
paperError(const MatrixPlan &m, const BatchResult &batch)
{
    double err = 0;
    for (std::size_t b = 0; b < m.benchmarks.size(); ++b) {
        const double base = meanCycles(batch.summaries[4 * b]);
        const double sp = speedup(base, meanCycles(batch.summaries[4 * b + 1]));
        const double sc = speedup(base, meanCycles(batch.summaries[4 * b + 2]));
        const double sb = speedup(base, meanCycles(batch.summaries[4 * b + 3]));
        const bench::Table5Row &row = bench::paperRow(m.benchmarks[b]);
        err += (std::fabs((sp - 1) * 100 - row.pref) +
                std::fabs((sc - 1) * 100 - row.compr) +
                std::fabs((sb - 1) * 100 - row.compr_pref) +
                std::fabs(interaction(sp, sc, sb) * 100 - row.interaction)) /
               4.0;
    }
    return err / static_cast<double>(m.benchmarks.size());
}

/** Arm the plan's sampling so CmpSystem builds its fast-forward engine. */
SystemConfig
pipelineConfig(SystemConfig c, const PipelinePlan &p, std::uint64_t seed)
{
    c.seed = seed;
    c.sampling.ff_per_core = p.ff_skip + p.ff_warm;
    c.sampling.warm_per_core = p.ff_warm;
    c.sampling.detail_per_core = p.detail;
    c.sampling.max_intervals = p.intervals;
    return c;
}

} // namespace

std::vector<PointSpec>
MatrixPlan::points() const
{
    std::vector<PointSpec> out;
    for (const std::string &bm : benchmarks) {
        for (const auto &[pref, compr] :
             {std::pair{false, false}, std::pair{true, false},
              std::pair{false, true}, std::pair{true, true}}) {
            PointSpec spec;
            spec.config = makeConfig(8, scale, compr, compr, pref, false);
            spec.config.sampling = sampling;
            spec.benchmark = bm;
            spec.lengths = lengths;
            spec.seeds = seeds;
            out.push_back(spec);
        }
    }
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "detail_zeus", "functional_mgrid", "matrix_jbb_oltp"};
    return names;
}

WorkloadSpec
workloadSpec(const std::string &name, std::uint64_t seed, bool smoke,
             unsigned nproc)
{
    // Smoke mode divides every pipeline length by this.
    const std::uint64_t div = smoke ? 20 : 1;
    WorkloadSpec w;
    PipelinePlan &p = w.pipe;
    MatrixPlan &m = w.matrix;
    p.constructs = smoke ? 2 : 5;
    if (name == "detail_zeus") {
        p.benchmark = "zeus";
        p.config = makeConfig(8, 1, true, true, true, true);
        p.warmup = 100000 / div;
        p.ff_skip = 200000 / div;
        p.ff_warm = 100000 / div;
        p.detail = 400000 / div;
        p.chunks = 8;
        m.benchmarks = {"zeus"};
        m.lengths = {100000, 30000};
    } else if (name == "functional_mgrid") {
        p.benchmark = "mgrid";
        p.config = makeConfig(8, 1, false, false, false, false);
        p.warmup = 1000000 / div;
        p.ff_skip = 375000 / div;
        p.ff_warm = 125000 / div;
        p.detail = 5000 / div;
        p.intervals = 6;
        p.chunks = 2;
        m.benchmarks = {"mgrid"};
        m.lengths = {100000, 5000};
        m.seeds = 2;
        m.sampling.ff_per_core = 50000;
        m.sampling.warm_per_core = 12500;
        m.sampling.detail_per_core = 5000;
        m.sampling.max_intervals = 4;
    } else if (name == "matrix_jbb_oltp") {
        p.benchmark = "jbb";
        p.config = makeConfig(8, 4, true, true, true, false);
        p.warmup = 600000 / div;
        p.ff_skip = 400000 / div;
        p.ff_warm = 200000 / div;
        p.detail = 80000 / div;
        p.chunks = 8;
        m.benchmarks = {"jbb", "oltp"};
        m.lengths = {400000, 50000};
        m.seeds = 2;
        m.jobs = std::clamp(nproc, 1u, 4u);
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    p.config = pipelineConfig(p.config, p, seed);
    if (smoke) {
        m.lengths = {20000, 5000};
        m.seeds = 1;
        if (m.sampling.armed()) {
            m.sampling.ff_per_core = 10000;
            m.sampling.warm_per_core = 2500;
            m.sampling.detail_per_core = 2000;
            m.sampling.max_intervals = 2;
        }
    }
    return w;
}

std::uint64_t
statsFingerprint(const StatRegistry &stats)
{
    std::ostringstream os;
    stats.dump(os);
    return fnv1a(os.str());
}

void
PhaseTimes::add(std::uint64_t instr, double s)
{
    seconds += s;
    instructions += instr;
    kips.push_back(s > 0 ? static_cast<double>(instr) / 1000.0 / s : 0);
}

void
UnitResult::sampleHostSpeed()
{
    const double ns = referenceNs();
    reference_s += ns * 1e-9;
    host_speed.push_back(kNominalNs / ns);
}

void
UnitResult::sampleMatrixHostSpeed(unsigned jobs)
{
    for (int i = 0; i < 3; ++i) {
        const Clock::time_point t0 = Clock::now();
        matrix_host_speed.push_back(parallelHostSpeed(jobs));
        reference_s += secondsSince(t0);
    }
}

namespace {

/** One timed call: @p call() under a span, charged to @p phase. */
template <typename Call>
void
timed(SpanLog &spans, const char *name, UnitResult &r, PhaseTimes &phase,
      std::uint64_t instr, Call call)
{
    r.sampleHostSpeed();
    SpanLog::Scope s(spans, name);
    const Clock::time_point t0 = Clock::now();
    call();
    phase.add(instr, secondsSince(t0));
}

} // namespace

void
warmPipeline(CmpSystem &sys, const PipelinePlan &p, SpanLog &spans,
             UnitResult &r)
{
    const std::uint64_t cores = p.config.cores;
    // As many warm-up calls as any other phase makes in a repetition.
    const unsigned calls = p.chunks * p.intervals;
    const std::uint64_t per_call = p.warmup / calls;
    for (unsigned c = 0; c < calls; ++c) {
        timed(spans, "core_api.warmup", r, r.warm, per_call * cores,
              [&] { sys.warmup(per_call); });
    }
}

void
finishPipeline(CmpSystem &sys, const PipelinePlan &p, SpanLog &spans,
               UnitResult &r)
{
    const std::uint64_t cores = p.config.cores;
    const std::uint64_t skip = p.ff_skip / p.chunks;
    const std::uint64_t warm = p.ff_warm / p.chunks;
    const std::uint64_t detail = p.detail / p.chunks;
    for (unsigned i = 0; i < p.intervals; ++i) {
        for (unsigned c = 0; c < p.chunks && skip > 0; ++c) {
            timed(spans, "core_api.fast_forward.skip", r, r.ff_skip,
                  skip * cores, [&] { sys.fastForward(skip, 0); });
        }
        for (unsigned c = 0; c < p.chunks && warm > 0; ++c) {
            timed(spans, "core_api.fast_forward.warm", r, r.ff_warm,
                  warm * cores, [&] { sys.fastForward(warm); });
        }
        const StatSnapshot before = sys.stats().snapshot();
        for (unsigned c = 0; c < p.chunks; ++c) {
            r.sampleHostSpeed();
            SpanLog::Scope s(spans, "core_api.run");
            const Clock::time_point t0 = Clock::now();
            sys.run(detail);
            r.run.add(sys.instructions(), secondsSince(t0));
        }
        addRunCounts(r.counts,
                     StatRegistry::delta(sys.stats().snapshot(), before),
                     p.config.cores);
    }
}

UnitResult
runUnit(const WorkloadSpec &spec, SpanLog &spans, bool capture)
{
    UnitResult r;
    const Clock::time_point unit_t0 = Clock::now();
    SpanLog::Scope unit_span(spans, "unit");
    const PipelinePlan &p = spec.pipe;
    const WorkloadParams params = benchmarkParams(p.benchmark);
    const unsigned cores = p.config.cores;

    std::unique_ptr<CmpSystem> sys;
    for (unsigned i = 0; i < p.constructs; ++i) {
        sys.reset();
        r.sampleHostSpeed();
        SpanLog::Scope s(spans, "core_api.construct");
        const Clock::time_point t0 = Clock::now();
        sys = std::make_unique<CmpSystem>(p.config, params);
        r.construct_s.push_back(secondsSince(t0));
    }
    if (capture) {
        sys->l2().setMissObserver([&r](ReqType type, Addr line) {
            if (type == ReqType::Demand &&
                r.l2_misses.size() < kMaxCapturedMisses)
                r.l2_misses.push_back(line);
        });
    }

    ++r.attempted;
    warmPipeline(*sys, p, spans, r);
    if (capture) {
        profReset();
        setProfEnabled(true);
    }
    finishPipeline(*sys, p, spans, r);
    const StatSnapshot end = sys->stats().snapshot();
    if (end.averages.count("mem.link.queue_delay") != 0) {
        const StatSnapshot::Avg &a = end.averages.at("mem.link.queue_delay");
        r.counts.link_queue_delay =
            a.count == 0 ? 0 : a.sum / static_cast<double>(a.count);
    }
    if (capture) {
        const std::vector<ProfSample> prof = profSnapshot();
        setProfEnabled(false);
        WindowCounts &w = r.window;
        w.instructions = r.ff_skip.instructions + r.ff_warm.instructions +
                         r.run.instructions;
        w.l2_lookups = profCalls(prof, "l2.lookup");
        w.l2_functional = profCalls(prof, "l2.functional");
        w.events = profCalls(prof, "eq.dispatch");
        w.l1_misses = perCoreSum(end, cores, "l1i", "misses") +
                      perCoreSum(end, cores, "l1d", "misses");
        w.l2_misses = end.counter("l2.demand_misses");
        w.fills_and_writebacks =
            end.counter("mem.reads") + end.counter("l2.l1_writebacks");
        w.link_transfers = end.counter("mem.link.transfers");
        w.stores = perCoreSum(end, cores, "core", "stores");
        w.pf_issued = prefetchesIssued(end, cores);
        w.pf_useful = perCoreSum(end, cores, "l1i", "pf_hits") +
                      perCoreSum(end, cores, "l1d", "pf_hits") +
                      end.counter("l2.pf_hits_l2");
    }

    // End-of-run correctness: every audit, then enforce() (timed),
    // and fast-forward instruction conservation.
    ++r.attempted;
    {
        SpanLog::Scope s(spans, "audit.enforce");
        const std::vector<InvariantFailure> failed = sys->audits().check();
        if (failed.empty()) {
            const Clock::time_point t0 = Clock::now();
            sys->audits().enforce();
            r.audit_s = secondsSince(t0);
        } else {
            r.failures.push_back("audit " + failed.front().name + ": " +
                                 failed.front().detail);
        }
    }
    ++r.attempted;
    std::string why;
    const FastForwardEngine *ff = sys->fastForwardEngine();
    if (ff == nullptr || !ff->conserved(why))
        r.failures.push_back("fast-forward conservation: " + why);
    r.stats_fp = statsFingerprint(sys->stats());
    sys.reset();

    // The matrix is one long call on its own worker threads: sample
    // the host on both sides, on as many threads.
    const std::vector<PointSpec> points = spec.matrix.points();
    r.sampleMatrixHostSpeed(spec.matrix.jobs);
    {
        SpanLog::Scope s(spans, "core_api.matrix");
        const Clock::time_point t0 = Clock::now();
        r.batch = runPointsChecked(points, spec.matrix.jobs, RunPolicy{});
        r.matrix_s = secondsSince(t0);
    }
    r.sampleMatrixHostSpeed(spec.matrix.jobs);
    r.attempted += static_cast<unsigned>(points.size());
    if (r.batch.failed() != 0) {
        r.failures.push_back("matrix: " + r.batch.failureSummary());
    } else {
        std::string bytes;
        for (const MetricSummary &m : r.batch.summaries)
            bytes += summaryBytes(m);
        r.matrix_fp = fnv1a(bytes);
        r.paper_err_pp = paperError(spec.matrix, r.batch);
    }
    r.wall_s = secondsSince(unit_t0) - r.reference_s;
    return r;
}

} // namespace perfbench
