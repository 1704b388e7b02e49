#include "src/core_api/experiment.h"

#include <cstdlib>

#include "src/core_api/parallel_runner.h"
#include "src/sample/sampling_controller.h"

namespace cmpsim {

std::uint64_t
envUint64Or(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    // An explicit 0 is a legitimate value (CMPSIM_JOBS=0 means
    // "auto", CMPSIM_WARMUP=0 means "no warmup").
    return parseKnobUint(name, v);
}

namespace {

RunResult::PfMetrics
pfMetrics(double issued, double hits, double demand_misses,
          double kilo_instr)
{
    RunResult::PfMetrics m;
    m.rate_per_kilo_instr = kilo_instr > 0 ? issued / kilo_instr : 0;
    const double denom = hits + demand_misses;
    m.coverage_pct = denom > 0 ? 100.0 * hits / denom : 0;
    m.accuracy_pct = issued > 0 ? 100.0 * hits / issued : 0;
    return m;
}

} // namespace

unsigned
defaultScale()
{
    return static_cast<unsigned>(envUint64Or("CMPSIM_SCALE", 4));
}

RunLengths
defaultRunLengths()
{
    RunLengths l;
    l.warmup_per_core = envUint64Or("CMPSIM_WARMUP", 400000);
    l.measure_per_core = envUint64Or("CMPSIM_MEASURE", 50000);
    return l;
}

unsigned
defaultSeeds()
{
    return static_cast<unsigned>(envUint64Or("CMPSIM_SEEDS", 2));
}

namespace {

/** Sum a per-core counter family out of a stat-delta snapshot. */
double
snapshotL1Sum(const StatSnapshot &t, unsigned cores, const char *side,
              const char *leaf)
{
    double total = 0;
    for (unsigned c = 0; c < cores; ++c) {
        total += static_cast<double>(t.counter(
            std::string(side) + "." + std::to_string(c) + "." + leaf));
    }
    return total;
}

/** Sampled-run metric extraction: drive the plan, then rebuild the
 *  standard RunResult fields from the detail-interval stat deltas so
 *  fast-forward (whose counters keep growing in functional mode)
 *  never leaks into measured numbers. */
RunResult
runSampled(CmpSystem &sys)
{
    SamplingController ctl(sys);
    const SamplingResult res = ctl.run();
    const SystemConfig &config = sys.config();
    const StatSnapshot &t = res.totals;

    RunResult r;
    r.cycles = res.detail_cycles;
    r.instructions = res.detail_instructions;
    r.ipc = r.cycles > 0 ? r.instructions / r.cycles : 0;

    r.l2_demand_misses =
        static_cast<double>(t.counter("l2.demand_misses"));
    r.l2_demand_accesses =
        static_cast<double>(t.counter("l2.demand_accesses"));
    r.l2_miss_rate = r.l2_demand_accesses > 0
                         ? r.l2_demand_misses / r.l2_demand_accesses
                         : 0;
    const double kilo_instr = r.instructions / 1000.0;
    r.l2_misses_per_kilo_instr =
        kilo_instr > 0 ? r.l2_demand_misses / kilo_instr : 0;

    const double link_bytes =
        static_cast<double>(t.counter("mem.link.bytes"));
    r.bandwidth_gbps =
        r.cycles > 0 ? link_bytes / r.cycles * 5.0 : 0; // 5 GHz
    r.compression_ratio = res.compression_ratio.mean;
    r.penalized_hits =
        static_cast<double>(t.counter("l2.penalized_hits"));

    if (config.prefetching) {
        const unsigned cores = config.cores;
        r.l1i = pfMetrics(
            snapshotL1Sum(t, cores, "l1i", "pf_issued"),
            snapshotL1Sum(t, cores, "l1i", "pf_hits"),
            snapshotL1Sum(t, cores, "l1i", "misses"), kilo_instr);
        r.l1d = pfMetrics(
            snapshotL1Sum(t, cores, "l1d", "pf_issued"),
            snapshotL1Sum(t, cores, "l1d", "pf_hits"),
            snapshotL1Sum(t, cores, "l1d", "misses"), kilo_instr);
        r.l2pf = pfMetrics(
            static_cast<double>(t.counter("l2.l2pf_issued")),
            static_cast<double>(t.counter("l2.pf_hits_l2")),
            r.l2_demand_misses, kilo_instr);

        r.l2_adaptive_counter = sys.l2Adaptive().counterValue();
        r.useful_prefetches =
            static_cast<double>(t.counter("ad.l2.useful"));
        r.useless_prefetches =
            static_cast<double>(t.counter("ad.l2.useless"));
        r.harmful_flags =
            static_cast<double>(t.counter("ad.l2.harmful"));
    }
    r.victim_tags_per_set = sys.l2().meanVictimTags();

    r.sampled.armed = true;
    r.sampled.intervals = res.intervals;
    r.sampled.stopped_early = res.stopped_early;
    r.sampled.ff_instructions =
        static_cast<double>(res.ff_instructions);
    r.sampled.cycles = res.cycles;
    r.sampled.ipc = res.ipc;
    r.sampled.l2_miss_rate = res.l2_miss_rate;
    r.sampled.l2_mpki = res.l2_mpki;
    r.sampled.bandwidth_gbps = res.bandwidth_gbps;
    r.sampled.compression_ratio = res.compression_ratio;
    return r;
}

} // namespace

RunResult
runOnce(const SystemConfig &config, const std::string &benchmark,
        const RunLengths &lengths, unsigned skip_threads)
{
    CmpSystem sys(config, benchmarkParams(benchmark));
    sys.setSkipThreads(skip_threads);
    sys.warmup(lengths.warmup_per_core);
    if (config.sampling.armed())
        return runSampled(sys);
    sys.run(lengths.measure_per_core);

    RunResult r;
    r.cycles = static_cast<double>(sys.cycles());
    r.instructions = static_cast<double>(sys.instructions());
    r.ipc = sys.ipc();

    const auto &reg = sys.stats();
    r.l2_demand_misses =
        static_cast<double>(reg.counter("l2.demand_misses"));
    r.l2_demand_accesses =
        static_cast<double>(reg.counter("l2.demand_accesses"));
    r.l2_miss_rate = r.l2_demand_accesses > 0
                         ? r.l2_demand_misses / r.l2_demand_accesses
                         : 0;
    const double kilo_instr = r.instructions / 1000.0;
    r.l2_misses_per_kilo_instr =
        kilo_instr > 0 ? r.l2_demand_misses / kilo_instr : 0;

    r.bandwidth_gbps = sys.bandwidthGBps();
    r.compression_ratio = sys.compressionRatio();
    r.penalized_hits =
        static_cast<double>(reg.counter("l2.penalized_hits"));

    if (config.prefetching) {
        const double l1i_issued =
            static_cast<double>(sys.sumL1Counter("l1i", "pf_issued"));
        const double l1i_hits =
            static_cast<double>(sys.sumL1Counter("l1i", "pf_hits"));
        const double l1i_misses =
            static_cast<double>(sys.sumL1Counter("l1i", "misses"));
        r.l1i = pfMetrics(l1i_issued, l1i_hits, l1i_misses, kilo_instr);

        const double l1d_issued =
            static_cast<double>(sys.sumL1Counter("l1d", "pf_issued"));
        const double l1d_hits =
            static_cast<double>(sys.sumL1Counter("l1d", "pf_hits"));
        const double l1d_misses =
            static_cast<double>(sys.sumL1Counter("l1d", "misses"));
        r.l1d = pfMetrics(l1d_issued, l1d_hits, l1d_misses, kilo_instr);

        const double l2_issued =
            static_cast<double>(reg.counter("l2.l2pf_issued"));
        const double l2_hits =
            static_cast<double>(reg.counter("l2.pf_hits_l2"));
        r.l2pf = pfMetrics(l2_issued, l2_hits, r.l2_demand_misses,
                           kilo_instr);

        r.l2_adaptive_counter = sys.l2Adaptive().counterValue();
        r.useful_prefetches =
            static_cast<double>(reg.counter("ad.l2.useful"));
        r.useless_prefetches =
            static_cast<double>(reg.counter("ad.l2.useless"));
        r.harmful_flags =
            static_cast<double>(reg.counter("ad.l2.harmful"));
    }
    r.victim_tags_per_set = sys.l2().meanVictimTags();
    return r;
}

MetricSummary
runSeeds(SystemConfig config, const std::string &benchmark,
         const RunLengths &lengths, unsigned seeds)
{
    cmpsim_assert(seeds >= 1);
    // One point, fanned over seeds by the parallel runner; seed s
    // lands in runs[s] regardless of worker count, so the result is
    // bit-identical to the old serial loop.
    PointSpec spec;
    spec.config = config;
    spec.benchmark = benchmark;
    spec.lengths = lengths;
    spec.seeds = seeds;
    return std::move(runPoints({std::move(spec)}).front());
}

double
meanCycles(const MetricSummary &s)
{
    return s.cycles.mean;
}

double
meanOf(const MetricSummary &s, double (*extract)(const RunResult &))
{
    double total = 0;
    for (const auto &r : s.runs)
        total += extract(r);
    return s.runs.empty() ? 0 : total / static_cast<double>(s.runs.size());
}

} // namespace cmpsim
