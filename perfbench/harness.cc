/**
 * @file
 * perfbench — cmpsim's benchmark harness. It drives the simulator only
 * through its public API (CmpSystem, runPointsChecked and the layer
 * classes), times those calls from outside in host time, checks that
 * the outputs are correct, and prints one JSON result line last.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--out DIR]
 *
 * --trace 0 repeats the workload's unit until S seconds have passed
 * (at least three times) and reports the end-to-end metrics over the
 * repetitions (see endToEnd()). --trace 1 alternates untraced and traced
 * units for S/2 seconds, then re-runs the matrix points by hand, makes a
 * checkpoint round trip and replays every layer, and reports the
 * per-layer metrics; it writes spans.json and layers.txt to DIR.
 * --smoke shrinks every length so a run takes seconds.
 *
 * A run refuses to start when any CMPSIM_* variable is set: every
 * such knob changes what CmpSystem or the runner does.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/replay.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"

extern char **environ;

namespace perfbench {
namespace {

/** A seed kept out of tuning, for claims made after it. */
constexpr std::uint64_t kHeldOutSeed = 4242;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported with --trace 0; BENCHMARK.json's end_to_end list. */
const MetricDef kEndToEnd[] = {
    {"detail_kips", "kinstr/s"},  {"warm_kips", "kinstr/s"},
    {"ff_skip_kips", "kinstr/s"}, {"ff_warm_kips", "kinstr/s"},
    {"matrix_wall_s", "s"},       {"wall_s", "s"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
    {"paper_err_pp", "pp"},
};

/** Reported with --trace 1; BENCHMARK.json's per_layer list. */
const MetricDef kPerLayer[] = {
    {"core_api.construct_ms", "ms"},
    {"core_api.warmup_ns_per_instr", "ns/instr"},
    {"core_api.run_ns_per_instr", "ns/instr"},
    {"core_api.point_p50_s", "s"},
    {"core_api.point_max_s", "s"},
    {"core_api.warm_share", "ratio"},
    {"core_api.jobs_efficiency", "ratio"},
    {"workload.next_ns", "ns"},
    {"workload.lines_touched", "count"},
    {"workload.est_share", "ratio"},
    {"cache.l2_functional_ns", "ns"},
    {"cache.set_find_ns", "ns"},
    {"cache.set_insert_ns", "ns"},
    {"cache.l1d_mpki", "1/kinstr"},
    {"cache.l2_mpki", "1/kinstr"},
    {"cache.penalized_hits_per_ki", "1/kinstr"},
    {"cache.est_share", "ratio"},
    {"compression.fpc_compress_ns", "ns"},
    {"compression.fpc_decompress_ns", "ns"},
    {"compression.bdi_compress_ns", "ns"},
    {"compression.ratio", "ratio"},
    {"compression.est_share", "ratio"},
    {"prefetch.observe_miss_ns", "ns"},
    {"prefetch.issued_per_ki", "1/kinstr"},
    {"prefetch.accuracy", "ratio"},
    {"prefetch.est_share", "ratio"},
    {"mem.value_store_line_ns", "ns"},
    {"mem.link_send_ns", "ns"},
    {"mem.link_bytes_per_ki", "B/kinstr"},
    {"mem.link_queue_delay_cycles", "cycles"},
    {"mem.est_share", "ratio"},
    {"sim.eq_ns_per_event", "ns"},
    {"sim.est_share", "ratio"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.bytes", "B"},
    {"audit.enforce_ms", "ms"},
    {"trace.overhead", "ratio"},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool smoke = false;
    std::string out = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--out DIR]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const char *flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage((std::string("bad value for ") + flag + ": " + v).c_str());
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have[0] = true;
        } else if (a == "--seed") {
            o.seed = parseUint("--seed", v);
            have[1] = true;
        } else if (a == "--seconds") {
            o.seconds = static_cast<double>(parseUint("--seconds", v));
            have[2] = o.seconds > 0;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
            have[3] = true;
        } else if (a == "--out") {
            o.out = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds (> 0) and --trace are required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage(("unknown workload " + o.workload).c_str());
    return o;
}

/** Names of inherited CMPSIM_* variables. */
std::vector<std::string>
inheritedKnobs()
{
    std::vector<std::string> out;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "CMPSIM_", 7) == 0) {
            const char *eq = std::strchr(*e, '=');
            out.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                               : static_cast<std::size_t>(
                                                     eq - *e));
        }
    }
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Collects attempted/failed operations and the failure messages. */
struct Tally
{
    unsigned attempted = 0;
    std::vector<std::string> failures;

    void
    add(unsigned n, const std::vector<std::string> &f)
    {
        attempted += n;
        failures.insert(failures.end(), f.begin(), f.end());
    }

    void
    expectEqual(const char *what, std::uint64_t a, std::uint64_t b)
    {
        ++attempted;
        if (a != b) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "%s fingerprint %016llx != %016llx",
                          what, static_cast<unsigned long long>(a),
                          static_cast<unsigned long long>(b));
            failures.emplace_back(buf);
        }
    }
};

/** Run one unit, turning an exception into a failed operation. */
bool
tryUnit(const WorkloadSpec &spec, SpanLog &spans, bool capture,
        std::vector<UnitResult> &out, Tally &tally)
{
    try {
        out.push_back(runUnit(spec, spans, capture));
        tally.add(out.back().attempted, out.back().failures);
        return true;
    } catch (const std::exception &e) {
        tally.add(1, {std::string("unit threw: ") + e.what()});
        return false;
    }
}

/** Same-seed repetitions, traced or not, must reproduce the first
 *  untraced one exactly. */
void
checkRepeats(const std::vector<UnitResult> &plain,
             const std::vector<UnitResult> &traced, Tally &tally)
{
    for (const auto *units : {&plain, &traced}) {
        for (const UnitResult &u : *units) {
            if (&u == &plain.front())
                continue;
            tally.expectEqual("stats", u.stats_fp, plain.front().stats_fp);
            tally.expectEqual("matrix", u.matrix_fp, plain.front().matrix_fp);
        }
    }
}


template <typename F>
double
medianOf(const std::vector<UnitResult> &units, F f)
{
    std::vector<double> v;
    for (const UnitResult &u : units)
        v.push_back(f(u));
    return median(v);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/**
 * The end-to-end metrics. Every host timing is the median of a sample
 * set — one throughput per timed call, one wall time per unit, one
 * time per construction — scaled to nominal host speed by the run's
 * median host-speed sample (reference.h), taken on as many threads as
 * the timed work uses. The unscaled medians and the host speed are
 * printed beside them.
 */
void
endToEnd(const std::vector<UnitResult> &units,
         std::map<std::string, double> &m)
{
    const auto calls = [&units](PhaseTimes UnitResult::*phase) {
        std::vector<double> v;
        for (const UnitResult &u : units)
            v.insert(v.end(), (u.*phase).kips.begin(), (u.*phase).kips.end());
        return v;
    };
    std::vector<double> matrix_s;
    std::vector<double> wall_s;
    std::vector<double> construct_s;
    std::vector<double> speed;
    std::vector<double> matrix_speed;
    for (const UnitResult &u : units) {
        matrix_s.push_back(u.matrix_s);
        wall_s.push_back(u.wall_s);
        construct_s.insert(construct_s.end(), u.construct_s.begin(),
                           u.construct_s.end());
        speed.insert(speed.end(), u.host_speed.begin(), u.host_speed.end());
        matrix_speed.insert(matrix_speed.end(), u.matrix_host_speed.begin(),
                            u.matrix_host_speed.end());
    }
    const double host = median(speed);
    const double matrix_host = median(matrix_speed);
    std::printf("# host speed vs nominal: median=%.4f p10=%.4f p90=%.4f "
                "n=%zu; on the matrix's threads: median=%.4f n=%zu\n",
                host, quantile(speed, 0.1), quantile(speed, 0.9),
                speed.size(), matrix_host, matrix_speed.size());
    const struct
    {
        const char *name;
        std::vector<double> samples;
        bool is_rate;
        double speed;
    } timings[] = {
        {"detail_kips", calls(&UnitResult::run), true, host},
        {"warm_kips", calls(&UnitResult::warm), true, host},
        {"ff_skip_kips", calls(&UnitResult::ff_skip), true, host},
        {"ff_warm_kips", calls(&UnitResult::ff_warm), true, host},
        {"matrix_wall_s", matrix_s, false, matrix_host},
        {"wall_s", wall_s, false, host},
        {"setup_s", construct_s, false, host},
    };
    for (const auto &t : timings) {
        const double measured = median(t.samples);
        m[t.name] = t.is_rate ? measured / t.speed : measured * t.speed;
        std::printf("# %s n=%zu as_measured=%.6g\n", t.name,
                    t.samples.size(), measured);
    }
    m["peak_rss_mb"] = peakRssMb();
    m["paper_err_pp"] = units.front().paper_err_pp;
}

/** Per-layer metrics from untraced units @p plain, traced @p traced. */
void
perLayer(const WorkloadSpec &spec, const std::vector<UnitResult> &plain,
         const std::vector<UnitResult> &traced, const LayerTimes &lt,
         const PointTimes &pt, const CheckpointTimes &ck,
         std::map<std::string, double> &m)
{
    const cmpsim::SystemConfig &cfg = spec.pipe.config;
    const UnitResult &t0 = traced.front();
    const RunCounts &rc = t0.counts;
    const WindowCounts &w = t0.window;
    const double ki = static_cast<double>(t0.run.instructions) / 1000.0;
    // Host ns of the post-warm-up window, untraced.
    const double window_ns = 1e9 * medianOf(plain, [](const UnitResult &u) {
                                 return u.ff_skip.seconds +
                                        u.ff_warm.seconds + u.run.seconds;
                             });
    const auto share = [window_ns](double ns_per_op, double ops) {
        return ratio(ns_per_op * ops, window_ns);
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    std::vector<double> constructs;
    for (const UnitResult &u : plain)
        constructs.insert(constructs.end(), u.construct_s.begin(),
                          u.construct_s.end());
    m["core_api.construct_ms"] = median(constructs) * 1e3;
    m["core_api.warmup_ns_per_instr"] =
        medianOf(plain, [](const UnitResult &u) {
            return ratio(u.warm.seconds * 1e9,
                         static_cast<double>(u.warm.instructions));
        });
    m["core_api.run_ns_per_instr"] = medianOf(plain, [](const UnitResult &u) {
        return ratio(u.run.seconds * 1e9,
                     static_cast<double>(u.run.instructions));
    });
    double point_sum = 0;
    for (const double s : pt.task_s)
        point_sum += s;
    m["core_api.point_p50_s"] = median(pt.task_s);
    m["core_api.point_max_s"] =
        pt.task_s.empty() ? 0
                          : *std::max_element(pt.task_s.begin(), pt.task_s.end());
    m["core_api.warm_share"] = ratio(pt.warm_s, point_sum);
    m["core_api.jobs_efficiency"] = ratio(
        point_sum, spec.matrix.jobs * medianOf(plain, [](const UnitResult &u) {
                       return u.matrix_s;
                   }));

    m["workload.next_ns"] = lt.next_ns;
    m["workload.lines_touched"] = d(lt.lines_touched);
    m["workload.est_share"] = share(lt.next_ns, d(w.instructions));

    m["cache.l2_functional_ns"] = lt.l2_functional_ns;
    m["cache.set_find_ns"] = lt.set_find_ns;
    m["cache.set_insert_ns"] = lt.set_insert_ns;
    m["cache.l1d_mpki"] = ratio(d(rc.l1d_misses), ki);
    m["cache.l2_mpki"] = ratio(d(rc.l2_demand_misses), ki);
    m["cache.penalized_hits_per_ki"] = ratio(d(rc.penalized_hits), ki);
    m["cache.est_share"] = share(lt.l2_functional_ns, d(w.l2_functional)) +
                           share(lt.set_find_ns, d(w.l2_lookups));

    m["compression.fpc_compress_ns"] = lt.fpc_compress_ns;
    m["compression.fpc_decompress_ns"] = lt.fpc_decompress_ns;
    m["compression.bdi_compress_ns"] = lt.bdi_compress_ns;
    m["compression.ratio"] = lt.ratio;
    const double compressions =
        (cfg.cache_compression ? d(w.fills_and_writebacks) : 0) +
        (cfg.link_compression ? d(w.link_transfers) : 0);
    m["compression.est_share"] = share(lt.fpc_compress_ns, compressions);

    m["prefetch.observe_miss_ns"] = lt.observe_miss_ns;
    m["prefetch.issued_per_ki"] = ratio(d(rc.pf_issued), ki);
    m["prefetch.accuracy"] = ratio(d(w.pf_useful), d(w.pf_issued));
    m["prefetch.est_share"] =
        cfg.prefetching ? share(lt.observe_miss_ns, d(w.l1_misses + w.l2_misses))
                        : 0;

    m["mem.value_store_line_ns"] = lt.value_store_line_ns;
    m["mem.link_send_ns"] = lt.link_send_ns;
    m["mem.link_bytes_per_ki"] = ratio(d(rc.link_bytes), ki);
    m["mem.link_queue_delay_cycles"] = rc.link_queue_delay;
    m["mem.est_share"] =
        share(lt.link_send_ns, d(w.link_transfers)) +
        share(lt.value_store_line_ns, d(w.stores + w.fills_and_writebacks));

    m["sim.eq_ns_per_event"] = lt.eq_ns_per_event;
    m["sim.est_share"] = share(lt.eq_ns_per_event, d(w.events));

    m["ckpt.save_ms"] = ck.save_ms;
    m["ckpt.restore_ms"] = ck.restore_ms;
    m["ckpt.bytes"] = d(ck.bytes);
    m["audit.enforce_ms"] =
        medianOf(plain, [](const UnitResult &u) { return u.audit_s * 1e3; });
    m["trace.overhead"] = ratio(
        medianOf(traced, [](const UnitResult &u) { return u.wall_s; }),
        medianOf(plain, [](const UnitResult &u) { return u.wall_s; }));
}

/** The per-layer table and span totals, as text. */
std::string
layerTable(const std::map<std::string, double> &m, const SpanLog &spans)
{
    std::string out = "per-layer metrics\n";
    char buf[160];
    for (const MetricDef &def : kPerLayer) {
        std::snprintf(buf, sizeof(buf), "  %-32s %14.4f %s\n", def.name,
                      m.at(def.name), def.unit);
        out += buf;
    }
    out += "spans (count, total s, self s)\n";
    for (const auto &[name, t] : spans.totals()) {
        std::snprintf(buf, sizeof(buf), "  %-32s %6u %10.4f %10.4f\n",
                      name.c_str(), t.count, t.total_s, t.self_s);
        out += buf;
    }
    return out;
}

void
printResult(const Tally &tally, const MetricDef *defs, std::size_t n,
            const std::map<std::string, double> &m)
{
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %zu, "
                "\"metrics\": {",
                tally.failures.empty() ? "true" : "false",
                std::max(tally.attempted, 1u), tally.failures.size());
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = m.find(defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", defs[i].name,
                    it == m.end() ? 0.0 : it->second, defs[i].unit);
    }
    std::printf("}}\n");
}

int
run(const Options &opt)
{
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const WorkloadSpec spec =
        workloadSpec(opt.workload, opt.seed, opt.smoke, nproc);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "smoke=%d nproc=%u jobs=%u build=%s held_out_seed=%llu\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.smoke ? 1 : 0, nproc,
                spec.matrix.jobs, PERFBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(kHeldOutSeed));

    Tally tally;
    SpanLog off(false);
    SpanLog spans(opt.trace);
    std::vector<UnitResult> plain;
    std::vector<UnitResult> traced;
    const unsigned min_units = opt.smoke || opt.trace ? 1 : 3;
    // Traced runs spend half their time on unit pairs; the replays
    // that follow take about as long again.
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Clock::time_point t0 = Clock::now();
    bool ok = true;
    while (ok && (plain.size() < min_units || secondsSince(t0) < budget)) {
        // Traced runs alternate which side of each pair goes first.
        const bool traced_first = opt.trace && plain.size() % 2 == 1;
        if (traced_first)
            ok = tryUnit(spec, spans, true, traced, tally);
        ok = ok && tryUnit(spec, off, false, plain, tally);
        if (opt.trace && !traced_first)
            ok = ok && tryUnit(spec, spans, true, traced, tally);
    }
    if (ok)
        checkRepeats(plain, traced, tally);
    if (!plain.empty()) {
        std::printf("# fingerprint stats=%016llx matrix=%016llx "
                    "paper_err_pp=%.6f units=%zu\n",
                    static_cast<unsigned long long>(plain[0].stats_fp),
                    static_cast<unsigned long long>(plain[0].matrix_fp),
                    plain[0].paper_err_pp, plain.size());
    }

    std::map<std::string, double> m;
    if (ok && !opt.trace)
        endToEnd(plain, m);
    if (ok && opt.trace) {
        try {
            const PointTimes pt =
                replayPoints(spec.matrix, plain.front().batch, spans);
            tally.add(pt.attempted, pt.failures);
            const CheckpointTimes ck =
                checkpointRoundTrip(spec.pipe, plain.front().stats_fp, spans);
            tally.add(ck.attempted, ck.failures);
            const LayerTimes lt = replayLayers(
                spec.pipe, traced.front().l2_misses, opt.smoke, spans);
            tally.add(lt.attempted, lt.failures);
            perLayer(spec, plain, traced, lt, pt, ck, m);
            const std::string table = layerTable(m, spans);
            std::fputs(table.c_str(), stdout);
            std::ofstream(opt.out + "/layers.txt") << table;
            if (!spans.write(opt.out + "/spans.json"))
                tally.add(1, {"cannot write " + opt.out + "/spans.json"});
        } catch (const std::exception &e) {
            tally.add(1, {std::string("replay threw: ") + e.what()});
        }
    }
    for (const std::string &f : tally.failures)
        std::printf("# FAILED %s\n", f.c_str());
    if (opt.trace)
        printResult(tally, kPerLayer, std::size(kPerLayer), m);
    else
        printResult(tally, kEndToEnd, std::size(kEndToEnd), m);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options opt = perfbench::parseArgs(argc, argv);
    const std::vector<std::string> knobs = perfbench::inheritedKnobs();
    if (!knobs.empty()) {
        std::string list;
        for (const std::string &k : knobs)
            list += " " + k;
        std::fprintf(stderr,
                     "perfbench: refusing to run with CMPSIM_* knobs set:%s\n",
                     list.c_str());
        return 2;
    }
    return perfbench::run(opt);
}
