#include "perfbench/replay.h"

#include <algorithm>
#include <memory>

#include "src/cache/decoupled_set.h"
#include "src/ckpt/cont_tag.h"
#include "src/compression/bdi.h"
#include "src/compression/fpc.h"
#include "src/core_api/cmp_system.h"
#include "src/mem/priority_link.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sample/sampling_controller.h"
#include "src/sim/event_queue.h"
#include "src/workload/synthetic_workload.h"

namespace perfbench {

using namespace cmpsim;

namespace {

/** Keeps replayed results observable so no loop is optimised away. */
volatile std::uint64_t g_sink = 0;

/** One data access of the generated stream. */
struct Access
{
    Addr line;
    bool store;
};

/** Sizes of one replay; smoke runs shrink them. */
struct ReplaySizes
{
    unsigned passes;
    std::uint64_t next_per_core; ///< instructions generated per core
    std::size_t codec_lines;     ///< distinct lines through the codecs
    std::size_t min_ops;         ///< miss-stream replays repeat to this
};

ReplaySizes
replaySizes(bool smoke)
{
    return smoke ? ReplaySizes{1, 5000, 512, 2000}
                 : ReplaySizes{3, 250000, 16384, 200000};
}

/** @p stream repeated until it holds at least @p n entries. */
std::vector<Addr>
repeatTo(const std::vector<Addr> &stream, std::size_t n)
{
    std::vector<Addr> out;
    if (stream.empty())
        return out;
    out.reserve(std::max(n, stream.size()) + stream.size());
    while (out.size() < n)
        out.insert(out.end(), stream.begin(), stream.end());
    return out;
}

/** ns per op of @p body(), median over @p passes runs. */
template <typename Body>
double
timePerOp(unsigned passes, std::size_t ops, Body body)
{
    std::vector<double> ns;
    for (unsigned p = 0; p < passes; ++p) {
        const Clock::time_point t0 = Clock::now();
        body();
        ns.push_back(secondsSince(t0) * 1e9 /
                     static_cast<double>(std::max<std::size_t>(ops, 1)));
    }
    return median(ns);
}

/** Bytes of one data message: 8-byte header plus the payload. */
unsigned
messageBytes(const SystemConfig &cfg, const FpcCompressor &fpc,
             const ValueStore &values, Addr line)
{
    const unsigned segments =
        cfg.link_compression ? fpc.compressedSegments(values.line(line))
                             : kSegmentsPerLine;
    return 8 + segments * kSegmentBytes;
}

} // namespace

LayerTimes
replayLayers(const PipelinePlan &plan, const std::vector<Addr> &l2_misses,
             bool smoke, SpanLog &spans)
{
    const ReplaySizes sz = replaySizes(smoke);
    const SystemConfig &cfg = plan.config;
    const WorkloadParams params = benchmarkParams(plan.benchmark);
    const WorkloadParams scaled = params.scaled(cfg.scale);
    const unsigned cores = cfg.cores;
    LayerTimes t;
    FpcCompressor fpc;
    BdiCompressor bdi;

    // workload: SyntheticWorkload::next(), interleaved over the cores
    // in warm-up sized chunks; the last pass's value store is the
    // warmed store the codec and value-store replays read.
    std::unique_ptr<ValueStore> values;
    std::vector<Access> data;
    {
        SpanLog::Scope s(spans, "replay.workload.next");
        const std::uint64_t chunk = 2000;
        std::vector<double> ns;
        for (unsigned pass = 0; pass < sz.passes; ++pass) {
            values = std::make_unique<ValueStore>(fpc);
            std::vector<std::unique_ptr<SyntheticWorkload>> streams;
            for (unsigned c = 0; c < cores; ++c) {
                streams.push_back(std::make_unique<SyntheticWorkload>(
                    scaled, *values, c, cfg.seed));
            }
            data.clear();
            data.reserve(sz.next_per_core * cores / 2);
            const Clock::time_point t0 = Clock::now();
            for (std::uint64_t done = 0; done < sz.next_per_core;
                 done += chunk) {
                for (auto &st : streams) {
                    for (std::uint64_t i = 0; i < chunk; ++i) {
                        const Instruction ins = st->next();
                        if (ins.type == InstrType::Load ||
                            ins.type == InstrType::Store) {
                            data.push_back({lineAddr(ins.addr),
                                            ins.type == InstrType::Store});
                        }
                    }
                }
            }
            ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(sz.next_per_core * cores));
        }
        t.next_ns = median(ns);
        t.lines_touched = values->lineCount();
    }

    // mem: ValueStore::line() over the data stream.
    {
        SpanLog::Scope s(spans, "replay.mem.value_store");
        t.value_store_line_ns = timePerOp(sz.passes, data.size(), [&] {
            std::uint64_t acc = 0;
            for (const Access &a : data)
                acc += values->line(a.line)[0];
            g_sink = g_sink + acc;
        });
    }

    // compression: FPC and BDI over distinct lines of the warmed store,
    // each round trip checked.
    {
        SpanLog::Scope s(spans, "replay.compression");
        std::vector<Addr> addrs;
        for (const Access &a : data)
            addrs.push_back(a.line);
        std::sort(addrs.begin(), addrs.end());
        addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
        if (addrs.size() > sz.codec_lines)
            addrs.resize(sz.codec_lines);
        std::vector<LineData> lines;
        for (const Addr a : addrs)
            lines.push_back(values->line(a));

        std::vector<BitStream> encoded(lines.size());
        std::vector<CompressedSize> sizes(lines.size());
        double raw_segments = 0;
        double fpc_segments = 0;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            sizes[i] = fpc.compress(lines[i], &encoded[i]);
            raw_segments += kSegmentsPerLine;
            fpc_segments += sizes[i].segments;
            ++t.attempted;
            if (fpc.decompress(encoded[i], sizes[i]) != lines[i])
                t.failures.push_back("fpc round trip");
            BitStream bdi_bits;
            const CompressedSize bdi_size = bdi.compress(lines[i], &bdi_bits);
            ++t.attempted;
            if (bdi.decompress(bdi_bits, bdi_size) != lines[i])
                t.failures.push_back("bdi round trip");
        }
        t.ratio = fpc_segments > 0 ? raw_segments / fpc_segments : 0;
        // Each pass walks the lines often enough to time min_ops calls.
        const std::size_t laps =
            std::max<std::size_t>(1, sz.min_ops / std::max<std::size_t>(
                                                      lines.size(), 1));
        const std::size_t ops = laps * lines.size();
        t.fpc_compress_ns = timePerOp(sz.passes, ops, [&] {
            std::uint64_t acc = 0;
            for (std::size_t lap = 0; lap < laps; ++lap) {
                for (const LineData &l : lines)
                    acc += fpc.compressedSegments(l);
            }
            g_sink = g_sink + acc;
        });
        t.fpc_decompress_ns = timePerOp(sz.passes, ops, [&] {
            std::uint64_t acc = 0;
            for (std::size_t lap = 0; lap < laps; ++lap) {
                for (std::size_t i = 0; i < lines.size(); ++i)
                    acc += fpc.decompress(encoded[i], sizes[i])[0];
            }
            g_sink = g_sink + acc;
        });
        t.bdi_compress_ns = timePerOp(sz.passes, ops, [&] {
            std::uint64_t acc = 0;
            for (std::size_t lap = 0; lap < laps; ++lap) {
                for (const LineData &l : lines)
                    acc += bdi.compressedSegments(l);
            }
            g_sink = g_sink + acc;
        });
    }

    // cache: L2Cache::accessFunctional() on a briefly warmed system.
    {
        SpanLog::Scope s(spans, "replay.cache.l2_functional");
        const std::size_t n = std::min<std::size_t>(data.size(), 400000);
        std::vector<double> ns;
        for (unsigned pass = 0; pass < sz.passes; ++pass) {
            CmpSystem sys(cfg, params);
            sys.warmup(std::min<std::uint64_t>(plan.warmup, 50000));
            L2Cache &l2 = sys.l2();
            l2.setFunctionalMode(true);
            std::uint64_t hits = 0;
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < n; ++i) {
                hits += l2.accessFunctional(
                    static_cast<unsigned>(i % cores), data[i].line,
                    data[i].store, ReqType::Demand);
            }
            ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(std::max<std::size_t>(n, 1)));
            l2.setFunctionalMode(false);
            g_sink = g_sink + hits;
        }
        t.l2_functional_ns = median(ns);
    }

    // The miss stream: captured L2 misses, or the data stream when the
    // pipeline missed too rarely to give one.
    std::vector<Addr> misses = l2_misses;
    if (misses.size() < 1000) {
        for (const Access &a : data)
            misses.push_back(a.line);
    }
    misses = repeatTo(misses, sz.min_ops);

    // cache: DecoupledSet find/insert with the L2's geometry.
    {
        SpanLog::Scope s(spans, "replay.cache.decoupled_set");
        const L2Params lp = cfg.l2Params();
        std::vector<std::uint8_t> segs;
        for (const Addr line : misses) {
            segs.push_back(static_cast<std::uint8_t>(
                lp.compressed ? fpc.compressedSegments(values->line(line))
                              : kSegmentsPerLine));
        }
        std::vector<double> insert_ns;
        std::vector<double> find_ns;
        for (unsigned pass = 0; pass < sz.passes; ++pass) {
            std::vector<DecoupledSet> sets(
                lp.sets, DecoupledSet(lp.tags_per_set, lp.segment_budget));
            std::uint64_t inserted = 0;
            std::uint64_t evicted = 0;
            Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < misses.size(); ++i) {
                DecoupledSet &set = sets[lineNumber(misses[i]) % lp.sets];
                if (set.find(misses[i]) == nullptr) {
                    TagEntry e;
                    e.line = misses[i];
                    e.valid = true;
                    e.segments = segs[i];
                    evicted += set.insert(e).size();
                    ++inserted;
                }
            }
            insert_ns.push_back(secondsSince(t0) * 1e9 /
                                static_cast<double>(std::max<std::uint64_t>(
                                    inserted, 1)));
            g_sink = g_sink + evicted;
            std::uint64_t found = 0;
            t0 = Clock::now();
            for (const Access &a : data) {
                found += sets[lineNumber(a.line) % lp.sets].find(a.line) !=
                         nullptr;
            }
            find_ns.push_back(secondsSince(t0) * 1e9 /
                              static_cast<double>(
                                  std::max<std::size_t>(data.size(), 1)));
            g_sink = g_sink + found;
        }
        t.set_insert_ns = median(insert_ns);
        t.set_find_ns = median(find_ns);
    }

    // prefetch: StridePrefetcher::observeMiss() over the miss stream.
    {
        SpanLog::Scope s(spans, "replay.prefetch.observe_miss");
        const PrefetcherParams pp = cfg.l2PrefetcherParams();
        t.observe_miss_ns = timePerOp(sz.passes, misses.size(), [&] {
            StridePrefetcher pf(pp);
            std::uint64_t generated = 0;
            for (const Addr line : misses)
                generated += pf.observeMiss(line, pp.startup_prefetches).size();
            g_sink = g_sink + generated;
        });
    }

    // mem: PriorityLink::send() of one data message per miss, one
    // message time apart, then drain; every message must be delivered.
    {
        SpanLog::Scope s(spans, "replay.mem.link");
        std::vector<unsigned> bytes;
        for (const Addr line : misses)
            bytes.push_back(messageBytes(cfg, fpc, *values, line));
        const double rate = SystemConfig::bytesPerCycle(cfg.pin_bandwidth_gbps);
        const auto gap = static_cast<Cycle>(
            static_cast<double>(8 + kLineBytes) / rate);
        std::vector<double> ns;
        for (unsigned pass = 0; pass < sz.passes; ++pass) {
            EventQueue eq;
            PriorityLink link(eq, rate, false);
            std::uint64_t delivered = 0;
            const Clock::time_point t0 = Clock::now();
            for (const unsigned b : bytes) {
                link.send(b, LinkClass::Demand, eq.now(),
                          [&delivered](Cycle) { ++delivered; });
                eq.advanceTo(eq.now() + gap);
            }
            eq.drain();
            ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(
                             std::max<std::size_t>(bytes.size(), 1)));
            ++t.attempted;
            if (delivered != bytes.size())
                t.failures.push_back("link delivered " +
                                     std::to_string(delivered) + " of " +
                                     std::to_string(bytes.size()));
        }
        t.link_send_ns = median(ns);
    }

    // sim: EventQueue schedule + dispatch with about as many events
    // pending as an 8-core system keeps in flight.
    {
        SpanLog::Scope s(spans, "replay.sim.event_queue");
        const std::size_t pending = 1024;
        std::vector<double> ns;
        for (unsigned pass = 0; pass < sz.passes; ++pass) {
            EventQueue eq;
            std::uint64_t fired = 0;
            const Clock::time_point t0 = Clock::now();
            for (const Addr line : misses) {
                eq.schedule(eq.now() + 1 + lineNumber(line) % 512,
                            [&fired] { ++fired; });
                if (eq.size() > pending)
                    eq.runOneEarliest();
            }
            eq.drain();
            ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(
                             std::max<std::size_t>(misses.size(), 1)));
            ++t.attempted;
            if (fired != misses.size())
                t.failures.push_back("event queue fired " +
                                     std::to_string(fired) + " of " +
                                     std::to_string(misses.size()));
        }
        t.eq_ns_per_event = median(ns);
    }
    return t;
}

PointTimes
replayPoints(const MatrixPlan &matrix, const BatchResult &batch,
             SpanLog &spans)
{
    PointTimes out;
    const std::vector<PointSpec> points = matrix.points();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointSpec &pt = points[i];
        for (unsigned s = 0; s < pt.seeds; ++s) {
            SpanLog::Scope span(spans, "core_api.point");
            SystemConfig cfg = pt.config;
            cfg.seed = s + 1;
            const Clock::time_point t0 = Clock::now();
            CmpSystem sys(cfg, benchmarkParams(pt.benchmark));
            const Clock::time_point tw = Clock::now();
            sys.warmup(pt.lengths.warmup_per_core);
            out.warm_s += secondsSince(tw);
            double cycles = 0;
            if (cfg.sampling.armed()) {
                SamplingController ctl(sys);
                cycles = ctl.run().detail_cycles;
            } else {
                sys.run(pt.lengths.measure_per_core);
                cycles = static_cast<double>(sys.cycles());
            }
            out.task_s.push_back(secondsSince(t0));
            ++out.attempted;
            if (i >= batch.summaries.size() ||
                s >= batch.summaries[i].runs.size() ||
                batch.summaries[i].runs[s].cycles != cycles) {
                out.failures.push_back("point " + std::to_string(i) +
                                       " seed " + std::to_string(s + 1) +
                                       ": hand-run cycles differ from "
                                       "runPointsChecked");
            }
        }
    }
    return out;
}

namespace {

/** Arms checkpoint tagging for its lifetime. */
class TaggingGuard
{
  public:
    TaggingGuard() { ckpt::setArmed(true); }
    ~TaggingGuard() { ckpt::setArmed(false); }
    TaggingGuard(const TaggingGuard &) = delete;
    TaggingGuard &operator=(const TaggingGuard &) = delete;
};

} // namespace

CheckpointTimes
checkpointRoundTrip(const PipelinePlan &plan, std::uint64_t uninterrupted_fp,
                    SpanLog &spans)
{
    SpanLog::Scope span(spans, "ckpt.round_trip");
    CheckpointTimes out;
    const TaggingGuard tagging;
    const WorkloadParams params = benchmarkParams(plan.benchmark);

    // The same timed calls as an untraced unit, so the stats match.
    UnitResult scratch;
    std::string bytes;
    std::uint64_t saved_fp = 0;
    {
        CmpSystem sys(plan.config, params);
        warmPipeline(sys, plan, spans, scratch);
        {
            SpanLog::Scope s(spans, "ckpt.save");
            const Clock::time_point t0 = Clock::now();
            bytes = sys.checkpointBytes();
            out.save_ms = secondsSince(t0) * 1e3;
        }
        finishPipeline(sys, plan, spans, scratch);
        saved_fp = statsFingerprint(sys.stats());
    }
    out.bytes = bytes.size();
    ++out.attempted;
    if (saved_fp != uninterrupted_fp)
        out.failures.push_back("checkpointed run's fingerprint differs");

    CmpSystem restored(plan.config, params);
    {
        SpanLog::Scope s(spans, "ckpt.restore");
        const Clock::time_point t0 = Clock::now();
        restored.restoreCheckpoint(bytes);
        out.restore_ms = secondsSince(t0) * 1e3;
    }
    finishPipeline(restored, plan, spans, scratch);
    ++out.attempted;
    if (statsFingerprint(restored.stats()) != uninterrupted_fp)
        out.failures.push_back("restored run's fingerprint differs");
    return out;
}

} // namespace perfbench
