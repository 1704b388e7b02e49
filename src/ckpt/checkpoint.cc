#include "src/ckpt/checkpoint.h"

#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "src/cache/decoupled_set.h"
#include "src/cache/l1_cache.h"
#include "src/cache/l2_cache.h"
#include "src/common/fingerprint.h"
#include "src/common/sim_error.h"
#include "src/core/core_model.h"
#include "src/core_api/cmp_system.h"
#include "src/dram/dram_backend.h"
#include "src/mem/main_memory.h"
#include "src/mem/priority_link.h"
#include "src/mem/value_store.h"
#include "src/prefetch/adaptive_controller.h"
#include "src/prefetch/stride_prefetcher.h"
#include "src/sim/event_queue.h"

namespace cmpsim {

namespace {

void
fpInt(std::string &s, const char *key, std::uint64_t v)
{
    s += key;
    s += '=';
    s += std::to_string(v);
    s += ';';
}

void
fpDbl(std::string &s, const char *key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    s += key;
    s += '=';
    s += buf;
    s += ';';
}

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::uint64_t
checkpointFingerprint(const SystemConfig &c, const WorkloadParams &w)
{
    std::string s;
    // Behavioural SystemConfig knobs only: watchdog_cycles never
    // changes simulated results (the watchdog only bounds livelock),
    // so a checkpoint moves freely across it. The audit and sample
    // intervals are *included*: they do not perturb results today,
    // but they gate periodic work inside the run loop and a resumed
    // run must replay the same cursor arithmetic.
    fpInt(s, "cores", c.cores);
    fpInt(s, "scale", c.scale);
    fpInt(s, "cache_compression", c.cache_compression);
    fpInt(s, "link_compression", c.link_compression);
    fpInt(s, "prefetching", c.prefetching);
    fpInt(s, "adaptive_prefetch", c.adaptive_prefetch);
    fpDbl(s, "pin_bandwidth_gbps", c.pin_bandwidth_gbps);
    fpInt(s, "infinite_bandwidth", c.infinite_bandwidth);
    fpInt(s, "seed", c.seed);
    fpInt(s, "shared_l2_prefetcher", c.shared_l2_prefetcher);
    fpInt(s, "l1_prefetch_triggers_l2", c.l1_prefetch_triggers_l2);
    fpInt(s, "extra_victim_tags", c.extra_victim_tags);
    fpInt(s, "l1_startup_prefetches", c.l1_startup_prefetches);
    fpInt(s, "l2_startup_prefetches", c.l2_startup_prefetches);
    fpInt(s, "decompression_latency", c.decompression_latency);
    fpInt(s, "adaptive_compression", c.adaptive_compression);
    fpInt(s, "wide_compressed_sets", c.wide_compressed_sets);
    fpInt(s, "audit_interval", c.audit_interval);
    fpInt(s, "audit_fill_roundtrip", c.audit_fill_roundtrip);
    fpInt(s, "sample_interval", c.sample_interval);
    const DramTimingParams &d = c.dram;
    fpInt(s, "dram.backend", static_cast<unsigned>(d.backend));
    fpInt(s, "dram.channels", d.channels);
    fpInt(s, "dram.ranks", d.ranks);
    fpInt(s, "dram.banks", d.banks);
    fpInt(s, "dram.row_bytes", d.row_bytes);
    fpInt(s, "dram.trcd", d.trcd);
    fpInt(s, "dram.tcas", d.tcas);
    fpInt(s, "dram.trp", d.trp);
    fpInt(s, "dram.tras", d.tras);
    fpInt(s, "dram.burst_bytes", d.burst_bytes);
    fpInt(s, "dram.burst_cycles", d.burst_cycles);
    fpInt(s, "dram.ctrl_latency", d.ctrl_latency);
    fpInt(s, "dram.closed_page", d.closed_page);
    fpInt(s, "dram.sched", static_cast<unsigned>(d.sched));
    fpInt(s, "dram.refresh_interval", d.refresh_interval);
    fpInt(s, "dram.refresh_cycles", d.refresh_cycles);
    fpInt(s, "dram.wq_high", d.write_high_watermark);
    fpInt(s, "dram.wq_low", d.write_low_watermark);
    // Sampling-plan knobs appended only when armed so every unsampled
    // fingerprint stays byte-identical to pre-sampling checkpoints.
    // The plan is behavioural for a sampled run: a checkpoint taken
    // mid-plan must resume under the *same* interval schedule.
    if (c.sampling.armed()) {
        fpInt(s, "sampling.ff", c.sampling.ff_per_core);
        fpInt(s, "sampling.detail", c.sampling.detail_per_core);
        fpInt(s, "sampling.n", c.sampling.max_intervals);
        fpInt(s, "sampling.warm", c.sampling.warm_per_core);
        fpDbl(s, "sampling.ci", c.sampling.ci_target_pct);
    }

    s += "workload=";
    s += w.name;
    s += ';';
    fpDbl(s, "load_frac", w.load_frac);
    fpDbl(s, "store_frac", w.store_frac);
    fpDbl(s, "branch_frac", w.branch_frac);
    fpDbl(s, "mispredict_rate", w.mispredict_rate);
    fpDbl(s, "branch_far_frac", w.branch_far_frac);
    fpInt(s, "i_footprint", w.i_footprint);
    fpInt(s, "ws_private", w.ws_private);
    fpInt(s, "ws_shared", w.ws_shared);
    fpDbl(s, "shared_frac", w.shared_frac);
    fpDbl(s, "stride_frac", w.stride_frac);
    fpDbl(s, "stream_chain", w.stream_chain);
    fpInt(s, "ws_stream", w.ws_stream);
    fpInt(s, "stream_count", w.stream_count);
    fpInt(s, "stream_len_min", w.stream_len_min);
    fpInt(s, "stream_len_max", w.stream_len_max);
    for (int b : w.stride_bytes)
        fpInt(s, "stride_byte",
              static_cast<std::uint64_t>(static_cast<std::int64_t>(b)));
    fpDbl(s, "stream_reuse", w.stream_reuse);
    fpDbl(s, "zipf_s", w.zipf_s);
    fpDbl(s, "hot_frac", w.hot_frac);
    fpInt(s, "ws_hot", w.ws_hot);
    fpDbl(s, "code_zipf", w.code_zipf);
    for (const auto &loop : w.loops) {
        fpInt(s, "loop.bytes", loop.bytes);
        fpDbl(s, "loop.weight", loop.weight);
    }
    fpDbl(s, "loop_frac", w.loop_frac);
    fpInt(s, "loop_record", w.loop_record);
    fpInt(s, "record_accesses", w.record_accesses);
    fpDbl(s, "values.zero", w.values.zero);
    fpDbl(s, "values.small_int", w.values.small_int);
    fpDbl(s, "values.repeated_byte", w.values.repeated_byte);
    fpDbl(s, "values.pointer_pair", w.values.pointer_pair);
    return fnv1a(s);
}

// ---------------------------------------------------------------
// Shared structure helpers
// ---------------------------------------------------------------

void
CheckpointCodec::encodeSet(ckpt::Encoder &e, const DecoupledSet &set)
{
    e.u16(static_cast<std::uint16_t>(set.entries_.size()));
    for (const TagEntry &t : set.entries_) {
        e.u64(t.line);
        e.boolean(t.valid);
        e.boolean(t.dirty);
        e.boolean(t.prefetch);
        e.u8(static_cast<std::uint8_t>(t.pf_source));
        e.boolean(t.was_compressed);
        e.u8(t.segments);
        e.u16(t.sharers);
        e.u8(static_cast<std::uint8_t>(t.owner));
    }
    e.u32(set.used_segments_);
}

void
CheckpointCodec::decodeSet(ckpt::Decoder &d, DecoupledSet &set)
{
    const std::uint16_t n = d.u16();
    if (n != set.entries_.size()) {
        throw ckpt::CorruptCheckpoint(
            "cache set tag count mismatch: file " + std::to_string(n) +
            ", config " + std::to_string(set.entries_.size()));
    }
    set.valid_count_ = 0;
    for (TagEntry &t : set.entries_) {
        t.line = d.u64();
        t.valid = d.boolean();
        set.valid_count_ += t.valid;
        t.dirty = d.boolean();
        t.prefetch = d.boolean();
        t.pf_source = static_cast<PfSource>(d.u8());
        t.was_compressed = d.boolean();
        t.segments = d.u8();
        t.sharers = d.u16();
        t.owner = static_cast<std::int8_t>(d.u8());
    }
    set.used_segments_ = d.u32();
}

void
CheckpointCodec::encodePrefetcher(ckpt::Encoder &e,
                                  const StridePrefetcher &pf)
{
    auto table = [&e](const std::vector<StridePrefetcher::FilterEntry>
                          &entries) {
        e.u32(static_cast<std::uint32_t>(entries.size()));
        for (const auto &f : entries) {
            e.i64(f.last_line);
            e.i64(f.stride);
            e.u32(f.count);
            e.u64(f.lru);
            e.boolean(f.valid);
        }
    };
    table(pf.pos_unit_.entries);
    table(pf.neg_unit_.entries);
    table(pf.non_unit_.entries);
    e.u32(static_cast<std::uint32_t>(pf.streams_.size()));
    for (const auto &s : pf.streams_) {
        e.i64(s.next_pf);
        e.i64(s.stride);
        e.i64(s.last_demand);
        e.u64(s.lru);
        e.boolean(s.valid);
    }
    e.u32(static_cast<std::uint32_t>(pf.recent_misses_.size()));
    for (std::int64_t m : pf.recent_misses_)
        e.i64(m);
    e.u64(pf.tick_);
}

void
CheckpointCodec::decodePrefetcher(ckpt::Decoder &d, StridePrefetcher &pf)
{
    auto table = [&d](std::vector<StridePrefetcher::FilterEntry>
                          &entries) {
        const std::uint32_t n = d.u32();
        if (n != entries.size()) {
            throw ckpt::CorruptCheckpoint(
                "prefetcher filter-table size mismatch");
        }
        for (auto &f : entries) {
            f.last_line = d.i64();
            f.stride = d.i64();
            f.count = d.u32();
            f.lru = d.u64();
            f.valid = d.boolean();
        }
    };
    table(pf.pos_unit_.entries);
    table(pf.neg_unit_.entries);
    table(pf.non_unit_.entries);
    pf.pos_unit_.reindex();
    pf.neg_unit_.reindex();
    pf.non_unit_.reindex();
    const std::uint32_t nstreams = d.u32();
    if (nstreams != pf.streams_.size())
        throw ckpt::CorruptCheckpoint("stream-table size mismatch");
    for (auto &s : pf.streams_) {
        s.next_pf = d.i64();
        s.stride = d.i64();
        s.last_demand = d.i64();
        s.lru = d.u64();
        s.valid = d.boolean();
    }
    pf.recent_misses_.clear();
    const std::uint32_t nmiss = d.u32();
    for (std::uint32_t i = 0; i < nmiss; ++i)
        pf.recent_misses_.push_back(d.i64());
    pf.tick_ = d.u64();
}

// ---------------------------------------------------------------
// Sections
// ---------------------------------------------------------------

std::string
CheckpointCodec::saveSystem()
{
    ckpt::Encoder e;
    e.u64(sys_.eq_.now());
    e.u64(sys_.eq_.seq_);
    e.dbl(sys_.ratio_samples_.sum());
    e.u64(sys_.ratio_samples_.count());
    e.u64(sys_.audits_.passes_);
    e.u64(sys_.measured_cycles_);
    e.u64(sys_.measured_instructions_);
    return e.take();
}

void
CheckpointCodec::loadSystem(ckpt::Decoder &d)
{
    // Moving the clock under pending events would strand them outside
    // the event wheel's horizon; a quiesced snapshot has none.
    cmpsim_assert(sys_.eq_.empty(), "restore into a busy event queue");
    sys_.eq_.now_ = d.u64();
    sys_.eq_.seq_ = d.u64();
    const double ratio_sum = d.dbl();
    const std::uint64_t ratio_count = d.u64();
    sys_.ratio_samples_.restore(ratio_sum, ratio_count);
    sys_.audits_.passes_ = d.u64();
    sys_.measured_cycles_ = d.u64();
    sys_.measured_instructions_ = d.u64();
}

std::string
CheckpointCodec::saveStats()
{
    ckpt::Encoder e;
    const StatRegistry &reg = sys_.registry_;
    const auto counters = reg.counterNames();
    e.u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto &name : counters) {
        e.str(name);
        e.u64(reg.counter(name));
    }
    const auto averages = reg.averageNames();
    e.u32(static_cast<std::uint32_t>(averages.size()));
    for (const auto &name : averages) {
        const Average &a = reg.averageStat(name);
        e.str(name);
        e.dbl(a.sum());
        e.u64(a.count());
    }
    const auto histograms = reg.histogramNames();
    e.u32(static_cast<std::uint32_t>(histograms.size()));
    for (const auto &name : histograms) {
        const Histogram &h = reg.histogram(name);
        e.str(name);
        e.u32(h.buckets());
        for (unsigned i = 0; i < h.buckets(); ++i)
            e.u64(h.bucket(i));
        e.u64(h.underflow());
        e.dbl(h.mean() * static_cast<double>(h.total())); // sum
        e.u64(h.total());
    }
    return e.take();
}

void
CheckpointCodec::loadStats(ckpt::Decoder &d)
{
    StatRegistry &reg = sys_.registry_;
    const std::uint32_t ncounters = d.u32();
    for (std::uint32_t i = 0; i < ncounters; ++i) {
        const std::string name = d.str();
        reg.restoreCounter(name, d.u64());
    }
    const std::uint32_t naverages = d.u32();
    for (std::uint32_t i = 0; i < naverages; ++i) {
        const std::string name = d.str();
        const double sum = d.dbl();
        const std::uint64_t count = d.u64();
        reg.restoreAverage(name, sum, count);
    }
    const std::uint32_t nhist = d.u32();
    for (std::uint32_t i = 0; i < nhist; ++i) {
        const std::string name = d.str();
        const std::uint32_t buckets = d.u32();
        if (buckets != reg.histogram(name).buckets()) {
            throw ckpt::CorruptCheckpoint(
                "histogram bucket-count mismatch for " + name);
        }
        std::vector<std::uint64_t> counts(buckets);
        for (auto &c : counts)
            c = d.u64();
        const std::uint64_t underflow = d.u64();
        const double sum = d.dbl();
        const std::uint64_t total = d.u64();
        reg.restoreHistogram(name, counts, underflow, sum, total);
    }
}

std::string
CheckpointCodec::saveCores()
{
    ckpt::Encoder e;
    e.u32(static_cast<std::uint32_t>(sys_.cores_.size()));
    for (const auto &cp : sys_.cores_) {
        const CoreModel &c = *cp;
        e.u32(static_cast<std::uint32_t>(c.rob_.size()));
        for (const auto &r : c.rob_) {
            e.u8(static_cast<std::uint8_t>(r.type));
            e.u64(r.done_at);
            e.u64(r.id);
        }
        e.u32(c.rob_head_);
        e.u32(c.rob_tail_);
        e.u32(c.rob_count_);
        e.u64(c.next_rob_id_);
        e.boolean(c.have_pending_);
        e.u8(static_cast<std::uint8_t>(c.pending_.type));
        e.u64(c.pending_.pc);
        e.u64(c.pending_.addr);
        e.u32(c.pending_.store_value);
        e.boolean(c.pending_.mispredict);
        e.boolean(c.pending_.chained);
        e.u32(static_cast<std::uint32_t>(c.chain_queue_.size()));
        for (const auto &a : c.chain_queue_) {
            e.u64(a.addr);
            e.boolean(a.is_write);
            e.u32(a.slot);
            e.u64(a.id);
        }
        e.boolean(c.chain_outstanding_);
        e.u64(c.last_fetch_line_);
        e.u64(c.fetch_stall_until_);
        e.u64(c.next_wake_);
    }
    return e.take();
}

void
CheckpointCodec::loadCores(ckpt::Decoder &d)
{
    const std::uint32_t n = d.u32();
    if (n != sys_.cores_.size())
        throw ckpt::CorruptCheckpoint("core count mismatch");
    for (auto &cp : sys_.cores_) {
        CoreModel &c = *cp;
        const std::uint32_t rob = d.u32();
        if (rob != c.rob_.size())
            throw ckpt::CorruptCheckpoint("ROB size mismatch");
        for (auto &r : c.rob_) {
            r.type = static_cast<InstrType>(d.u8());
            r.done_at = d.u64();
            r.id = d.u64();
        }
        c.rob_head_ = d.u32();
        c.rob_tail_ = d.u32();
        c.rob_count_ = d.u32();
        c.next_rob_id_ = d.u64();
        c.have_pending_ = d.boolean();
        c.pending_.type = static_cast<InstrType>(d.u8());
        c.pending_.pc = d.u64();
        c.pending_.addr = d.u64();
        c.pending_.store_value = d.u32();
        c.pending_.mispredict = d.boolean();
        c.pending_.chained = d.boolean();
        c.chain_queue_.clear();
        const std::uint32_t chain = d.u32();
        for (std::uint32_t i = 0; i < chain; ++i) {
            CoreModel::ChainedAccess a;
            a.addr = d.u64();
            a.is_write = d.boolean();
            a.slot = d.u32();
            a.id = d.u64();
            c.chain_queue_.push_back(a);
        }
        c.chain_outstanding_ = d.boolean();
        c.last_fetch_line_ = d.u64();
        c.fetch_stall_until_ = d.u64();
        c.next_wake_ = d.u64();
    }
}

std::string
CheckpointCodec::saveL1s()
{
    ckpt::Encoder e;
    auto one = [&e](const L1Cache &l1) {
        e.u32(static_cast<std::uint32_t>(l1.sets_.size()));
        for (const auto &set : l1.sets_)
            encodeSet(e, set);
    };
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        one(*sys_.l1i_[c]);
        one(*sys_.l1d_[c]);
    }
    return e.take();
}

void
CheckpointCodec::loadL1s(ckpt::Decoder &d)
{
    auto one = [&d](L1Cache &l1) {
        const std::uint32_t nsets = d.u32();
        if (nsets != l1.sets_.size())
            throw ckpt::CorruptCheckpoint("L1 set count mismatch");
        for (auto &set : l1.sets_)
            decodeSet(d, set);
    };
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        one(*sys_.l1i_[c]);
        one(*sys_.l1d_[c]);
    }
}

std::string
CheckpointCodec::saveL2()
{
    const L2Cache &l2 = *sys_.l2_;
    ckpt::Encoder e;
    e.u32(static_cast<std::uint32_t>(l2.sets_.size()));
    for (const auto &set : l2.sets_)
        encodeSet(e, set);
    e.u32(static_cast<std::uint32_t>(l2.bank_free_.size()));
    for (Cycle c : l2.bank_free_)
        e.u64(c);
    const BandwidthResource &bw = l2.onchip_;
    e.dbl(bw.next_free_);
    e.u64(bw.total_bytes_);
    e.u64(bw.transfers_);
    e.dbl(bw.busy_);
    e.u32(static_cast<std::uint32_t>(l2.pf_outstanding_.size()));
    for (unsigned v : l2.pf_outstanding_)
        e.u32(v);
    e.i64(l2.gcp_);
    e.u64(l2.l2pf_in_network_);
    e.u64(l2.l2pf_pending_at_reset_);
    return e.take();
}

void
CheckpointCodec::loadL2(ckpt::Decoder &d)
{
    L2Cache &l2 = *sys_.l2_;
    const std::uint32_t nsets = d.u32();
    if (nsets != l2.sets_.size())
        throw ckpt::CorruptCheckpoint("L2 set count mismatch");
    for (auto &set : l2.sets_)
        decodeSet(d, set);
    const std::uint32_t nbanks = d.u32();
    if (nbanks != l2.bank_free_.size())
        throw ckpt::CorruptCheckpoint("L2 bank count mismatch");
    for (auto &c : l2.bank_free_)
        c = d.u64();
    BandwidthResource &bw = l2.onchip_;
    bw.next_free_ = d.dbl();
    bw.total_bytes_ = d.u64();
    bw.transfers_ = d.u64();
    bw.busy_ = d.dbl();
    const std::uint32_t npf = d.u32();
    if (npf != l2.pf_outstanding_.size())
        throw ckpt::CorruptCheckpoint("pf_outstanding size mismatch");
    for (auto &v : l2.pf_outstanding_)
        v = d.u32();
    l2.gcp_ = d.i64();
    l2.l2pf_in_network_ = d.u64();
    l2.l2pf_pending_at_reset_ = d.u64();
}

std::string
CheckpointCodec::saveLink()
{
    const PriorityLink &link = sys_.memory_->link();
    ckpt::Encoder e;
    e.dbl(link.cursor_);
    e.u64(link.pending_at_reset_);
    // delivered_bytes_ backs the byte-conservation audit but is not a
    // registered stat, so the stats section does not carry it.
    e.u64(link.delivered_bytes_.value());
    return e.take();
}

void
CheckpointCodec::loadLink(ckpt::Decoder &d)
{
    PriorityLink &link = sys_.memory_->link();
    link.cursor_ = d.dbl();
    link.pending_at_reset_ = d.u64();
    link.delivered_bytes_.reset();
    link.delivered_bytes_ += d.u64();
}

std::string
CheckpointCodec::saveDram()
{
    ckpt::Encoder e;
    const DramBackend *dram = sys_.memory_->dram();
    e.boolean(dram != nullptr);
    if (dram == nullptr)
        return e.take();
    e.u32(static_cast<std::uint32_t>(dram->channels_.size()));
    for (const auto &ch : dram->channels_) {
        e.u32(static_cast<std::uint32_t>(ch.banks.size()));
        for (const auto &b : ch.banks) {
            e.boolean(b.row_open);
            e.u64(b.open_row);
            e.u64(b.ready);
            e.u64(b.activated);
            e.u64(b.pending);
        }
        e.boolean(ch.draining);
        e.u64(ch.next_refresh);
    }
    e.u64(dram->next_seq_);
    e.u64(dram->conserv_reads_in_);
    e.u64(dram->conserv_reads_out_);
    e.u64(dram->conserv_writes_in_);
    e.u64(dram->conserv_writes_out_);
    return e.take();
}

void
CheckpointCodec::loadDram(ckpt::Decoder &d)
{
    const bool armed = d.boolean();
    DramBackend *dram = sys_.memory_->dram();
    if (armed != (dram != nullptr)) {
        throw ckpt::CorruptCheckpoint(
            "DRAM backend mismatch between checkpoint and config");
    }
    if (dram == nullptr)
        return;
    const std::uint32_t nch = d.u32();
    if (nch != dram->channels_.size())
        throw ckpt::CorruptCheckpoint("DRAM channel count mismatch");
    for (auto &ch : dram->channels_) {
        const std::uint32_t nbanks = d.u32();
        if (nbanks != ch.banks.size())
            throw ckpt::CorruptCheckpoint("DRAM bank count mismatch");
        for (auto &b : ch.banks) {
            b.row_open = d.boolean();
            b.open_row = d.u64();
            b.ready = d.u64();
            b.activated = d.u64();
            b.pending = d.u64();
        }
        ch.draining = d.boolean();
        ch.next_refresh = d.u64();
    }
    dram->next_seq_ = d.u64();
    dram->conserv_reads_in_ = d.u64();
    dram->conserv_reads_out_ = d.u64();
    dram->conserv_writes_in_ = d.u64();
    dram->conserv_writes_out_ = d.u64();
}

std::string
CheckpointCodec::saveValues()
{
    ckpt::Encoder e;
    encodeValues(e, *sys_.values_);
    return e.take();
}

void
CheckpointCodec::loadValues(ckpt::Decoder &d)
{
    decodeValues(d, *sys_.values_);
}

void
CheckpointCodec::encodeValues(ckpt::Encoder &e, const ValueStore &vs)
{
    const std::vector<Addr> lines = vs.sortedLines();
    e.u64(lines.size());
    for (const Addr addr : lines) {
        e.u64(addr);
        // Only the bytes: the segment-count memo is a deterministic
        // pure function of the data and recomputes identically, and
        // skipping it keeps save -> load -> save byte-stable.
        e.raw(vs.line(addr).data(), kLineBytes);
    }
}

void
CheckpointCodec::decodeValues(ckpt::Decoder &d, ValueStore &vs)
{
    vs.clear();
    const std::uint64_t n = d.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        ValueStore::Entry &entry = vs.ensure(d.u64());
        d.raw(entry.data.data(), kLineBytes);
    }
}

std::string
CheckpointCodec::savePrefetch()
{
    ckpt::Encoder e;
    e.boolean(sys_.config_.prefetching);
    if (!sys_.config_.prefetching)
        return e.take();
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        encodePrefetcher(e, *sys_.pf_l1i_[c]);
        encodePrefetcher(e, *sys_.pf_l1d_[c]);
        e.u32(sys_.ad_l1i_[c]->counter_.value_);
        e.u32(sys_.ad_l1d_[c]->counter_.value_);
    }
    e.u32(static_cast<std::uint32_t>(sys_.pf_l2_.size()));
    for (const auto &pf : sys_.pf_l2_)
        encodePrefetcher(e, *pf);
    e.u32(sys_.l2_adaptive_->counter_.value_);
    return e.take();
}

void
CheckpointCodec::loadPrefetch(ckpt::Decoder &d)
{
    const bool enabled = d.boolean();
    if (enabled != sys_.config_.prefetching) {
        throw ckpt::CorruptCheckpoint(
            "prefetching mismatch between checkpoint and config");
    }
    if (!enabled)
        return;
    for (unsigned c = 0; c < sys_.config_.cores; ++c) {
        decodePrefetcher(d, *sys_.pf_l1i_[c]);
        decodePrefetcher(d, *sys_.pf_l1d_[c]);
        sys_.ad_l1i_[c]->counter_.value_ = d.u32();
        sys_.ad_l1d_[c]->counter_.value_ = d.u32();
    }
    const std::uint32_t engines = d.u32();
    if (engines != sys_.pf_l2_.size())
        throw ckpt::CorruptCheckpoint("L2 prefetcher count mismatch");
    for (auto &pf : sys_.pf_l2_)
        decodePrefetcher(d, *pf);
    sys_.l2_adaptive_->counter_.value_ = d.u32();
}

std::string
CheckpointCodec::saveWorkload()
{
    ckpt::Encoder e;
    e.u32(static_cast<std::uint32_t>(sys_.streams_.size()));
    for (const auto &wp : sys_.streams_) {
        const SyntheticWorkload::Cursor &c = wp->cursor();
        for (std::uint64_t word : c.rng.state_)
            e.u64(word);
        e.u64(c.pc);
        e.u64(c.repeat_line);
        e.u32(c.repeat_left);
        e.boolean(c.last_was_loop);
        e.u32(static_cast<std::uint32_t>(c.streams.size()));
        for (const auto &st : c.streams) {
            e.u64(st.cur);
            e.i64(st.stride);
            e.u64(st.remaining);
        }
        e.u32(static_cast<std::uint32_t>(c.recent_bases.size()));
        for (Addr base : c.recent_bases)
            e.u64(base);
        // Loop layout (base, shuffled order, cum_weight) is a pure
        // function of (params, seed) and replays in the constructor;
        // only the walk cursor is state.
        e.u32(static_cast<std::uint32_t>(c.loops.size()));
        for (const auto &loop : c.loops) {
            e.u64(loop.pos);
            e.u32(loop.on_record);
        }
    }
    return e.take();
}

void
CheckpointCodec::loadWorkload(ckpt::Decoder &d)
{
    const std::uint32_t n = d.u32();
    if (n != sys_.streams_.size())
        throw ckpt::CorruptCheckpoint("workload stream count mismatch");
    for (auto &wp : sys_.streams_) {
        SyntheticWorkload::Cursor c = wp->cursor();
        for (std::uint64_t &word : c.rng.state_)
            word = d.u64();
        c.pc = d.u64();
        c.repeat_line = d.u64();
        c.repeat_left = d.u32();
        c.last_was_loop = d.boolean();
        const std::uint32_t nstreams = d.u32();
        if (nstreams != c.streams.size())
            throw ckpt::CorruptCheckpoint("stride-stream count mismatch");
        for (auto &st : c.streams) {
            st.cur = d.u64();
            st.stride = static_cast<int>(d.i64());
            st.remaining = d.u64();
        }
        c.recent_bases.clear();
        const std::uint32_t nbases = d.u32();
        for (std::uint32_t i = 0; i < nbases; ++i)
            c.recent_bases.push_back(d.u64());
        const std::uint32_t nloops = d.u32();
        if (nloops != c.loops.size())
            throw ckpt::CorruptCheckpoint("loop count mismatch");
        for (auto &loop : c.loops) {
            loop.pos = d.u64();
            loop.on_record = d.u32();
        }
        wp->setCursor(c);
    }
}

namespace {

/** StatSnapshot as sorted (name, value) lists — std::map iteration is
 *  ordered, so the bytes are canonical for the roundtrip audit. */
void
encodeSnapshot(ckpt::Encoder &e, const StatSnapshot &s)
{
    e.u64(s.counters.size());
    for (const auto &[name, v] : s.counters) {
        e.str(name);
        e.u64(v);
    }
    e.u64(s.averages.size());
    for (const auto &[name, a] : s.averages) {
        e.str(name);
        e.dbl(a.sum);
        e.u64(a.count);
    }
}

void
decodeSnapshot(ckpt::Decoder &d, StatSnapshot &s)
{
    s.counters.clear();
    s.averages.clear();
    const std::uint64_t ncounters = d.u64();
    for (std::uint64_t i = 0; i < ncounters; ++i) {
        const std::string name = d.str();
        s.counters[name] = d.u64();
    }
    const std::uint64_t naverages = d.u64();
    for (std::uint64_t i = 0; i < naverages; ++i) {
        const std::string name = d.str();
        StatSnapshot::Avg &a = s.averages[name];
        a.sum = d.dbl();
        a.count = d.u64();
    }
}

} // namespace

std::string
CheckpointCodec::saveSample()
{
    // Sampling-plan progress (DESIGN.md §14): the interval cursor,
    // the open interval's baseline snapshot, accumulated detail
    // deltas and per-interval metric samples. The FastForwardEngine's
    // own counters ride in the quiesced stats section and advance
    // with the replay; its conservation accumulators restart at zero
    // after restore (both sides restart together, so the audit stays
    // exact).
    ckpt::Encoder e;
    const SampleState &ss = sys_.sample_state_;
    e.u32(ss.intervals_done);
    e.boolean(ss.in_detail);
    e.boolean(ss.stopped_early);
    e.u64(ss.ff_instructions);
    encodeSnapshot(e, ss.baseline);
    encodeSnapshot(e, ss.detail_totals);
    e.u64(ss.samples.size());
    for (const IntervalSample &s : ss.samples) {
        e.dbl(s.cycles);
        e.dbl(s.instructions);
        e.dbl(s.ipc);
        e.dbl(s.l2_miss_rate);
        e.dbl(s.l2_mpki);
        e.dbl(s.bandwidth_gbps);
        e.dbl(s.compression_ratio);
    }
    return e.take();
}

void
CheckpointCodec::loadSample(ckpt::Decoder &d)
{
    SampleState &ss = sys_.sample_state_;
    ss.intervals_done = d.u32();
    ss.in_detail = d.boolean();
    ss.stopped_early = d.boolean();
    ss.ff_instructions = d.u64();
    decodeSnapshot(d, ss.baseline);
    decodeSnapshot(d, ss.detail_totals);
    ss.samples.clear();
    const std::uint64_t n = d.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        IntervalSample s;
        s.cycles = d.dbl();
        s.instructions = d.dbl();
        s.ipc = d.dbl();
        s.l2_miss_rate = d.dbl();
        s.l2_mpki = d.dbl();
        s.bandwidth_gbps = d.dbl();
        s.compression_ratio = d.dbl();
        ss.samples.push_back(s);
    }
}

// ---------------------------------------------------------------
// Call log
// ---------------------------------------------------------------

std::string
CheckpointCodec::saveLog()
{
    ckpt::Encoder e;
    const std::vector<LoggedCall> &calls = sys_.calls_;
    e.u32(static_cast<std::uint32_t>(calls.size()));
    for (const LoggedCall &c : calls) {
        e.u8(c.kind);
        e.u64(c.instr);
        e.u64(c.warm);
    }
    // An unfinished run() is always the last call: the autosave inside
    // its loop (or a failure that unwound it) is the only way to save
    // while one is open.
    e.u64(sys_.run_state_.active ? sys_.eq_.now() : kCycleNever);
    return e.take();
}

CallLog
CheckpointCodec::decodeLog(std::string_view payload)
{
    ckpt::Decoder d(payload);
    CallLog log;
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
        LoggedCall c;
        const std::uint8_t kind = d.u8();
        if (kind < LoggedCall::kWarmup || kind > LoggedCall::kFastForward)
            throw ckpt::CorruptCheckpoint("unknown logged call kind");
        c.kind = static_cast<LoggedCall::Kind>(kind);
        c.instr = d.u64();
        c.warm = d.u64();
        log.calls.push_back(c);
    }
    log.interrupted_at = d.u64();
    if (log.interrupted_at != kCycleNever &&
        (log.calls.empty() || log.calls.back().kind != LoggedCall::kRun))
        throw ckpt::CorruptCheckpoint("interrupted call is not a run");
    d.expectEnd("log");
    return log;
}

// ---------------------------------------------------------------
// Quiesced capture and container
// ---------------------------------------------------------------

std::string
CheckpointCodec::pendingWork() const
{
    std::uint64_t mshrs = sys_.l2_->mshrs_.size();
    for (unsigned c = 0; c < sys_.config_.cores; ++c)
        mshrs += sys_.l1i_[c]->outstanding() + sys_.l1d_[c]->outstanding();
    const PriorityLink &link = sys_.memory_->link();
    std::uint64_t messages = link.busy_ ? 1 : 0;
    for (const auto &q : link.queues_)
        messages += q.size();
    std::uint64_t requests = 0;
    if (const DramBackend *dram = sys_.memory_->dram()) {
        requests = dram->inflight_reads_ + dram->inflight_writes_;
        for (const auto &ch : dram->channels_)
            requests += ch.reads.size() + ch.writes.size() + ch.busy;
    }
    std::string out;
    auto note = [&out](const char *what, std::uint64_t n) {
        if (n != 0)
            out += std::string(what) + ": " + std::to_string(n) + "\n";
    };
    note("events", sys_.eq_.size());
    note("unfinished run()", sys_.run_state_.active);
    note("cache MSHRs", mshrs);
    note("link messages", messages);
    note("DRAM requests", requests);
    return out;
}

std::vector<ckpt::Section>
CheckpointCodec::captureQuiesced()
{
    const std::string pending = pendingWork();
    if (!pending.empty()) {
        throw ConfigError("config.ckpt",
                          "cannot capture a quiesced snapshot with work "
                          "pending:\n" +
                              pending);
    }
    std::vector<ckpt::Section> sections;
    sections.push_back({"system", saveSystem()});
    sections.push_back({"stats", saveStats()});
    sections.push_back({"values", saveValues()});
    sections.push_back({"workload", saveWorkload()});
    sections.push_back({"cores", saveCores()});
    sections.push_back({"l1", saveL1s()});
    sections.push_back({"l2", saveL2()});
    sections.push_back({"link", saveLink()});
    sections.push_back({"dram", saveDram()});
    sections.push_back({"prefetch", savePrefetch()});
    return sections;
}

std::string
CheckpointCodec::save()
{
    if (sys_.quiesced_.empty()) {
        throw ConfigError("config.ckpt",
                          "checkpointing is not armed for this system "
                          "(CMPSIM_CKPT, CMPSIM_RESTORE or "
                          "ckpt::setArmed before construction)");
    }
    std::vector<ckpt::Section> sections = sys_.quiesced_;
    sections.push_back({"log", saveLog()});
    // Present only when a sampling plan is armed: the SampleState at
    // save time, which the replayed calls alone cannot rebuild (the
    // SamplingController, not CmpSystem, advances it).
    if (sys_.config_.sampling.armed())
        sections.push_back({"sample", saveSample()});
    return ckpt::packFile(
        checkpointFingerprint(sys_.config_, sys_.workload_), sections);
}

void
CheckpointCodec::restore(std::string_view bytes)
{
    ckpt::ParsedFile file = ckpt::parseFile(bytes);
    const std::uint64_t want =
        checkpointFingerprint(sys_.config_, sys_.workload_);
    if (file.fingerprint != want) {
        throw ConfigError(
            "config.restore",
            "checkpoint fingerprint " + hex16(file.fingerprint) +
                " does not match this run's " + hex16(want) +
                " (different config, seed or workload)");
    }
    using Loader = void (CheckpointCodec::*)(ckpt::Decoder &);
    static const std::map<std::string, Loader> quiesced = {
        {"system", &CheckpointCodec::loadSystem},
        {"stats", &CheckpointCodec::loadStats},
        {"values", &CheckpointCodec::loadValues},
        {"workload", &CheckpointCodec::loadWorkload},
        {"cores", &CheckpointCodec::loadCores},
        {"l1", &CheckpointCodec::loadL1s},
        {"l2", &CheckpointCodec::loadL2},
        {"link", &CheckpointCodec::loadLink},
        {"dram", &CheckpointCodec::loadDram},
        {"prefetch", &CheckpointCodec::loadPrefetch},
    };
    // The sample section is present exactly when the config has an
    // armed plan (the fingerprint already guarantees the saving config
    // agreed).
    const bool sampled = sys_.config_.sampling.armed();
    std::set<std::string> seen;
    std::vector<ckpt::Section> q;
    const ckpt::Section *log = nullptr;
    const ckpt::Section *sample = nullptr;
    for (ckpt::Section &s : file.sections) {
        if (!seen.insert(s.name).second) {
            throw ckpt::CorruptCheckpoint("duplicate section " +
                                          s.name);
        }
        if (s.name == "log") {
            log = &s;
        } else if (s.name == "sample" && sampled) {
            sample = &s;
        } else if (const auto it = quiesced.find(s.name);
                   it != quiesced.end()) {
            ckpt::Decoder d(s.payload);
            (this->*(it->second))(d);
            d.expectEnd(s.name.c_str());
            q.push_back(std::move(s));
        } else {
            throw ckpt::CorruptCheckpoint("unknown section " + s.name);
        }
    }
    if (q.size() != quiesced.size() || log == nullptr ||
        (sampled && sample == nullptr)) {
        throw ckpt::CorruptCheckpoint("checkpoint is missing a section");
    }

    // The restored system keeps the file's quiesced sections verbatim
    // and the replay rebuilds the same log, so saving it again
    // reproduces these bytes.
    sys_.quiesced_ = std::move(q);
    sys_.replay(decodeLog(log->payload));
    if (sample != nullptr) {
        ckpt::Decoder d(sample->payload);
        loadSample(d);
        d.expectEnd("sample");
    }
}

} // namespace cmpsim
