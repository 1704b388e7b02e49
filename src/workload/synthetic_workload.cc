#include "src/workload/synthetic_workload.h"

#include "src/mem/skip_log.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

namespace {
/** Recently streamed arrays remembered for stream_reuse. */
constexpr std::size_t kRecentBases = 16;
} // namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params,
                                     ValueStore &values, unsigned cpu,
                                     std::uint64_t seed)
    : params_(params), values_(values), value_gen_(params.values),
      cpu_(cpu)
{
    cur_.rng.reseed(seed * 0x9e3779b97f4a7c15ULL +
                    cpu * 0x100000001b3ULL + 1);
    cur_.streams.resize(params.stream_count);
    faultSite("workload.gen");
    cmpsim_assert(params.load_frac + params.store_frac +
                      params.branch_frac <=
                  1.0);
    cmpsim_assert(!params.stride_bytes.empty());
    cmpsim_assert(params.stream_len_min > 0 &&
                  params.stream_len_min <= params.stream_len_max);
    cur_.recent_bases.reserve(kRecentBases + 1);
    for (auto &s : cur_.streams)
        resetStream(s);

    // Lay the permuted loops out past the private zipf region.
    Addr loop_base = privateBase() + params_.ws_private;
    loop_base = (loop_base + layout::kPageBytes - 1) &
                ~(layout::kPageBytes - 1);
    double total_weight = 0;
    for (const auto &spec : params_.loops)
        total_weight += spec.weight;
    double cum = 0;
    for (const auto &spec : params_.loops) {
        Loop loop;
        loop.base = loop_base;
        const auto lines =
            std::max<std::uint64_t>(spec.bytes / kLineBytes, 4);
        loop_base += lines * kLineBytes + layout::kPageBytes;
        // A Fisher-Yates shuffle of the visit order: a repeating cycle
        // with the loop's reuse distance but no stride structure at
        // all (a linked structure's pointer order).
        loop.order.resize(lines);
        for (std::uint64_t i = 0; i < lines; ++i)
            loop.order[i] = static_cast<std::uint32_t>(i);
        for (std::uint64_t i = lines - 1; i > 0; --i) {
            const auto j = cur_.rng.below(i + 1);
            std::swap(loop.order[i], loop.order[j]);
        }
        cur_.loops.push_back({cur_.rng.below(lines), 0});
        cum += spec.weight / total_weight;
        loop.cum_weight = cum;
        loops_.push_back(std::move(loop));
    }

    // Cores start at different code offsets (they are different
    // threads of the same program).
    cur_.pc = layout::kCodeBase +
              (cur_.rng.below(params_.i_footprint / 4) * 4);
}

SyntheticWorkload::Cursor
SyntheticWorkload::cursorSlot() const
{
    Cursor c = cur_;
    c.recent_bases.reserve(kRecentBases + 1);
    return c;
}

void
SyntheticWorkload::setCursor(const Cursor &c)
{
    cmpsim_assert(c.streams.size() == cur_.streams.size());
    cmpsim_assert(c.loops.size() == cur_.loops.size());
    cur_ = c;
}

void
SyntheticWorkload::copyStateFrom(const SyntheticWorkload &other)
{
    cmpsim_assert(cpu_ == other.cpu_);
    setCursor(other.cur_);
}

Addr
SyntheticWorkload::advanceLoop()
{
    cmpsim_assert(!loops_.empty());
    const double u = cur_.rng.uniform();
    std::size_t i = 0;
    while (i + 1 < loops_.size() && !(u < loops_[i].cum_weight))
        ++i;
    const Loop &loop = loops_[i];
    LoopPos &at = cur_.loops[i];
    if (at.on_record == 0) {
        at.pos = (at.pos + 1) % loop.order.size();
        at.on_record = params_.loop_record;
    }
    --at.on_record;
    return loop.base + loop.order[at.pos] * kLineBytes +
           cur_.rng.below(kWordsPerLine) * 4;
}

Addr
SyntheticWorkload::privateBase() const
{
    return layout::kPrivateBase + cpu_ * layout::kPrivateStride;
}

void
SyntheticWorkload::touchLine(Addr addr)
{
    const auto make = [this] { return value_gen_.generate(cur_.rng); };
    if (skip_log_ != nullptr)
        skip_log_->touch(values_, addr, make);
    else
        values_.setLineIfAbsent(addr, make);
}

void
SyntheticWorkload::resetStream(Stream &s)
{
    const std::uint64_t region =
        params_.ws_stream > 0 ? params_.ws_stream : params_.ws_private;
    const std::uint64_t ws_lines = region / kLineBytes;
    s.stride = params_.stride_bytes[cur_.rng.below(
        params_.stride_bytes.size())];
    const std::uint64_t len_lines =
        cur_.rng.inRange(params_.stream_len_min, params_.stream_len_max);

    // Accesses needed to traverse len_lines lines at this stride.
    const auto abs_stride =
        static_cast<std::uint64_t>(s.stride < 0 ? -s.stride : s.stride);
    s.remaining = abs_stride >= kLineBytes
                      ? len_lines
                      : len_lines * (kLineBytes / abs_stride);

    // Leave room so the walk stays inside the private region.
    const std::uint64_t span_lines =
        len_lines * (abs_stride >= kLineBytes ? abs_stride / kLineBytes
                                              : 1) +
        2;
    const std::uint64_t max_start =
        ws_lines > span_lines ? ws_lines - span_lines : 1;

    // Re-walk a recently streamed array (a reused buffer) or pick a
    // fresh one.
    // Streams get their own region, placed beyond the loops.
    const Addr stream_base = privateBase() + 0x2000'0000ULL;
    Addr start;
    if (!cur_.recent_bases.empty() && cur_.rng.chance(params_.stream_reuse)) {
        start = cur_.recent_bases[cur_.rng.below(cur_.recent_bases.size())];
    } else {
        start = stream_base + cur_.rng.below(max_start) * kLineBytes;
        cur_.recent_bases.push_back(start);
        if (cur_.recent_bases.size() > kRecentBases)
            cur_.recent_bases.erase(cur_.recent_bases.begin());
    }
    if (s.stride < 0)
        start += span_lines * kLineBytes - kLineBytes;
    s.cur = start;
}

Addr
SyntheticWorkload::pickDataAddr()
{
    cur_.last_was_loop = false;
    // Finish the current record first (multi-word object accesses).
    if (cur_.repeat_left > 0) {
        --cur_.repeat_left;
        const Addr paddr =
            cur_.repeat_line + cur_.rng.below(kWordsPerLine) * 4;
        return paddr;
    }

    const double u = cur_.rng.uniform();
    Addr vaddr;
    bool record = false;
    if (u < params_.stride_frac) {
        Stream &s = cur_.streams[cur_.rng.below(cur_.streams.size())];
        if (s.remaining == 0)
            resetStream(s);
        cur_.last_was_loop = cur_.rng.chance(params_.stream_chain);
        vaddr = s.cur & ~static_cast<Addr>(3);
        s.cur = static_cast<Addr>(static_cast<std::int64_t>(s.cur) +
                                  s.stride);
        --s.remaining;
    } else if (u < params_.stride_frac + params_.shared_frac) {
        const std::uint64_t lines = params_.ws_shared / kLineBytes;
        vaddr = layout::kSharedBase +
                cur_.rng.zipf(lines, params_.zipf_s) * kLineBytes +
                cur_.rng.below(kWordsPerLine) * 4;
        record = true;
    } else if (!loops_.empty() &&
               u < params_.stride_frac + params_.shared_frac +
                       params_.loop_frac) {
        vaddr = advanceLoop();
        cur_.last_was_loop = true;
    } else if (cur_.rng.chance(params_.hot_frac)) {
        // Hot per-core structures at the front of the private region.
        const std::uint64_t lines = params_.ws_hot / kLineBytes;
        vaddr = privateBase() + cur_.rng.zipf(lines, 0.8) * kLineBytes +
                cur_.rng.below(kWordsPerLine) * 4;
        record = true;
    } else {
        const std::uint64_t lines = params_.ws_private / kLineBytes;
        vaddr = privateBase() +
                cur_.rng.zipf(lines, params_.zipf_s) * kLineBytes +
                cur_.rng.below(kWordsPerLine) * 4;
        record = true;
    }
    const Addr paddr = layout::translate(vaddr);
    touchLine(paddr);
    if (record && params_.record_accesses > 1) {
        cur_.repeat_line = lineAddr(paddr);
        cur_.repeat_left = params_.record_accesses - 1;
    }
    return paddr;
}

Instruction
SyntheticWorkload::next()
{
    Instruction in;
    in.pc = layout::translate(cur_.pc);

    Addr next_pc = cur_.pc + 4;
    const double u = cur_.rng.uniform();
    if (u < params_.branch_frac) {
        in.type = InstrType::Branch;
        in.mispredict = cur_.rng.chance(params_.mispredict_rate);
        if (cur_.rng.chance(params_.branch_far_frac)) {
            // Jump targets are reused (loops, hot functions).
            const std::uint64_t code_lines =
                params_.i_footprint / kLineBytes;
            next_pc = layout::kCodeBase +
                      cur_.rng.zipf(code_lines, params_.code_zipf) *
                          kLineBytes +
                      cur_.rng.below(kLineBytes / 4) * 4;
        }
    } else if (u < params_.branch_frac + params_.load_frac) {
        in.type = InstrType::Load;
        in.addr = pickDataAddr();
        in.chained = cur_.last_was_loop;
    } else if (u <
               params_.branch_frac + params_.load_frac +
                   params_.store_frac) {
        in.type = InstrType::Store;
        in.addr = pickDataAddr();
        in.store_value = value_gen_.generateWord(cur_.rng);
        in.chained = cur_.last_was_loop;
    } else {
        in.type = InstrType::Alu;
    }

    if (next_pc >= layout::kCodeBase + params_.i_footprint)
        next_pc = layout::kCodeBase;
    cur_.pc = next_pc;
    return in;
}

} // namespace cmpsim
