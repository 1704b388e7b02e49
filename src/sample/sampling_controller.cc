#include "src/sample/sampling_controller.h"

#include "src/common/log.h"
#include "src/core_api/cmp_system.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

SamplingController::SamplingController(CmpSystem &sys)
    : sys_(sys), plan_(sys.config().sampling),
      state_(sys.sampleState())
{
    cmpsim_assert(plan_.armed());
}

void
SamplingController::beginInterval()
{
    state_.baseline = sys_.stats().snapshot();
    state_.in_detail = true;
}

void
SamplingController::closeInterval()
{
    const StatSnapshot delta =
        StatRegistry::delta(sys_.stats().snapshot(), state_.baseline);

    IntervalSample s;
    // run() measures from interval start even across a mid-interval
    // checkpoint restore: the replay leaves the interval's run open
    // with its original start cursor, so cycles()/instructions()
    // always cover the full interval.
    s.cycles = static_cast<double>(sys_.cycles());
    s.instructions = static_cast<double>(sys_.instructions());
    s.ipc = sys_.ipc();
    const double misses =
        static_cast<double>(delta.counter("l2.demand_misses"));
    const double accesses =
        static_cast<double>(delta.counter("l2.demand_accesses"));
    s.l2_miss_rate = accesses > 0 ? misses / accesses : 0;
    const double kilo_instr = s.instructions / 1000.0;
    s.l2_mpki = kilo_instr > 0 ? misses / kilo_instr : 0;
    const double link_bytes =
        static_cast<double>(delta.counter("mem.link.bytes"));
    s.bandwidth_gbps =
        s.cycles > 0 ? link_bytes / s.cycles * 5.0 : 0; // 5 GHz clock
    s.compression_ratio = sys_.l2().compressionRatio();

    state_.samples.push_back(s);
    state_.detail_totals.accumulate(delta);
    state_.baseline = StatSnapshot{};
    state_.in_detail = false;
    ++state_.intervals_done;
}

bool
SamplingController::ciTargetMet() const
{
    if (plan_.ci_target_pct <= 0 || state_.samples.size() < 2)
        return false;
    std::vector<double> ipc;
    ipc.reserve(state_.samples.size());
    for (const IntervalSample &s : state_.samples)
        ipc.push_back(s.ipc);
    const SampleSummary sum = summarize(ipc);
    return sum.mean > 0 &&
           sum.ci95 <= plan_.ci_target_pct / 100.0 * sum.mean;
}

void
SamplingController::measureInterval()
{
    faultSite("sample.interval");
    beginInterval();
    sys_.run(plan_.detail_per_core);
    closeInterval();
}

SamplingResult
SamplingController::run()
{
    // A restore can land mid-interval (in_detail: finish the open
    // interval's remaining instructions first) or exactly on a
    // boundary; either way intervals_done tells us where the plan
    // cursor is.
    if (state_.in_detail) {
        sys_.run(plan_.detail_per_core); // resumes the restored target
        closeInterval();
    }
    while (state_.intervals_done < plan_.max_intervals) {
        if (ciTargetMet()) {
            state_.stopped_early = true;
            break;
        }
        faultSite("sample.interval");
        if (plan_.ff_per_core > 0)
            sys_.fastForward(plan_.ff_per_core, plan_.warmPerCore());
        beginInterval();
        sys_.run(plan_.detail_per_core);
        closeInterval();
    }
    return reduce();
}

SamplingResult
SamplingController::reduce() const
{
    SamplingResult r;
    r.intervals = state_.intervals_done;
    r.stopped_early = state_.stopped_early;
    r.ff_instructions = state_.ff_instructions;
    r.totals = state_.detail_totals;
    r.samples = state_.samples;

    std::vector<double> cycles, ipc, miss_rate, mpki, bw, ratio;
    for (const IntervalSample &s : state_.samples) {
        cycles.push_back(s.cycles);
        ipc.push_back(s.ipc);
        miss_rate.push_back(s.l2_miss_rate);
        mpki.push_back(s.l2_mpki);
        bw.push_back(s.bandwidth_gbps);
        ratio.push_back(s.compression_ratio);
        r.detail_cycles += s.cycles;
        r.detail_instructions += s.instructions;
    }
    r.cycles = summarize(cycles);
    r.ipc = summarize(ipc);
    r.l2_miss_rate = summarize(miss_rate);
    r.l2_mpki = summarize(mpki);
    r.bandwidth_gbps = summarize(bw);
    r.compression_ratio = summarize(ratio);
    return r;
}

} // namespace cmpsim
