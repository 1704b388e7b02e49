/**
 * @file
 * CmpSystem: the fully wired CMP of the paper — cores, split L1s,
 * per-core L1I/L1D/L2 stride prefetchers, adaptive controllers, the
 * banked shared compressed L2, the pin link with optional link
 * compression, and DRAM — built from a SystemConfig plus a workload,
 * with functional warmup and a timed run loop.
 *
 * This is the library's primary entry point:
 *
 *     CmpSystem sys(makeConfig(8, 4, true, true, true, true),
 *                   benchmarkParams("zeus"));
 *     sys.warmup(200'000);
 *     sys.run(50'000);
 *     double speedup_input = sys.cycles();
 */

#ifndef CMPSIM_CORE_API_CMP_SYSTEM_H
#define CMPSIM_CORE_API_CMP_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "src/audit/invariant_registry.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/controller.h"
#include "src/compression/fpc.h"
#include "src/core_api/system_config.h"
#include "src/obs/interval_sampler.h"
#include "src/sample/fast_forward.h"
#include "src/sample/sample_state.h"
#include "src/workload/synthetic_workload.h"

namespace cmpsim {

class CpiAccount;
class MissJournal;

/** A complete simulated CMP. */
class CmpSystem
{
  public:
    CmpSystem(const SystemConfig &config, const WorkloadParams &workload);
    ~CmpSystem();

    CmpSystem(const CmpSystem &) = delete;
    CmpSystem &operator=(const CmpSystem &) = delete;

    /**
     * Functional cache warmup: every core executes @p instr_per_core
     * instructions updating cache/directory/prefetcher state with no
     * timing. Stats are reset afterwards.
     */
    void warmup(std::uint64_t instr_per_core);

    /**
     * Timed simulation until the cores together retire
     * @p instr_per_core x cores instructions (measured from the call).
     */
    void run(std::uint64_t instr_per_core);

    /** Cycles elapsed during run(). */
    Cycle cycles() const { return measured_cycles_; }

    /** Instructions retired during run(). */
    std::uint64_t instructions() const { return measured_instructions_; }

    double
    ipc() const
    {
        return measured_cycles_ == 0
                   ? 0.0
                   : static_cast<double>(measured_instructions_) /
                         static_cast<double>(measured_cycles_);
    }

    /**
     * Off-chip bandwidth consumed during run(), in GB/s at the 5 GHz
     * clock (the paper's Figure 4/7 metric when the config has
     * infinite_bandwidth set).
     */
    double bandwidthGBps() const;

    /** Mean L2 compression ratio over the periodic samples. */
    double compressionRatio() const { return ratio_samples_.mean(); }

    // Component access for stats and tests.
    const SystemConfig &config() const { return config_; }
    const WorkloadParams &workload() const { return workload_; }
    L2Cache &l2() { return *l2_; }
    const L2Cache &l2() const { return *l2_; }
    MainMemory &memory() { return *memory_; }
    const ValueStore &values() const { return *values_; }
    L1Cache &l1i(unsigned cpu) { return *l1i_[cpu]; }
    L1Cache &l1d(unsigned cpu) { return *l1d_[cpu]; }
    CoreModel &core(unsigned cpu) { return *cores_[cpu]; }
    const SyntheticWorkload &stream(unsigned cpu) const
    {
        return *streams_[cpu];
    }
    StatRegistry &stats() { return registry_; }
    AdaptivePrefetchController &l2Adaptive() { return *l2_adaptive_; }

    /**
     * The system-wide invariant registry. Populated at construction;
     * run() enforces it every config.audit_interval cycles (and once
     * at end-of-run) when the interval is non-zero. Tests may call
     * audits().check()/enforce() directly at any point.
     */
    InvariantRegistry &audits() { return audits_; }
    const InvariantRegistry &audits() const { return audits_; }

    /**
     * The interval time-series sampler, or nullptr when
     * config.sample_interval is 0 (the default). Created at
     * construction when sampling is enabled (CMPSIM_SAMPLE_CYCLES
     * overrides the config knob); run() feeds it every interval and
     * flushes a final partial interval at end-of-run.
     */
    IntervalSampler *sampler() { return sampler_.get(); }
    const IntervalSampler *sampler() const { return sampler_.get(); }

    /** Sum a per-core counter family ("l1d.<cpu>.<leaf>"). */
    std::uint64_t sumL1Counter(const char *side, const char *leaf) const;

    // ---- statistical sampling (DESIGN.md §14) ----

    /**
     * Budgeted functional fast-forward between detailed intervals:
     * drain every event queue to quiescence (functional execution
     * must not race pending fills holding tag references) — a
     * checkpoint's quiesced point when checkpointing is armed — then
     * advance every core @p instr_per_core instructions through the
     * FastForwardEngine with no event timing. Unlike warmup() this
     * does NOT reset stats — the SamplingController brackets detailed
     * intervals with snapshots instead — and it requires an armed
     * config.sampling plan (the engine only exists then). Only the
     * last @p warm_per_core instructions (clamped; default all) run
     * in functional-warming mode; any prefix runs in pure skip mode
     * (see FastForwardEngine::advance()).
     */
    void fastForward(std::uint64_t instr_per_core,
                     std::uint64_t warm_per_core =
                         ~static_cast<std::uint64_t>(0));

    /**
     * Leader half of shared-prefix fast-forward (DESIGN.md §14): run
     * a pure-skip fastForward(instr_per_core, 0) while journaling
     * every value-store mutation, and return the journal. A pure-skip
     * phase touches no cache, prefetcher or timing state, so its
     * outcome (workload cursor + value-store delta) is identical for
     * every configuration of the same workload and seed — lockstep
     * twins can adopt it instead of re-executing the stream.
     */
    std::vector<ValueStore::Op>
    fastForwardJournaled(std::uint64_t instr_per_core);

    /**
     * Follower half: jump this system over a pure-skip phase @p
     * leader just executed via fastForwardJournaled() — drain to
     * quiescence, copy the per-core workload cursors and skip
     * counters, and replay the value-store journal. Requires lockstep
     * twins: same workload, seed and core count, and this system at
     * exactly instr_per_core retired instructions behind the leader
     * (asserted per core). The end is a checkpoint's quiesced point,
     * so a checkpoint never needs to replay an adoption.
     */
    void adoptSkip(const CmpSystem &leader,
                   const std::vector<ValueStore::Op> &ops,
                   std::uint64_t instr_per_core);

    /**
     * Sampling-plan progress (interval cursor, per-interval metric
     * samples, accumulated stat deltas). Lives here rather than in
     * the SamplingController so CheckpointCodec saves it with every
     * snapshot: a mid-plan autosave restores to the exact
     * mid-interval point and the finished run's report is
     * byte-identical to the uninterrupted one.
     */
    SampleState &sampleState() { return sample_state_; }
    const SampleState &sampleState() const { return sample_state_; }

    /**
     * Host threads a pure-skip window may use, this thread included
     * (FastForwardEngine::setSkipThreads; 0 = hardware concurrency).
     * A skip's outcome is the same at every count. No-op when
     * config.sampling is not armed.
     */
    void
    setSkipThreads(unsigned threads)
    {
        if (ff_engine_ != nullptr)
            ff_engine_->setSkipThreads(threads);
    }

    /** The fast-forward engine, or nullptr when config.sampling is
     *  not armed. */
    FastForwardEngine *fastForwardEngine() { return ff_engine_.get(); }

    /**
     * CPI-stack and miss-genealogy statistics (config.cpi_stack /
     * CMPSIM_CPISTACK, DESIGN.md §9): per-core "cpi.<n>.<leaf>" cycle
     * counters plus "genealogy.*" journey counters and per-segment
     * latency histograms. A *separate* registry: stats() dumps feed
     * determinism fingerprints that must stay byte-identical whether
     * or not the attribution layer is armed. Empty when the layer is
     * off.
     */
    StatRegistry &cpiStats() { return cpi_registry_; }
    const StatRegistry &cpiStats() const { return cpi_registry_; }

    /** Per-core CPI account, or nullptr when the layer is off. */
    const CpiAccount *cpiAccount(unsigned cpu) const
    {
        return cpu < cpi_.size() ? cpi_[cpu].get() : nullptr;
    }

    /** The miss-genealogy journal, or nullptr when the layer is off. */
    const MissJournal *missJournal() const { return miss_journal_.get(); }

    // ---- checkpoint/restore (DESIGN.md §13) ----

    /**
     * The current state as one versioned, CRC-protected container:
     * the sections captured at the last quiesced point, the calls
     * made since, and the sampling progress (src/ckpt/checkpoint.h).
     * A system built from the same (config, workload) restored from
     * these bytes finishes the run with byte-identical stat dumps.
     * Throws ConfigError("config.ckpt") when checkpointing was not
     * armed at construction (CMPSIM_CKPT, CMPSIM_RESTORE or
     * ckpt::setArmed).
     */
    std::string checkpointBytes();

    /**
     * Restore the state captured by checkpointBytes() into this
     * freshly constructed system by decoding its quiesced sections and
     * replaying the logged calls. Throws ckpt::CorruptCheckpoint on
     * structural damage and ConfigError("config.restore") when the
     * checkpoint's fingerprint or format version does not match.
     */
    void restoreCheckpoint(std::string_view bytes);

    /** True when this system resumed from a checkpoint (warmup is a
     *  no-op then: the restored state already includes it). */
    bool restoredFromCheckpoint() const { return restored_; }

  private:
    friend class CheckpointCodec;

    /**
     * Timed-run loop state, promoted from run() locals so a run that
     * stopped early (a replayed run ending where its checkpoint was
     * taken) resumes toward the *original* retirement target with the
     * same periodic-task cursors.
     */
    struct RunState
    {
        bool active = false; ///< a timed run is in progress
        Cycle start = 0;
        std::uint64_t start_retired = 0;
        std::uint64_t target = 0;
        Cycle next_sample = 0;
        Cycle next_audit = kCycleNever;
        Cycle next_obs = kCycleNever;
        Cycle last_progress = 0;
        std::uint64_t last_retired = 0;
    };

    /** A quiesced point: when checkpointing is armed, capture the
     *  quiesced sections and clear the call log. */
    void markQuiesced();

    /** Append @p call to the call log when checkpointing is armed. */
    void logCall(LoggedCall call);

    /** Re-execute @p log after its quiesced sections were decoded,
     *  with autosave, tracing and fault sites muted. */
    void replay(const CallLog &log);

    /** Fill run_state_ for a fresh run; no-op when resuming (the
     *  restored cursors already point mid-run). */
    void initRunState(std::uint64_t instr_per_core);

    void buildSystem();
    void resetAllStats();
    /** One-line-per-item progress diagnostic for watchdog/deadlock
     *  reports: event-queue depth and horizon plus per-core state. */
    std::string runDiagnostic(Cycle now) const;

    /** Close every core's open attribution window at @p now so the
     *  CPI leaves sum to exactly the elapsed cycles (end-of-run). */
    void cpiFlush(Cycle now);

    SystemConfig config_;
    WorkloadParams workload_;

    EventQueue eq_;
    FpcCompressor fpc_;
    std::unique_ptr<ValueStore> values_;
    std::unique_ptr<MainMemory> memory_;
    std::unique_ptr<L2Cache> l2_;
    std::vector<std::unique_ptr<L1Cache>> l1i_;
    std::vector<std::unique_ptr<L1Cache>> l1d_;
    std::vector<std::unique_ptr<StridePrefetcher>> pf_l1i_;
    std::vector<std::unique_ptr<StridePrefetcher>> pf_l1d_;
    std::vector<std::unique_ptr<StridePrefetcher>> pf_l2_;
    std::vector<std::unique_ptr<AdaptivePrefetchController>> ad_l1i_;
    std::vector<std::unique_ptr<AdaptivePrefetchController>> ad_l1d_;
    std::unique_ptr<AdaptivePrefetchController> l2_adaptive_;
    std::vector<std::unique_ptr<SyntheticWorkload>> streams_;
    std::vector<std::unique_ptr<CoreModel>> cores_;

    std::unique_ptr<MissJournal> miss_journal_;     ///< see cpiStats()
    std::vector<std::unique_ptr<CpiAccount>> cpi_;  ///< per core

    StatRegistry registry_;
    StatRegistry cpi_registry_;  ///< see cpiStats()
    InvariantRegistry audits_;
    Average ratio_samples_;
    std::unique_ptr<IntervalSampler> sampler_;

    std::unique_ptr<FastForwardEngine> ff_engine_; ///< see fastForward()
    SampleState sample_state_;                     ///< see sampleState()

    ckpt::Settings ckpt_settings_;
    bool ckpt_armed_ = false; ///< decided once, at construction
    bool replaying_ = false;  ///< inside replay()
    /** Where a replayed run() stops, leaving run_state_ active (the
     *  cycle an interrupted run was saved at; kCycleNever = finish). */
    Cycle replay_stop_ = kCycleNever;
    std::vector<ckpt::Section> quiesced_; ///< see markQuiesced()
    std::vector<LoggedCall> calls_;       ///< calls since quiesced_
    RunState run_state_;
    bool restored_ = false;

    Cycle measured_cycles_ = 0;
    std::uint64_t measured_instructions_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_CORE_API_CMP_SYSTEM_H
