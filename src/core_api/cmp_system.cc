#include "src/core_api/cmp_system.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/audit/audits.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/cont_tag.h"
#include "src/common/sim_error.h"
#include "src/dram/dram_backend.h"
#include "src/obs/cpi_stack.h"
#include "src/obs/trace.h"
#include "src/sim/fault_injection.h"

namespace cmpsim {

namespace {
/** Cycles between effective-cache-size samples (Table 3 methodology:
 *  "periodically measuring the average effective cache size"). */
constexpr Cycle kRatioSampleInterval = 20000;

/** Functional warmup interleaves cores in chunks this large so the
 *  shared region and the L2 see a realistic interleaving. */
constexpr std::uint64_t kWarmupChunk = 2000;
} // namespace

CmpSystem::CmpSystem(const SystemConfig &config,
                     const WorkloadParams &workload)
    : config_(config), workload_(workload.scaled(config.scale))
{
    // CI's audit leg turns audits on for unmodified binaries:
    // CMPSIM_AUDIT=<cycles> sets the periodic-audit interval (and the
    // per-fill round-trip check); CMPSIM_AUDIT=0 forces audits off.
    // Empty counts as unset; anything else must parse strictly.
    if (const char *env = std::getenv("CMPSIM_AUDIT");
        env != nullptr && *env != '\0') {
        config_.audit_interval = parseKnobUint("CMPSIM_AUDIT", env);
        config_.audit_fill_roundtrip = config_.audit_interval != 0;
    }
    // Same pattern for the forward-progress watchdog: CMPSIM_WATCHDOG
    // overrides the cycle budget (0 disables it).
    if (const char *env = std::getenv("CMPSIM_WATCHDOG");
        env != nullptr && *env != '\0') {
        config_.watchdog_cycles = parseKnobUint("CMPSIM_WATCHDOG", env);
    }
    // And for interval time-series sampling: CMPSIM_SAMPLE_CYCLES
    // sets the period (0 disables).
    if (const char *env = std::getenv("CMPSIM_SAMPLE_CYCLES");
        env != nullptr && *env != '\0') {
        config_.sample_interval =
            parseKnobUint("CMPSIM_SAMPLE_CYCLES", env);
    }
    // Opt-in CPI-stack / miss-genealogy layer (DESIGN.md §9):
    // CMPSIM_CPISTACK arms it ("0" or empty leaves it off). Pure
    // observation — stats land in cpiStats(), never in stats().
    if (const char *env = std::getenv("CMPSIM_CPISTACK")) {
        config_.cpi_stack =
            *env != '\0' && std::strcmp(env, "0") != 0;
    }
    // Checkpoint/restore knobs (DESIGN.md §13). Arming is decided here,
    // once, for this system only: an armed system captures its
    // quiesced points and logs its calls from construction on.
    ckpt_settings_ = ckpt::Settings::fromEnv();
    ckpt_armed_ = ckpt_settings_.armed() || ckpt::armed();
    config_.validate();
    if (ckpt_settings_.armed() && config_.sample_interval > 0) {
        throw ConfigError(
            "config.ckpt",
            "checkpointing cannot be combined with interval sampling "
            "(CMPSIM_SAMPLE_CYCLES): sampler rows are not checkpointed");
    }
    if (ckpt_settings_.armed() && config_.cpi_stack) {
        throw ConfigError(
            "config.cpistack",
            "CPI-stack accounting cannot be combined with "
            "checkpoint/restore (CMPSIM_CKPT/CMPSIM_RESTORE): "
            "genealogy records and attribution windows are not "
            "checkpointed");
    }
    buildSystem();

    if (Tracer *tracer = Tracer::armed()) {
        // Label the sim-pid tracks so Perfetto renders names instead
        // of bare tids: tid 0 carries the uncore events, and each
        // core's miss journeys land on their own track.
        tracer->threadName(kTraceSimPid, 0, "uncore");
        if (config_.cpi_stack) {
            for (unsigned c = 0; c < config_.cores; ++c) {
                tracer->threadName(
                    kTraceSimPid, kJourneyTraceTidBase + c,
                    "core " + std::to_string(c) + " journeys");
            }
        }
    }

    if (config_.sample_interval > 0) {
        IntervalSampler::Shape shape;
        shape.cores = config_.cores;
        shape.link_bytes_per_cycle =
            config_.infinite_bandwidth
                ? 0.0
                : SystemConfig::bytesPerCycle(config_.pin_bandwidth_gbps);
        sampler_ = std::make_unique<IntervalSampler>(
            registry_, config_.sample_interval, shape);
        sampler_->addGauge("l2_compression_ratio",
                           [this] { return l2_->compressionRatio(); });
        sampler_->addGauge("l2_adaptive_counter", [this] {
            return l2_adaptive_ == nullptr
                       ? 0.0
                       : static_cast<double>(
                             l2_adaptive_->counterValue());
        });
        // Registered only when the banked backend is armed so the
        // fixed-path sample rows stay byte-identical to older runs.
        if (memory_->dram() != nullptr) {
            sampler_->addGauge("dram_row_hit_rate", [this] {
                return memory_->dram()->rowHitRate();
            });
        }
        sampler_->begin(eq_.now());
    }

    if (ckpt_settings_.armed()) {
        // Serialize, re-parse, re-serialize: any non-canonical byte
        // (unsorted map walk, uninitialised padding, stale memo) shows
        // up as a self-comparison mismatch long before a restore leg
        // would catch it.
        audits_.add("ckpt.roundtrip", [this](std::string &why) {
            CheckpointCodec codec(*this);
            const std::string once = codec.save();
            if (ckpt::transcode(once) != once) {
                why = "checkpoint re-encode is not byte-identical";
                return false;
            }
            return true;
        });
    }

    if (!ckpt_settings_.restore_path.empty()) {
        restoreCheckpoint(
            ckpt::loadWithFallback(ckpt_settings_.restore_path));
        ckpt::noteRestored();
    } else {
        markQuiesced(); // freshly constructed
    }
}

CmpSystem::~CmpSystem() = default;

void
CmpSystem::buildSystem()
{
    // Pre-size the kernel heap so mid-run event bursts never
    // reallocate: in-flight continuations are bounded by cores times
    // pipeline depth (each ROB slot holds at most one outstanding
    // completion, plus fetch/prefetch headroom absorbed by the bound).
    eq_.reserve(config_.cores * config_.coreParams().rob_entries);

    values_ = std::make_unique<ValueStore>(fpc_);
    memory_ =
        std::make_unique<MainMemory>(eq_, *values_, config_.memoryParams());
    l2_ = std::make_unique<L2Cache>(eq_, *values_, *memory_,
                                    config_.l2Params());

    const L1Params l1d_params = config_.l1Params();
    L1Params l1i_params = l1d_params;
    l1i_params.mshrs = 4; // sequential fetch + a few prefetches
    l1i_params.prefetch_headroom = 1;

    for (unsigned c = 0; c < config_.cores; ++c) {
        l1i_.push_back(
            std::make_unique<L1Cache>(eq_, *l2_, c, l1i_params));
        l1d_.push_back(
            std::make_unique<L1Cache>(eq_, *l2_, c, l1d_params));
    }

    l2_->setL1Invalidator([this](unsigned cpu, Addr line) {
        const bool d_dirty = l1d_[cpu]->invalidateLine(line);
        const bool i_dirty = l1i_[cpu]->invalidateLine(line);
        return d_dirty || i_dirty;
    });
    l2_->setL1Downgrader([this](unsigned cpu, Addr line) {
        l1d_[cpu]->downgradeLine(line);
        l1i_[cpu]->downgradeLine(line);
    });

    if (config_.prefetching) {
        for (unsigned c = 0; c < config_.cores; ++c) {
            pf_l1i_.push_back(std::make_unique<StridePrefetcher>(
                config_.l1PrefetcherParams()));
            pf_l1d_.push_back(std::make_unique<StridePrefetcher>(
                config_.l1PrefetcherParams()));
            ad_l1i_.push_back(
                std::make_unique<AdaptivePrefetchController>(
                    config_.l1_startup_prefetches,
                    config_.adaptive_prefetch));
            ad_l1d_.push_back(
                std::make_unique<AdaptivePrefetchController>(
                    config_.l1_startup_prefetches,
                    config_.adaptive_prefetch));
            l1i_[c]->setPrefetcher(pf_l1i_[c].get());
            l1d_[c]->setPrefetcher(pf_l1d_[c].get());
            l1i_[c]->setAdaptiveController(ad_l1i_[c].get());
            l1d_[c]->setAdaptiveController(ad_l1d_[c].get());
        }
        // One saturating counter for the shared L2 (Section 3), with
        // per-core L2 prefetch engines [7] (or one shared, ablation).
        l2_adaptive_ = std::make_unique<AdaptivePrefetchController>(
            config_.l2_startup_prefetches, config_.adaptive_prefetch);
        l2_->setAdaptiveController(l2_adaptive_.get());
        const unsigned engines =
            config_.shared_l2_prefetcher ? 1 : config_.cores;
        for (unsigned e = 0; e < engines; ++e) {
            pf_l2_.push_back(std::make_unique<StridePrefetcher>(
                config_.l2PrefetcherParams()));
        }
        for (unsigned c = 0; c < config_.cores; ++c) {
            l2_->setPrefetcher(
                c, pf_l2_[config_.shared_l2_prefetcher ? 0 : c].get());
        }
    }

    for (unsigned c = 0; c < config_.cores; ++c) {
        streams_.push_back(std::make_unique<SyntheticWorkload>(
            workload_, *values_, c, config_.seed));
        cores_.push_back(std::make_unique<CoreModel>(
            eq_, *l1i_[c], *l1d_[c], *values_, *streams_[c], c,
            config_.coreParams()));
    }

    if (config_.cpi_stack) {
        // CPI-stack / miss-genealogy layer (DESIGN.md §9): one journal
        // fed by the uncore timing layers plus one account per core.
        // All its stats land in cpi_registry_ so stats() dumps — and
        // the determinism fingerprints — never change when it's armed.
        const MemoryParams mp = config_.memoryParams();
        miss_journal_ = std::make_unique<MissJournal>(
            mp.link_bytes_per_cycle, mp.infinite_bandwidth);
        l2_->setJournal(miss_journal_.get());
        memory_->setJournal(miss_journal_.get());
        if (memory_->dram() != nullptr) {
            memory_->dram()->setReadObserver(
                [j = miss_journal_.get()](Addr line, Cycle svc_start,
                                          Cycle done, bool row_hit) {
                    j->onDramService(line, svc_start, done, row_hit);
                });
        }
        for (unsigned c = 0; c < config_.cores; ++c) {
            cpi_.push_back(std::make_unique<CpiAccount>(
                c, config_.coreParams().rob_entries,
                miss_journal_.get()));
            cores_[c]->setCpi(cpi_[c].get());
        }
        miss_journal_->registerStats(cpi_registry_, "genealogy");
        for (unsigned c = 0; c < config_.cores; ++c) {
            cpi_[c]->registerStats(cpi_registry_,
                                   "cpi." + std::to_string(c));
        }
        // Conservation: every attributed window's leaves must sum to
        // exactly the elapsed cycles it covered — checked per core.
        audits_.add("obs.cpi_conservation", [this](std::string &why) {
            for (auto &a : cpi_) {
                if (!a->conserved(why))
                    return false;
            }
            return true;
        });
    }

    if (config_.sampling.armed()) {
        // Statistical sampling (DESIGN.md §14): the fast-forward
        // engine exists only when a plan is armed so unsampled runs
        // register no extra stats and their dumps stay byte-identical.
        std::vector<CoreModel *> cores;
        std::vector<SyntheticWorkload *> streams;
        for (unsigned c = 0; c < config_.cores; ++c) {
            cores.push_back(cores_[c].get());
            streams.push_back(streams_[c].get());
        }
        ff_engine_ = std::make_unique<FastForwardEngine>(
            std::move(cores), std::move(streams), *values_, *l2_);
        ff_engine_->registerStats(registry_, "sample");
        // Conservation: functional execution must retire exactly the
        // budget handed out — a skipped or double-counted instruction
        // would silently bias every sampled metric.
        audits_.add("sample.conservation", [this](std::string &why) {
            return ff_engine_->conserved(why);
        });
    }

    // Stat registration.
    l2_->registerStats(registry_, "l2");
    memory_->registerStats(registry_, "mem");
    for (unsigned c = 0; c < config_.cores; ++c) {
        const std::string idx = std::to_string(c);
        l1i_[c]->registerStats(registry_, "l1i." + idx);
        l1d_[c]->registerStats(registry_, "l1d." + idx);
        cores_[c]->registerStats(registry_, "core." + idx);
        if (config_.prefetching) {
            pf_l1i_[c]->registerStats(registry_, "pf.l1i." + idx);
            pf_l1d_[c]->registerStats(registry_, "pf.l1d." + idx);
            ad_l1i_[c]->registerStats(registry_, "ad.l1i." + idx);
            ad_l1d_[c]->registerStats(registry_, "ad.l1d." + idx);
        }
    }
    if (config_.prefetching) {
        for (unsigned e = 0; e < pf_l2_.size(); ++e) {
            pf_l2_[e]->registerStats(registry_,
                                     "pf.l2." + std::to_string(e));
        }
        l2_adaptive_->registerStats(registry_, "ad.l2");
    }

    // Invariant registration (DESIGN.md §6). Every component hangs its
    // named checks on the shared registry; run() enforces it
    // periodically when config_.audit_interval is set.
    registerEventQueueAudits(audits_, eq_, "eq");
    l2_->registerAudits(audits_, "l2");
    registerBandwidthResourceAudits(audits_, l2_->onchip(), "l2.onchip");
    registerPriorityLinkAudits(audits_, memory_->link(), "mem.link");
    memory_->registerAudits(audits_, "mem");
    for (unsigned c = 0; c < config_.cores; ++c) {
        const std::string idx = std::to_string(c);
        l1i_[c]->registerAudits(audits_, "l1i." + idx);
        l1d_[c]->registerAudits(audits_, "l1d." + idx);
        cores_[c]->registerAudits(audits_, "core." + idx);
    }
}

void
CmpSystem::resetAllStats()
{
    registry_.resetAll();
    memory_->resetStats();
    l2_->resetStats();
    for (unsigned c = 0; c < config_.cores; ++c) {
        l1i_[c]->resetStats();
        l1d_[c]->resetStats();
        cores_[c]->resetStats();
    }
    if (config_.prefetching) {
        for (auto &p : pf_l1i_)
            p->resetStats();
        for (auto &p : pf_l1d_)
            p->resetStats();
        for (auto &p : pf_l2_)
            p->resetStats();
        for (auto &a : ad_l1i_)
            a->resetStats();
        for (auto &a : ad_l1d_)
            a->resetStats();
        l2_adaptive_->resetStats();
    }
    ratio_samples_.reset();
    cpi_registry_.resetAll();
    for (auto &a : cpi_)
        a->resetStats();
    if (miss_journal_ != nullptr)
        miss_journal_->resetStats();
    if (sampler_ != nullptr)
        sampler_->onStatsReset(eq_.now());
}

void
CmpSystem::cpiFlush(Cycle now)
{
    for (auto &a : cpi_)
        a->flush(now);
}

void
CmpSystem::warmup(std::uint64_t instr_per_core)
{
    if (restored_) {
        // A restored system is already mid-measurement: the warmed
        // caches, reset-adjusted stats and run cursors all came from
        // the checkpoint. Re-warming would corrupt them.
        return;
    }
    logCall({LoggedCall::kWarmup, instr_per_core});
    Tracer *tracer = Tracer::armed();
    const std::uint64_t t0 = tracer != nullptr ? tracer->nowWallUs() : 0;

    l2_->setFunctionalMode(true);
    std::uint64_t done = 0;
    while (done < instr_per_core) {
        checkPointDeadline("warmup");
        const std::uint64_t chunk =
            std::min(kWarmupChunk, instr_per_core - done);
        for (auto &core : cores_)
            core->runFunctional(chunk);
        done += chunk;
    }
    l2_->setFunctionalMode(false);
    resetAllStats();

    if (tracer != nullptr) {
        tracer->completeWall("phase.warmup", t0, tracer->nowWallUs(),
                             {{"instr_per_core", instr_per_core}});
    }
}

namespace {

/** Counter tracks in the trace viewer for one sampler row. */
void
traceSampleRow(const IntervalSampler &sampler, const SampleRow &row)
{
    const DerivedMetrics m = sampler.derived(row);
    traceCounter("obs.ipc", row.t1, {{"ipc", m.ipc_total}});
    traceCounter("obs.miss_rates", row.t1,
                 {{"l1d", m.l1d_miss_rate}, {"l2", m.l2_miss_rate}});
    traceCounter("obs.link", row.t1,
                 {{"bytes_per_cycle", m.link_bytes_per_cycle}});
    if (!row.gauges.empty()) {
        traceCounter("obs.compression_ratio", row.t1,
                     {{"ratio", row.gauges[0]}});
    }
}

} // namespace

void
CmpSystem::run(std::uint64_t instr_per_core)
{
    Tracer *tracer = Tracer::armed();
    const std::uint64_t wall0 =
        tracer != nullptr ? tracer->nowWallUs() : 0;

    // Loop cursors live in run_state_ so a run can stop early and
    // resume; on a fresh run initRunState() fills them, on a resume
    // the values the replay left behind already point mid-measurement.
    if (!run_state_.active)
        logCall({LoggedCall::kRun, instr_per_core});
    initRunState(instr_per_core);
    const Cycle start = run_state_.start;
    const std::uint64_t start_retired = run_state_.start_retired;
    const std::uint64_t target = run_state_.target;

    Cycle now = eq_.now();
    Cycle next_sample = run_state_.next_sample;
    const Cycle audit_interval = config_.audit_interval;
    Cycle next_audit = run_state_.next_audit;
    const Cycle obs_interval =
        sampler_ != nullptr ? sampler_->interval() : 0;
    Cycle next_obs = run_state_.next_obs;
    std::uint64_t retired = 0;
    for (auto &core : cores_)
        retired += core->instructionsRetired();

    // Forward-progress watchdog: if no core retires an instruction for
    // watchdog_cycles simulated cycles, the run is livelocked (events
    // keep flowing but nothing completes) and we bail out with a
    // diagnosable WatchdogTimeout instead of spinning forever.
    const Cycle watchdog = config_.watchdog_cycles;
    Cycle last_progress = run_state_.last_progress;
    std::uint64_t last_retired = run_state_.last_retired;
    std::uint64_t iterations = 0;

    // Autosave cadence restarts from "now" on every run() entry (it is
    // wall-progress insurance, not simulated state, so it is not a
    // saved cursor). A replay never autosaves: it stops instead at
    // replay_stop_, the cycle its checkpoint was taken, at the same
    // point in the loop.
    const std::uint64_t ckpt_every =
        ckpt_settings_.autosaveArmed() ? ckpt_settings_.every : 0;
    Cycle next_ckpt = replaying_        ? replay_stop_
                      : ckpt_every > 0 ? now + ckpt_every
                                       : kCycleNever;

    while (retired < target) {
        if ((++iterations & 0x1ff) == 0)
            checkPointDeadline("run");

        Cycle next = eq_.nextEventCycle();
        for (auto &core : cores_)
            next = std::min(next, core->nextWake());
        if (next == kCycleNever) {
            cmpsim_panic("simulation deadlock: no events, no core "
                         "work\n%s",
                         runDiagnostic(now).c_str());
        }
        if (next < now)
            next = now;

        eq_.advanceTo(next);
        now = next;

        retired = 0;
        for (auto &core : cores_) {
            if (core->nextWake() <= now)
                core->tick(now);
            retired += core->instructionsRetired();
        }

        if (retired != last_retired) {
            last_retired = retired;
            last_progress = now;
        } else if (watchdog > 0 && now - last_progress >= watchdog) {
            traceInstant("watchdog.timeout", now,
                         {{"stalled_cycles", now - last_progress},
                          {"retired", retired}});
            throw WatchdogTimeout(
                "cmp_system.run",
                "no instruction retired in " + std::to_string(watchdog) +
                    " cycles (CMPSIM_WATCHDOG)\n" + runDiagnostic(now));
        }

        if (now >= next_sample) {
            ratio_samples_.sample(l2_->compressionRatio());
            next_sample = now + kRatioSampleInterval;
        }
        if (now >= next_audit) {
            audits_.enforce();
            next_audit = now + audit_interval;
        }
        if (now >= next_obs) {
            sampler_->sampleAt(now);
            if (traceEnabled() && !sampler_->rows().empty())
                traceSampleRow(*sampler_, sampler_->rows().back());
            next_obs = now + obs_interval;
        }
        if (now >= next_ckpt) {
            run_state_.next_sample = next_sample;
            run_state_.next_audit = next_audit;
            run_state_.next_obs = next_obs;
            run_state_.last_progress = last_progress;
            run_state_.last_retired = last_retired;
            if (replaying_)
                return; // run_state_ stays active: resumable
            ckpt::atomicSave(ckpt_settings_.save_path, checkpointBytes());
            next_ckpt = now + ckpt_every;
        }
    }

    ratio_samples_.sample(l2_->compressionRatio());
    if (sampler_ != nullptr) {
        // Flush the final partial interval so short runs still
        // produce a non-empty time-series.
        sampler_->sampleAt(now);
        if (traceEnabled() && !sampler_->rows().empty())
            traceSampleRow(*sampler_, sampler_->rows().back());
    }
    if (!cpi_.empty()) {
        // Close every open attribution window so the CPI leaves sum to
        // exactly the measured cycles before the end-of-run audit.
        cpiFlush(now);
    }
    if (audit_interval > 0)
        audits_.enforce(); // end-of-simulation audit
    run_state_.active = false;
    measured_cycles_ = now - start;
    measured_instructions_ = retired - start_retired;

    if (tracer != nullptr) {
        tracer->completeWall("phase.measure", wall0, tracer->nowWallUs(),
                             {{"instr_per_core", instr_per_core},
                              {"cycles", measured_cycles_}});
    }
}

void
CmpSystem::initRunState(std::uint64_t instr_per_core)
{
    if (run_state_.active)
        return;
    RunState rs;
    rs.active = true;
    rs.start = eq_.now();
    for (auto &core : cores_)
        rs.start_retired += core->instructionsRetired();
    rs.target = rs.start_retired + instr_per_core * config_.cores;
    rs.next_sample = rs.start + kRatioSampleInterval;
    rs.next_audit = config_.audit_interval > 0
                        ? rs.start + config_.audit_interval
                        : kCycleNever;
    const Cycle obs_interval =
        sampler_ != nullptr ? sampler_->interval() : 0;
    rs.next_obs =
        obs_interval > 0 ? rs.start + obs_interval : kCycleNever;
    rs.last_progress = rs.start;
    rs.last_retired = rs.start_retired;
    run_state_ = rs;
}

void
CmpSystem::fastForward(std::uint64_t instr_per_core,
                       std::uint64_t warm_per_core)
{
    cmpsim_assert(ff_engine_ != nullptr);
    Tracer *tracer = Tracer::armed();
    const std::uint64_t t0 = tracer != nullptr ? tracer->nowWallUs() : 0;

    // Drain to quiescence first: functional accesses evict lines, and
    // a pending fill completing into an evicted tag would corrupt the
    // set. The drain terminates because pending events only complete
    // existing work (DRAM refresh is lazy, cores create new events
    // only via tick(), which the drain never calls).
    eq_.drain();
    markQuiesced();
    logCall({LoggedCall::kFastForward, instr_per_core, warm_per_core});

    ff_engine_->advance(instr_per_core, warm_per_core);
    sample_state_.ff_instructions +=
        instr_per_core * static_cast<std::uint64_t>(config_.cores);

    if (tracer != nullptr) {
        tracer->completeWall("phase.fastforward", t0, tracer->nowWallUs(),
                             {{"instr_per_core", instr_per_core}});
    }
}

std::vector<ValueStore::Op>
CmpSystem::fastForwardJournaled(std::uint64_t instr_per_core)
{
    values_->startJournal();
    fastForward(instr_per_core, 0);
    return values_->takeJournal();
}

void
CmpSystem::adoptSkip(const CmpSystem &leader,
                     const std::vector<ValueStore::Op> &ops,
                     std::uint64_t instr_per_core)
{
    cmpsim_assert(ff_engine_ != nullptr);
    cmpsim_assert(config_.cores == leader.config_.cores);
    cmpsim_assert(config_.seed == leader.config_.seed);
    cmpsim_assert(workload_.name == leader.workload_.name);

    // Same pre-condition as fastForward(): functional state must not
    // change under pending timed events.
    eq_.drain();

    // The timed detail windows between skips spend a *total* budget,
    // so per-core retirement drifts across configurations by up to
    // one window; adoption is a resync to the leader's cursors, and
    // the drift bounds the per-core gap check inside.
    const std::uint64_t slack =
        config_.sampling.detail_per_core *
        static_cast<std::uint64_t>(config_.cores);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        streams_[i]->copyStateFrom(*leader.streams_[i]);
        cores_[i]->adoptSkip(*leader.cores_[i], instr_per_core, slack);
    }
    values_->applyOps(ops);

    const std::uint64_t budget =
        instr_per_core * static_cast<std::uint64_t>(config_.cores);
    ff_engine_->noteAdopted(budget);
    sample_state_.ff_instructions += budget;
    markQuiesced();
}

std::string
CmpSystem::checkpointBytes()
{
    CheckpointCodec codec(*this);
    return codec.save();
}

void
CmpSystem::restoreCheckpoint(std::string_view bytes)
{
    CheckpointCodec codec(*this);
    codec.restore(bytes);
    restored_ = true;
    ckpt_armed_ = true; // its later snapshots extend the restored log
}

void
CmpSystem::markQuiesced()
{
    if (!ckpt_armed_ || replaying_)
        return;
    quiesced_ = CheckpointCodec(*this).captureQuiesced();
    calls_.clear();
}

void
CmpSystem::logCall(LoggedCall call)
{
    if (ckpt_armed_ && !replaying_)
        calls_.push_back(call);
}

void
CmpSystem::replay(const CallLog &log)
{
    // The saved run already passed every fault site and trace probe on
    // the way to its checkpoint; a resumed run must not pass them
    // again.
    const FaultMuteGuard no_faults;
    const TraceMuteGuard no_trace;
    replaying_ = true;
    for (std::size_t i = 0; i < log.calls.size(); ++i) {
        const LoggedCall &c = log.calls[i];
        switch (c.kind) {
          case LoggedCall::kWarmup:
            warmup(c.instr);
            break;
          case LoggedCall::kFastForward:
            fastForward(c.instr, c.warm);
            break;
          case LoggedCall::kRun:
            replay_stop_ = i + 1 == log.calls.size() ? log.interrupted_at
                                                     : kCycleNever;
            run(c.instr);
            break;
        }
    }
    replaying_ = false;
    // A replay that finishes the run the checkpoint interrupted has
    // diverged from the saved run; resuming would silently measure a
    // different one.
    if (log.interrupted_at != kCycleNever && !run_state_.active) {
        throw InvariantError("ckpt.replay",
                             "replayed run() finished before cycle " +
                                 std::to_string(log.interrupted_at) +
                                 ", where its checkpoint was taken");
    }
    calls_ = log.calls;
}

std::string
CmpSystem::runDiagnostic(Cycle now) const
{
    std::string out = "  now=" + std::to_string(now) +
                      " eq.size=" + std::to_string(eq_.size());
    const Cycle horizon = eq_.nextEventCycle();
    out += " eq.next=";
    out += horizon == kCycleNever ? "never" : std::to_string(horizon);
    for (unsigned c = 0; c < config_.cores; ++c) {
        const Cycle wake = cores_[c]->nextWake();
        out += "\n  core." + std::to_string(c) + ": nextWake=";
        out += wake == kCycleNever ? "never" : std::to_string(wake);
        out += " retired=" +
               std::to_string(cores_[c]->instructionsRetired());
    }
    return out;
}

double
CmpSystem::bandwidthGBps() const
{
    if (measured_cycles_ == 0)
        return 0.0;
    const double bytes_per_cycle =
        static_cast<double>(memory_->link().totalBytes()) /
        static_cast<double>(measured_cycles_);
    return bytes_per_cycle * 5.0; // 5 GHz, GB = 1e9 bytes
}

std::uint64_t
CmpSystem::sumL1Counter(const char *side, const char *leaf) const
{
    std::uint64_t total = 0;
    for (unsigned c = 0; c < config_.cores; ++c) {
        const std::string name = std::string(side) + "." +
                                 std::to_string(c) + "." + leaf;
        total += registry_.counter(name);
    }
    return total;
}

} // namespace cmpsim
