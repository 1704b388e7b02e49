/**
 * @file
 * The checkpoint codec (DESIGN.md §13): bit-exact serialization and
 * restoration of a CmpSystem by quiesced snapshot plus replay.
 *
 * A checkpoint has three parts:
 *
 *  - The quiesced sections, captured at the system's last quiesced
 *    instant Q: construction, the drain at the start of
 *    fastForward(), or the end of adoptSkip(). At Q no work is in
 *    flight — no event, MSHR, link message or DRAM request — so the
 *    sections hold only plain data: L1/L2 tag arrays, bank and link
 *    occupancy, DRAM bank state, prefetcher tables, adaptive
 *    counters, workload RNG and cursors, the value store, and the
 *    full stat registry. captureQuiesced() refuses pending work with
 *    ConfigError("config.ckpt").
 *  - The "log" section: the warmup() / run() / fastForward() calls
 *    made since Q, plus the cycle an interrupted run() stopped at.
 *  - The "sample" section (sampled runs only): the SampleState at
 *    save time.
 *
 * restore() decodes Q into a freshly built system and replays the log
 * with autosave, tracing and fault sites muted; the run loop and the
 * sampling controller then resume from the in-memory state the replay
 * left behind. Replay is exact because a run is a pure function of
 * (config, seed) and the calls it was given — the property the
 * determinism gate checks.
 *
 * The container's fingerprint field binds a checkpoint to the
 * behavioural (config, workload) pair that produced it; restore()
 * refuses a mismatch with ConfigError("config.restore"). The watchdog
 * budget is excluded — it never changes simulated results, so a
 * checkpoint restores under any budget.
 */

#ifndef CMPSIM_CKPT_CHECKPOINT_H
#define CMPSIM_CKPT_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/ckpt/ckpt_io.h"
#include "src/common/types.h"

namespace cmpsim {

class CmpSystem;
class DecoupledSet;
class StridePrefetcher;
class ValueStore;
struct SystemConfig;
struct WorkloadParams;

/**
 * FNV-1a fingerprint of the behavioural identity of a run: every
 * SystemConfig field that can change simulated results (including the
 * DRAM backend spec, the seed, and the audit/sample intervals, which
 * perturb event order) plus the workload's full parameter block.
 * Excludes watchdog_cycles (a livelock bound, not simulated
 * machine).
 */
std::uint64_t checkpointFingerprint(const SystemConfig &config,
                                    const WorkloadParams &workload);

/** One CmpSystem call recorded in a checkpoint's log section. */
struct LoggedCall
{
    enum Kind : std::uint8_t
    {
        kWarmup = 1,      ///< warmup(instr)
        kRun = 2,         ///< run(instr)
        kFastForward = 3, ///< fastForward(instr, warm)
    };
    Kind kind = kRun;
    std::uint64_t instr = 0;
    std::uint64_t warm = 0; ///< kFastForward only
};

/** A decoded log section. */
struct CallLog
{
    std::vector<LoggedCall> calls;
    /** The cycle the last call, an unfinished run(), stopped at;
     *  kCycleNever when every call finished. */
    Cycle interrupted_at = kCycleNever;
};

/** Serializes/restores a CmpSystem; friend of every stateful class. */
class CheckpointCodec
{
  public:
    explicit CheckpointCodec(CmpSystem &sys) : sys_(sys) {}

    /**
     * Encode the quiesced sections of the system as it stands now.
     * Throws ConfigError("config.ckpt") naming the pending work when
     * the system is not quiesced.
     */
    std::vector<ckpt::Section> captureQuiesced();

    /** Pending work that rules out a quiesced capture, one item per
     *  line ("" when quiesced): events, MSHRs, link messages, DRAM
     *  requests, an unfinished run(). */
    std::string pendingWork() const;

    /** Full checkpoint container: the quiesced sections, the call
     *  log, and the sample state. Throws ConfigError("config.ckpt")
     *  when checkpointing is not armed for this system. */
    std::string save();

    /** Restore @p bytes into the freshly built system: decode the
     *  quiesced sections, replay the log, then load the sample
     *  state. */
    void restore(std::string_view bytes);

    /** Decode a "log" section payload. */
    static CallLog decodeLog(std::string_view payload);

    /** The "values" section body: line count, then (address, 64 data
     *  bytes) per line in ascending address order, so the bytes do not
     *  depend on the store's internal layout. */
    static void encodeValues(ckpt::Encoder &e, const ValueStore &vs);
    /** Replace @p vs's contents with an encodeValues() body. */
    static void decodeValues(ckpt::Decoder &d, ValueStore &vs);

    /** A prefetcher's filter, stream and recent-miss tables plus its
     *  tick, field by field (the "prefetch" section's per-engine body). */
    static void encodePrefetcher(ckpt::Encoder &e,
                                 const StridePrefetcher &pf);
    /** Replace @p pf's tables with an encodePrefetcher() body. */
    static void decodePrefetcher(ckpt::Decoder &d, StridePrefetcher &pf);

  private:
    // ---- section writers ----
    std::string saveSystem();
    std::string saveStats();
    std::string saveCores();
    std::string saveL1s();
    std::string saveL2();
    std::string saveLink();
    std::string saveDram();
    std::string saveValues();
    std::string savePrefetch();
    std::string saveWorkload();
    std::string saveLog();
    std::string saveSample();

    // ---- section readers ----
    void loadSystem(ckpt::Decoder &d);
    void loadStats(ckpt::Decoder &d);
    void loadCores(ckpt::Decoder &d);
    void loadL1s(ckpt::Decoder &d);
    void loadL2(ckpt::Decoder &d);
    void loadLink(ckpt::Decoder &d);
    void loadDram(ckpt::Decoder &d);
    void loadValues(ckpt::Decoder &d);
    void loadPrefetch(ckpt::Decoder &d);
    void loadWorkload(ckpt::Decoder &d);
    void loadSample(ckpt::Decoder &d);

    // ---- shared structure helpers ----
    static void encodeSet(ckpt::Encoder &e, const DecoupledSet &set);
    static void decodeSet(ckpt::Decoder &d, DecoupledSet &set);

    CmpSystem &sys_;
};

} // namespace cmpsim

#endif // CMPSIM_CKPT_CHECKPOINT_H
