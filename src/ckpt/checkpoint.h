/**
 * @file
 * The checkpoint codec (DESIGN.md §13): bit-exact serialization and
 * restoration of a complete CmpSystem.
 *
 * save() walks every component the simulation mutates — the event
 * queue (heap + same-cycle FIFO, written as one (when, seq)-sorted
 * list so the bytes do not depend on heap layout),
 * L1/L2 tag arrays and MSHRs, the priority link's class queues and
 * in-flight transfer, the banked-DRAM channels when armed, prefetcher
 * filter/stream tables, adaptive counters, workload RNG and cursor
 * state, the value store, and the full stat registry — into named,
 * individually CRC'd sections (src/ckpt/ckpt_io.h).
 *
 * Pending closures are serialized through their continuation tags
 * (src/ckpt/cont_tag.h); restore() rebuilds each closure against the
 * restored component graph from its tag chain. A save that encounters
 * a live closure with no tag throws ConfigError("config.ckpt") — that
 * means a scheduling site was added without a tag, and a silent save
 * would drop work.
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
#include <functional>
#include <string>
#include <string_view>

#include "src/ckpt/ckpt_io.h"
#include "src/common/types.h"

namespace cmpsim {

class CmpSystem;
class DecoupledSet;
class L2Cache;
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

/** Serializes/restores a CmpSystem; friend of every stateful class. */
class CheckpointCodec
{
  public:
    explicit CheckpointCodec(CmpSystem &sys) : sys_(sys) {}

    /** Full checkpoint container (header + sections + CRCs). */
    std::string save();

    /** Restore @p bytes into the freshly built system. */
    void restore(std::string_view bytes);

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

  private:
    // ---- section writers ----
    std::string saveSystem();
    std::string saveEvents();
    std::string saveStats();
    std::string saveCores();
    std::string saveL1s();
    std::string saveL2();
    std::string saveLink();
    std::string saveDram();
    std::string saveValues();
    std::string savePrefetch();
    std::string saveWorkload();
    std::string saveSample();

    // ---- section readers ----
    void loadSystem(ckpt::Decoder &d);
    void loadEvents(ckpt::Decoder &d);
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

    // ---- continuation factory: rebuild closures from tag chains ----

    /** Event-queue callback for an event-kind frame. */
    std::function<void()> eventFromTag(const ckpt::Tag &t);

    /** void(Cycle) completion (core / memory-pipeline / link-deliver
     *  kinds); null tag -> null function. */
    std::function<void(Cycle)> doneFromTag(const ckpt::Tag &t);

    /** L2 response callback (kL1Fill); null tag -> null function. */
    std::function<void(Cycle, bool, bool)> l2DoneFromTag(
        const ckpt::Tag &t);

    /** Throw ConfigError("config.ckpt") for an untagged live closure
     *  found during save (@p what names the site). */
    [[noreturn]] static void untagged(const char *what);

    // ---- shared structure helpers ----
    static void encodeSet(ckpt::Encoder &e, const DecoupledSet &set);
    static void decodeSet(ckpt::Decoder &d, DecoupledSet &set);
    static void decodePrefetcher(ckpt::Decoder &d, StridePrefetcher &pf);

    CmpSystem &sys_;
};

} // namespace cmpsim

#endif // CMPSIM_CKPT_CHECKPOINT_H
