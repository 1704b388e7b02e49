/**
 * @file
 * Process-level checkpoint switches (DESIGN.md §13), defined in
 * controller.cc.
 *
 * setArmed() arms checkpointing for CmpSystems constructed while it
 * is on, in addition to the per-system CMPSIM_CKPT / CMPSIM_RESTORE
 * knobs: harnesses that call checkpointBytes() directly (tests, the
 * benchmark's round trip) use it. Each system decides once, at
 * construction; an armed system captures its quiesced sections and
 * logs its calls (src/ckpt/checkpoint.h), an unarmed one never does.
 */

#ifndef CMPSIM_CKPT_CONT_TAG_H
#define CMPSIM_CKPT_CONT_TAG_H

namespace cmpsim::ckpt {

/** True while setArmed(true) is in effect for this process. */
bool armed();

/** Arm/disarm checkpointing for systems constructed from now on. */
void setArmed(bool on);

/**
 * Record (thread-locally) that a CmpSystem on this thread was restored
 * from a checkpoint; consumed by the parallel runner to report the
 * point as Restored rather than freshly run.
 */
void noteRestored();

/** Return and clear this thread's restored-from-checkpoint flag. */
bool consumeRestoredFlag();

} // namespace cmpsim::ckpt

#endif // CMPSIM_CKPT_CONT_TAG_H
