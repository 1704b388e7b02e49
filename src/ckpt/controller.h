/**
 * @file
 * Checkpoint controller (DESIGN.md §13): environment-knob parsing,
 * crash-safe atomic snapshot writes and corruption-tolerant loading.
 *
 * Knobs:
 *
 *     CMPSIM_CKPT=<path>:every<N>   autosave the full simulator state
 *                                   to <path> every N timed cycles
 *     CMPSIM_RESTORE=<path>         resume from <path> instead of
 *                                   running from cycle 0
 *
 * Autosave is atomic and keeps one generation of history: the new
 * snapshot is written to <path>.tmp, the previous snapshot rotates to
 * <path>.prev, and the temp file renames over <path> — so a crash (or
 * SIGKILL) at any instant leaves either a complete current snapshot, a
 * complete previous snapshot, or both. loadWithFallback() mirrors
 * that: structural corruption in <path> (bad magic, truncation, CRC
 * mismatch) falls back to <path>.prev; a *well-formed* checkpoint with
 * the wrong format version or pointSpec fingerprint is refused with
 * ConfigError — that file is not damaged, it is simply not a resume
 * point for this run, and silently falling back would resume from
 * stale state.
 *
 * Fault-injection sites: "ckpt.save" (entry of atomicSave) and
 * "ckpt.load" (entry of loadWithFallback), so chaos tests can kill a
 * save mid-rotation or fail a load deterministically.
 */

#ifndef CMPSIM_CKPT_CONTROLLER_H
#define CMPSIM_CKPT_CONTROLLER_H

#include <cstdint>
#include <string>

namespace cmpsim::ckpt {

/** Parsed checkpoint/restore knobs for one CmpSystem. */
struct Settings
{
    std::string save_path;   ///< empty = autosave disabled
    std::uint64_t every = 0; ///< timed cycles between autosaves
    std::string restore_path; ///< empty = fresh run

    /** True when run() should write periodic snapshots. */
    bool
    autosaveArmed() const
    {
        return !save_path.empty() && every > 0;
    }

    /** True when the system must capture quiesced points and log
     *  its calls (either knob set). */
    bool
    armed() const
    {
        return !save_path.empty() || !restore_path.empty();
    }

    /**
     * Parse CMPSIM_CKPT / CMPSIM_RESTORE. Malformed CMPSIM_CKPT
     * (missing ":every<N>", empty path, zero/garbage interval) throws
     * ConfigError with context "config.ckpt".
     */
    static Settings fromEnv();

    /** Parse one CMPSIM_CKPT-style spec ("<path>:every<N>"). */
    static Settings parseCkptSpec(const std::string &spec);
};

/**
 * Crash-safe snapshot write: @p bytes go to "<path>.tmp", the current
 * "<path>" (if any) rotates to "<path>.prev", then the temp file
 * renames over "<path>". Throws SimError(Internal, "ckpt.save") when
 * the filesystem refuses. Fault site: "ckpt.save".
 */
void atomicSave(const std::string &path, const std::string &bytes);

/**
 * Read a checkpoint, tolerating a corrupt current snapshot: returns
 * the raw bytes of "<path>" if they parse as a structurally valid
 * container, otherwise the bytes of "<path>.prev". A good-CRC file
 * with an unsupported format version throws ConfigError (context
 * "config.restore") without falling back; when neither file yields a
 * valid container, throws ConfigError naming both candidates.
 * Fault site: "ckpt.load".
 */
std::string loadWithFallback(const std::string &path);

} // namespace cmpsim::ckpt

#endif // CMPSIM_CKPT_CONTROLLER_H
