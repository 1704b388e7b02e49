#include "src/ckpt/controller.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/ckpt/ckpt_io.h"
#include "src/ckpt/cont_tag.h"
#include "src/common/sim_error.h"
#include "src/sim/fault_injection.h"

namespace cmpsim::ckpt {

namespace {

// Process-wide arming flag, written only by setArmed(). A CmpSystem
// reads it once, at construction, and keeps its own decision.
std::atomic<bool> g_armed{false};

thread_local bool t_restored = false;

/** Whole-file read; empty optional-style: throws CorruptCheckpoint
 *  when the file cannot be opened (missing counts as damage so the
 *  caller's .prev fallback engages — a SIGKILL between the two
 *  renames of atomicSave leaves no current snapshot at all). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        throw CorruptCheckpoint("cannot open checkpoint " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad())
        throw CorruptCheckpoint("read error on checkpoint " + path);
    return std::move(buf).str();
}

} // namespace

bool
armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

void
setArmed(bool on)
{
    g_armed.store(on, std::memory_order_relaxed);
}

void
noteRestored()
{
    t_restored = true;
}

bool
consumeRestoredFlag()
{
    const bool was = t_restored;
    t_restored = false;
    return was;
}

Settings
Settings::parseCkptSpec(const std::string &spec)
{
    Settings s;
    const std::string marker = ":every";
    const auto pos = spec.rfind(marker);
    if (pos == std::string::npos || pos == 0) {
        throw ConfigError("config.ckpt",
                          "CMPSIM_CKPT must be <path>:every<N>, got \"" +
                              spec + "\"");
    }
    s.save_path = spec.substr(0, pos);
    s.every = parseKnobUint("CMPSIM_CKPT",
                            spec.substr(pos + marker.size()),
                            "config.ckpt");
    if (s.every == 0) {
        throw ConfigError("config.ckpt",
                          "CMPSIM_CKPT interval must be non-zero");
    }
    return s;
}

Settings
Settings::fromEnv()
{
    Settings s;
    if (const char *env = std::getenv("CMPSIM_CKPT");
        env != nullptr && *env != '\0') {
        s = parseCkptSpec(env);
    }
    if (const char *env = std::getenv("CMPSIM_RESTORE");
        env != nullptr && *env != '\0') {
        s.restore_path = env;
    }
    return s;
}

void
atomicSave(const std::string &path, const std::string &bytes)
{
    faultSite("ckpt.save");
    const std::string tmp = path + ".tmp";
    const std::string prev = path + ".prev";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out.is_open()) {
            throw SimError(ErrorKind::Internal, "ckpt.save",
                           "cannot open " + tmp + " for writing");
        }
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        if (!out.good()) {
            throw SimError(ErrorKind::Internal, "ckpt.save",
                           "write failed on " + tmp);
        }
    }
    // Rotate: current snapshot becomes the fallback generation, then
    // the fresh one takes its place. Each step is a single rename, so
    // a kill at any point leaves a complete snapshot under at least
    // one of the two names. The first rename's failure is ignored on
    // purpose — there is nothing to rotate on the very first save.
    std::rename(path.c_str(), prev.c_str());
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        throw SimError(ErrorKind::Internal, "ckpt.save",
                       "cannot rename " + tmp + " over " + path);
    }
}

std::string
loadWithFallback(const std::string &path)
{
    faultSite("ckpt.load");
    try {
        std::string bytes = readFile(path);
        parseFile(bytes); // structural validation only
        return bytes;
    } catch (const CorruptCheckpoint &primary) {
        const std::string prev = path + ".prev";
        try {
            std::string bytes = readFile(prev);
            parseFile(bytes);
            return bytes;
        } catch (const CorruptCheckpoint &fallback) {
            throw ConfigError(
                "config.restore",
                "no usable checkpoint: " + std::string(primary.what()) +
                    "; " + fallback.what());
        }
    }
}

} // namespace cmpsim::ckpt
