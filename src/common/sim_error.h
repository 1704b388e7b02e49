/**
 * @file
 * Structured error taxonomy for fault-tolerant experiment execution
 * (DESIGN.md §8).
 *
 * Every failure the simulator can raise carries a kind (what class of
 * thing went wrong), a context (the site that detected it, e.g.
 * "l2.fill" or "config.cores") and a message. The experiment layer
 * uses the kind to decide containment policy: configuration and
 * invariant errors are deterministic and never retried, while
 * injected faults and watchdog timeouts are treated as transient.
 *
 * The legacy cmpsim_fatal()/cmpsim_panic() reporters throw
 * ConfigError/InvariantError respectively (src/common/log.cc), so a
 * single bad point in a parallel batch unwinds its own simulation
 * instead of killing the process. cmpsim_assert() still aborts: a
 * tripped assertion means in-memory state is untrustworthy.
 */

#ifndef CMPSIM_COMMON_SIM_ERROR_H
#define CMPSIM_COMMON_SIM_ERROR_H

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cmpsim {

/** Failure classes, ordered roughly by how deterministic they are. */
enum class ErrorKind
{
    Config,    ///< the user asked for an impossible system
    Workload,  ///< benchmark input missing or malformed
    Invariant, ///< a simulator invariant was violated (a cmpsim bug)
    Watchdog,  ///< no forward progress (livelock) or deadline missed
    Injected,  ///< deliberately injected by the fault harness
    Internal,  ///< wrapped foreign exception / multi-task failure
};

/** Stable lower-case name of @p kind ("config", "watchdog", ...). */
const char *errorKindName(ErrorKind kind);

/** Whether a retry of a failure of @p kind could plausibly succeed
 *  (DESIGN.md §8): injected faults, watchdog expiries and wrapped
 *  foreign exceptions are transient; config/workload/invariant
 *  failures are deterministic and are not retried. */
bool errorKindTransient(ErrorKind kind);

/** Base of the simulator's exception hierarchy. */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorKind kind, std::string context,
             const std::string &message);

    ErrorKind kind() const { return kind_; }

    /** The site that raised the error, e.g. "l2.fill". */
    const std::string &context() const { return context_; }

    /** errorKindTransient(kind()). */
    bool transient() const { return errorKindTransient(kind_); }

  private:
    ErrorKind kind_;
    std::string context_;
};

/** The requested SystemConfig (or environment knob) is impossible. */
class ConfigError : public SimError
{
  public:
    ConfigError(std::string context, const std::string &message);
};

/**
 * Parse @p text, the value of integer knob @p knob, strictly: decimal
 * digits only, within 64 bits. A bare std::strtoull would accept a
 * sign ("-1" wraps to 2^64-1), stop at trailing junk and saturate on
 * ERANGE; each of those throws ConfigError naming the knob instead
 * (context @p context, default "env.<knob>").
 */
std::uint64_t parseKnobUint(const std::string &knob,
                            const std::string &text,
                            const std::string &context = "");

/** A workload input (benchmark name) is unusable. */
class WorkloadError : public SimError
{
  public:
    WorkloadError(std::string context, const std::string &message);
};

/** A simulator invariant failed — the run's results are untrustworthy. */
class InvariantError : public SimError
{
  public:
    InvariantError(std::string context, const std::string &message);
};

/** The simulation stopped making progress (cycle-based watchdog) or
 *  overran its wall-clock deadline (CMPSIM_POINT_TIMEOUT). */
class WatchdogTimeout : public SimError
{
  public:
    WatchdogTimeout(std::string context, const std::string &message);
};

/** Raised at a named fault site by the injection harness
 *  (CMPSIM_FAULT; src/sim/fault_injection.h). */
class InjectedFault : public SimError
{
  public:
    InjectedFault(std::string site, std::uint64_t nth, unsigned attempt);
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_SIM_ERROR_H
