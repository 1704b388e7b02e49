#include "src/sim/fault_injection.h"

#include <chrono>
#include <cstdlib>

#include "src/common/log.h"
#include "src/common/sim_error.h"

namespace cmpsim {

namespace detail {

/** Per-thread armed state: the plan plus this attempt's hit counts. */
struct ArmedFaults
{
    const FaultPlan *plan = nullptr;
    unsigned attempt = 1;
    std::size_t point = kFaultAnyPoint;
    unsigned seed = kFaultAnySeed;
    std::vector<std::uint64_t> hits; ///< parallel to plan->specs()
    bool stall_latched = false;
};

// analyze-ok: shared-state fault arming is per-worker by design: each harness thread arms its own plan, so thread_local is the isolation, not a leak (DESIGN.md section 8)
constinit thread_local ArmedFaults *tl_armed = nullptr;
// analyze-ok: shared-state per-worker watchdog flag, armed and read only by the owning harness thread
constinit thread_local bool tl_has_deadline = false;

namespace {

// analyze-ok: shared-state per-worker arming storage backing tl_armed; never shared across threads
thread_local ArmedFaults tl_armed_storage;
// analyze-ok: shared-state per-worker watchdog deadline; wall-clock is confined to the containment layer and never reaches simulated state
thread_local std::chrono::steady_clock::time_point tl_deadline;

/** Does @p spec apply to the armed task at all? */
bool
applies(const FaultSpec &spec, const ArmedFaults &armed,
        const char *site)
{
    if (spec.site != site)
        return false;
    if (armed.attempt > spec.fail_attempts)
        return false;
    if (spec.point != kFaultAnyPoint && spec.point != armed.point)
        return false;
    if (spec.seed != kFaultAnySeed && spec.seed != armed.seed)
        return false;
    return true;
}

} // namespace

void
faultSiteSlow(const char *site)
{
    ArmedFaults &armed = *tl_armed;
    const auto &specs = armed.plan->specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const FaultSpec &spec = specs[i];
        if (spec.kind != FaultKind::Throw || spec.site != site)
            continue;
        // Hits are counted whenever the site matches so "the nth
        // occurrence" is a property of the simulation, not of the
        // attempt/point selectors.
        const std::uint64_t hit = ++armed.hits[i];
        if (hit == spec.nth && applies(spec, armed, site))
            throw InjectedFault(site, spec.nth, armed.attempt);
    }
}

bool
faultStallSlow(const char *site)
{
    ArmedFaults &armed = *tl_armed;
    if (!armed.stall_latched) {
        const auto &specs = armed.plan->specs();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const FaultSpec &spec = specs[i];
            if (spec.kind != FaultKind::Stall || spec.site != site)
                continue;
            const std::uint64_t hit = ++armed.hits[i];
            if (hit >= spec.nth && applies(spec, armed, site))
                armed.stall_latched = true;
        }
    }
    return armed.stall_latched;
}

void
checkPointDeadlineSlow(const char *where)
{
    if (std::chrono::steady_clock::now() < tl_deadline)
        return;
    tl_has_deadline = false; // throw once, not on every unwind probe
    throw WatchdogTimeout(where,
                          "wall-clock point deadline exceeded "
                          "(CMPSIM_POINT_TIMEOUT)");
}

} // namespace detail

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty())
            continue;

        // Split on ':'.
        std::vector<std::string> fields;
        std::size_t p = 0;
        while (true) {
            const std::size_t colon = entry.find(':', p);
            if (colon == std::string::npos) {
                fields.push_back(entry.substr(p));
                break;
            }
            fields.push_back(entry.substr(p, colon - p));
            p = colon + 1;
        }
        if (fields.size() < 2 || fields[0].empty()) {
            throw ConfigError("fault.spec",
                              "expected site:nth[...], got \"" + entry +
                                  "\"");
        }

        auto parseUint = [&entry](const std::string &s, const char *what) {
            return parseKnobUint(std::string("fault ") + what + " in \"" +
                                     entry + "\"",
                                 s, "fault.spec");
        };

        FaultSpec fault;
        fault.site = fields[0];
        fault.nth = parseUint(fields[1], "occurrence");
        if (fault.nth == 0) {
            throw ConfigError("fault.spec",
                              "occurrence must be >= 1 in \"" + entry +
                                  "\"");
        }
        for (std::size_t f = 2; f < fields.size(); ++f) {
            const std::string &field = fields[f];
            if (field.empty())
                continue;
            if (field == "all") {
                fault.fail_attempts = kFaultAllAttempts;
            } else if (field == "throw") {
                fault.kind = FaultKind::Throw;
            } else if (field == "stall") {
                fault.kind = FaultKind::Stall;
            } else if (field[0] == 'p' && field.size() > 1) {
                fault.point = static_cast<std::size_t>(
                    parseUint(field.substr(1), "point selector"));
            } else if (field[0] == 's' && field.size() > 1) {
                fault.seed = static_cast<unsigned>(
                    parseUint(field.substr(1), "seed selector"));
            } else if (field[0] >= '0' && field[0] <= '9') {
                const std::uint64_t n =
                    parseUint(field, "attempt count");
                if (n == 0) {
                    throw ConfigError("fault.spec",
                                      "attempt count must be >= 1 in \"" +
                                          entry + "\"");
                }
                fault.fail_attempts = static_cast<unsigned>(n);
            } else {
                throw ConfigError("fault.spec",
                                  "unknown field \"" + field + "\" in \"" +
                                      entry + "\"");
            }
        }
        plan.specs_.push_back(std::move(fault));
    }
    return plan;
}

FaultPlan
FaultPlan::fromEnv()
{
    const char *env = std::getenv("CMPSIM_FAULT");
    if (env == nullptr || *env == '\0')
        return FaultPlan{};
    return parse(env);
}

FaultArmGuard::FaultArmGuard(const FaultPlan &plan, unsigned attempt,
                             std::size_t point, unsigned seed)
{
    cmpsim_assert(detail::tl_armed == nullptr,
                  "nested fault arming on one thread");
    if (plan.empty())
        return;
    detail::ArmedFaults &armed = detail::tl_armed_storage;
    armed.plan = &plan;
    armed.attempt = attempt;
    armed.point = point;
    armed.seed = seed;
    armed.hits.assign(plan.specs().size(), 0);
    armed.stall_latched = false;
    detail::tl_armed = &armed;
}

FaultArmGuard::~FaultArmGuard()
{
    detail::tl_armed = nullptr;
}

DeadlineGuard::DeadlineGuard(double seconds)
{
    if (seconds <= 0.0)
        return;
    detail::tl_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    detail::tl_has_deadline = true;
}

DeadlineGuard::~DeadlineGuard()
{
    detail::tl_has_deadline = false;
}

} // namespace cmpsim
