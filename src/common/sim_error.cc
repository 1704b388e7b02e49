#include "src/common/sim_error.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace cmpsim {

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Config:
        return "config";
      case ErrorKind::Workload:
        return "workload";
      case ErrorKind::Invariant:
        return "invariant";
      case ErrorKind::Watchdog:
        return "watchdog";
      case ErrorKind::Injected:
        return "injected";
      case ErrorKind::Internal:
        return "internal";
    }
    return "unknown";
}

namespace {

std::string
compose(ErrorKind kind, const std::string &context,
        const std::string &message)
{
    std::string out = "[";
    out += errorKindName(kind);
    out += "] ";
    out += context;
    out += ": ";
    out += message;
    return out;
}

} // namespace

SimError::SimError(ErrorKind kind, std::string context,
                   const std::string &message)
    : std::runtime_error(compose(kind, context, message)),
      kind_(kind), context_(std::move(context))
{
}

bool
errorKindTransient(ErrorKind kind)
{
    return kind == ErrorKind::Injected || kind == ErrorKind::Watchdog ||
           kind == ErrorKind::Internal;
}

ConfigError::ConfigError(std::string context, const std::string &message)
    : SimError(ErrorKind::Config, std::move(context), message)
{
}

std::uint64_t
parseKnobUint(const std::string &knob, const std::string &text,
              const std::string &context)
{
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE) {
        throw ConfigError(context.empty() ? "env." + knob : context,
                          knob + " must be an unsigned 64-bit decimal "
                                 "integer, got \"" + text + "\"");
    }
    return v;
}

WorkloadError::WorkloadError(std::string context,
                             const std::string &message)
    : SimError(ErrorKind::Workload, std::move(context), message)
{
}

InvariantError::InvariantError(std::string context,
                               const std::string &message)
    : SimError(ErrorKind::Invariant, std::move(context), message)
{
}

WatchdogTimeout::WatchdogTimeout(std::string context,
                                 const std::string &message)
    : SimError(ErrorKind::Watchdog, std::move(context), message)
{
}

InjectedFault::InjectedFault(std::string site, std::uint64_t nth,
                             unsigned attempt)
    : SimError(ErrorKind::Injected, std::move(site),
               "injected fault at occurrence " + std::to_string(nth) +
                   " (attempt " + std::to_string(attempt) + ")")
{
}

} // namespace cmpsim
