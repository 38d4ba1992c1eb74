//===- obs/Log.h - Leveled diagnostic logger -------------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide leveled logger every subsystem routes diagnostics
/// through (replacing scattered raw `fprintf(stderr)` / `std::cerr`
/// sites). Usage:
///
/// \code
///   ECO_LOG(Warn) << "native compile failed: " << Error;
/// \endcode
///
/// The stream expression after ECO_LOG(level) is *not evaluated* when the
/// level is disabled — the macro expands to one conditional expression,
/// so a disabled log costs one relaxed atomic load and a branch. The active
/// level comes from setLogLevel() (the CLI's --log-level flag) or, before
/// any explicit call, from the ECO_LOG_LEVEL environment variable
/// (off|error|warn|info|debug); the default is Warn.
///
/// Messages carry a monotonic timestamp from the same epoch the flight
/// recorder uses (obs::monotonicMicros), so stderr diagnostics can be
/// correlated against its events and the Chrome timeline.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_OBS_LOG_H
#define ECO_OBS_LOG_H

#include <cstdint>
#include <sstream>
#include <string>

namespace eco {
namespace obs {

/// Severity levels, most severe first. Off disables everything.
enum class LogLevel { Off = 0, Error, Warn, Info, Debug };

/// Microseconds elapsed since the process-wide observability epoch (a
/// monotonic clock captured on first use). Shared by log timestamps,
/// event and span times, and TraceRecord::TimeMs so all three artifacts
/// align on one timeline.
uint64_t monotonicMicros();

/// The active level (relaxed atomic read — safe from any thread).
LogLevel logLevel();

/// Sets the active level.
void setLogLevel(LogLevel Level);

/// Parses "off", "error", "warn", "info", or "debug" (case-sensitive)
/// and sets the level; returns false (level unchanged) for anything else.
bool setLogLevelByName(const std::string &Name);

/// True when a message at \p Level would be emitted.
inline bool logEnabled(LogLevel Level);

/// One in-flight message: collects the streamed text and writes a single
/// line to stderr on destruction (mutex-guarded so concurrent lanes never
/// interleave mid-line).
class LogMessage {
public:
  LogMessage(LogLevel Level, const char *File, int Line);
  ~LogMessage();

  LogMessage(const LogMessage &) = delete;
  LogMessage &operator=(const LogMessage &) = delete;

  std::ostringstream &stream() { return Stream; }

private:
  LogLevel Level;
  const char *File;
  int Line;
  std::ostringstream Stream;
};

namespace detail {
/// The atomic backing store for the level, exposed so logEnabled() can
/// inline to one relaxed load.
int currentLevelRelaxed();

/// Turns ECO_LOG's stream chain into a void operand of its conditional.
struct Voidify {
  void operator&(std::ostream &) {}
};
} // namespace detail

inline bool logEnabled(LogLevel Level) {
  return static_cast<int>(Level) <= detail::currentLevelRelaxed();
}

} // namespace obs
} // namespace eco

/// Streams a message at the given level (Error/Warn/Info/Debug). The
/// macro is one expression: `&` binds looser than `<<`, so Voidify
/// swallows the whole stream chain, and the conditional skips argument
/// evaluation when the level is disabled. Being an expression, it is
/// safe inside an unbraced if/else.
#define ECO_LOG(LEVEL)                                                     \
  !::eco::obs::logEnabled(::eco::obs::LogLevel::LEVEL)                     \
      ? (void)0                                                            \
      : ::eco::obs::detail::Voidify() &                                    \
            ::eco::obs::LogMessage(::eco::obs::LogLevel::LEVEL, __FILE__,  \
                                   __LINE__)                               \
                .stream()

#endif // ECO_OBS_LOG_H
