// Minimal leveled logging. Quiet by default so tests and benchmarks stay
// readable; examples turn on INFO to narrate the query flow (Figure 2.1).

#ifndef HCS_SRC_COMMON_LOGGING_H_
#define HCS_SRC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace hcs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  // Nothing is emitted at or above this level; used as the default threshold.
  kSilent = 4,
};

// Process-wide log threshold. Messages below the threshold are discarded.
void SetLogThreshold(LogLevel level);
LogLevel GetLogThreshold();

// True when a message at `level` passes the threshold.
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(GetLogThreshold());
}

// Emits one line to stderr if `level` passes the threshold.
void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

// Internal: stream collector used by the HCS_LOG macro.
class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// HCS_LOG(Info) << a << b; is a statement. Below the threshold it builds no
// LogStream and evaluates none of the << operands. The empty if-branch
// keeps a following `else` bound to the caller's own `if`.
#define HCS_LOG(level)                                   \
  if (!::hcs::LogEnabled(::hcs::LogLevel::k##level)) {   \
  } else                                                 \
    ::hcs::LogStream(::hcs::LogLevel::k##level, __FILE__, __LINE__)

}  // namespace hcs

#endif  // HCS_SRC_COMMON_LOGGING_H_
