#include "src/common/log.h"

#include <atomic>
#include <cstdio>

#include "src/common/sync.h"

namespace nyx {
namespace {

// Read from campaign worker threads; writes are rare (test/CLI setup).
std::atomic<LogLevel> g_level{LogLevel::kWarn};

// Serializes the stderr write so concurrent workers cannot interleave
// halves of two log lines. A leaf: nothing acquires another lock while
// emitting a line. Function-local so the mutex is constructed on first use
// regardless of static init order.
Mutex& OutputMutex() {
  static Mutex mu;
  return mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

void LogMessage(LogLevel level, const std::string& msg) {
  if (level < GetLogLevel() || level == LogLevel::kOff) {
    return;
  }
  MutexLock lock(OutputMutex());
  std::fprintf(stderr, "[nyx:%s] %s\n", LevelName(level), msg.c_str());
}

}  // namespace nyx
