#include "util/log.h"

#include <chrono>
#include <cstring>
#include <ctime>

#include "util/string_util.h"

namespace mrsl {

namespace {

// Wall clock for record timestamps; monotonic clock for the token
// buckets and uptime (a clock step must not refill or drain a bucket).
double WallNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double MonoNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Captured at static initialization — as close to process start as a
// dependency-free library gets, and early enough that every uptime
// reading is monotone from here.
const double kProcessStartWall = WallNowSeconds();
const double kProcessStartMono = MonoNowSeconds();

// "2026-08-07T12:34:56.789Z".
std::string FormatTimestamp(double unix_seconds) {
  const time_t secs = static_cast<time_t>(unix_seconds);
  const int millis =
      static_cast<int>((unix_seconds - static_cast<double>(secs)) * 1000.0);
  struct tm utc;
  gmtime_r(&secs, &utc);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, millis);
  return buf;
}

void AppendFieldValue(const LogField& field, bool json, std::string* out) {
  switch (field.type) {
    case LogField::Type::kString:
      if (json) {
        *out += '"';
        *out += JsonEscape(field.str);
        *out += '"';
      } else {
        *out += field.str;
      }
      break;
    case LogField::Type::kInt:
      *out += std::to_string(field.i64);
      break;
    case LogField::Type::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%g", field.f64);
      *out += buf;
      break;
    }
  }
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

Result<LogLevel> ParseLogLevel(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower += static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return Status::InvalidArgument("unknown log level '" + name +
                                 "' (want debug|info|warn|error|off)");
}

Status ParseLogLevelSpec(const std::string& spec, LogOptions* options) {
  for (const std::string& raw : Split(spec, ',')) {
    std::string part(Trim(raw));
    if (part.empty()) continue;
    size_t eq = part.find('=');
    if (eq == std::string::npos) {
      MRSL_ASSIGN_OR_RETURN(options->level, ParseLogLevel(part));
    } else {
      std::string component(Trim(part.substr(0, eq)));
      if (component.empty()) {
        return Status::InvalidArgument("empty component in log spec '" +
                                       spec + "'");
      }
      MRSL_ASSIGN_OR_RETURN(LogLevel level,
                            ParseLogLevel(std::string(Trim(part.substr(eq + 1)))));
      options->component_levels[component] = level;
    }
  }
  return Status::OK();
}

Logger& Logger::Global() {
  static Logger* logger = new Logger();
  return *logger;
}

void Logger::Configure(LogOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = std::move(options);
  int floor = static_cast<int>(options_.level);
  for (const auto& [component, level] : options_.component_levels) {
    floor = std::min(floor, static_cast<int>(level));
  }
  min_level_.store(floor, std::memory_order_relaxed);
  buckets_.clear();
}

LogLevel Logger::LevelFor(const std::string& component) const {
  auto it = options_.component_levels.find(component);
  return it != options_.component_levels.end() ? it->second : options_.level;
}

bool Logger::Enabled(const std::string& component, LogLevel level) const {
  if (static_cast<int>(level) < min_level_.load(std::memory_order_relaxed)) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return level >= LevelFor(component);
}

void Logger::Log(LogLevel level, const std::string& component,
                 const std::string& message, std::vector<LogField> fields) {
  if (level == LogLevel::kOff) return;
  if (static_cast<int>(level) < min_level_.load(std::memory_order_relaxed)) {
    return;
  }

  uint64_t dropped = 0;
  FILE* sink = nullptr;
  bool json = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (level < LevelFor(component)) return;

    // Token bucket per (component, level); errors bypass it.
    if (level < LogLevel::kError && options_.rate_per_sec > 0.0) {
      Bucket& bucket = buckets_[component + '\0' + LogLevelName(level)];
      const double now = MonoNowSeconds();
      if (bucket.last_seconds == 0.0) {
        bucket.tokens = options_.burst;
      } else {
        bucket.tokens = std::min(
            options_.burst,
            bucket.tokens + (now - bucket.last_seconds) * options_.rate_per_sec);
      }
      bucket.last_seconds = now;
      if (bucket.tokens < 1.0) {
        ++bucket.suppressed;
        suppressed_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      bucket.tokens -= 1.0;
      dropped = bucket.suppressed;
      bucket.suppressed = 0;
    }
    sink = options_.sink != nullptr ? options_.sink : stderr;
    json = options_.json;
  }

  // Format outside the lock; a single fwrite keeps the line atomic
  // enough for line-oriented consumers.
  std::string line;
  line.reserve(128);
  const std::string ts = FormatTimestamp(WallNowSeconds());
  if (json) {
    line += "{\"ts\":\"" + ts + "\",\"level\":\"";
    line += LogLevelName(level);
    line += "\",\"component\":\"";
    line += JsonEscape(component);
    line += "\",\"msg\":\"";
    line += JsonEscape(message);
    line += '"';
    for (const LogField& field : fields) {
      line += ",\"";
      line += JsonEscape(field.key);
      line += "\":";
      AppendFieldValue(field, true, &line);
    }
    if (dropped > 0) line += ",\"suppressed\":" + std::to_string(dropped);
    line += "}\n";
  } else {
    line += ts;
    line += ' ';
    const char* name = LogLevelName(level);
    line += name;
    for (size_t i = std::strlen(name); i < 5; ++i) line += ' ';
    line += ' ';
    line += component;
    line += ": ";
    line += message;
    for (const LogField& field : fields) {
      line += ' ';
      line += field.key;
      line += '=';
      AppendFieldValue(field, false, &line);
    }
    if (dropped > 0) line += " suppressed=" + std::to_string(dropped);
    line += '\n';
  }
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

void LogDebug(const std::string& component, const std::string& message,
              std::vector<LogField> fields) {
  Logger::Global().Log(LogLevel::kDebug, component, message,
                       std::move(fields));
}

void LogInfo(const std::string& component, const std::string& message,
             std::vector<LogField> fields) {
  Logger::Global().Log(LogLevel::kInfo, component, message, std::move(fields));
}

void LogWarn(const std::string& component, const std::string& message,
             std::vector<LogField> fields) {
  Logger::Global().Log(LogLevel::kWarn, component, message, std::move(fields));
}

void LogError(const std::string& component, const std::string& message,
              std::vector<LogField> fields) {
  Logger::Global().Log(LogLevel::kError, component, message,
                       std::move(fields));
}

double ProcessStartUnixSeconds() { return kProcessStartWall; }

double ProcessUptimeSeconds() {
  return MonoNowSeconds() - kProcessStartMono;
}

}  // namespace mrsl
