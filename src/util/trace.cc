#include "util/trace.h"

#include <atomic>
#include <cstdio>
#include <thread>

#include "util/string_util.h"

namespace mrsl {
namespace {

// splitmix64: the standard 64-bit finalizer — full avalanche, so
// consecutive counter values land uniformly in [0, 2^64).
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Small per-process thread numbers for the Chrome export's "tid" field
// (std::thread::id renders as an opaque hash; 1, 2, 3... reads better
// on a timeline).
uint32_t CurrentTraceTid() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void AppendMicros(std::string* out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  *out += buf;
}

void AppendAttrs(std::string* out, const TraceSpanData& span) {
  if (span.int_attrs.empty() && span.str_attrs.empty()) return;
  *out += ",\"attrs\":{";
  bool first = true;
  for (const auto& [key, value] : span.int_attrs) {
    if (!first) *out += ",";
    first = false;
    *out += "\"" + JsonEscape(key) + "\":" + std::to_string(value);
  }
  for (const auto& [key, value] : span.str_attrs) {
    if (!first) *out += ",";
    first = false;
    *out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  *out += "}";
}

void AppendSubtree(const std::vector<TraceSpanData>& spans,
                   const std::vector<std::vector<uint32_t>>& children,
                   uint32_t index, std::string* out) {
  const TraceSpanData& span = spans[index];
  *out += "{\"name\":\"" + JsonEscape(span.name) + "\",\"start_us\":";
  AppendMicros(out, span.start_ns);
  *out += ",\"dur_us\":";
  AppendMicros(out, span.duration_ns);
  AppendAttrs(out, span);
  if (!children[index].empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < children[index].size(); ++i) {
      if (i > 0) *out += ",";
      AppendSubtree(spans, children, children[index][i], out);
    }
    *out += "]";
  }
  *out += "}";
}

std::vector<std::vector<uint32_t>> ChildIndex(
    const std::vector<TraceSpanData>& spans) {
  std::vector<std::vector<uint32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t parent = spans[i].parent;
    if (parent != TraceContext::kNoParent && parent < spans.size()) {
      children[parent].push_back(static_cast<uint32_t>(i));
    }
  }
  return children;
}

}  // namespace

TraceContext::TraceContext(uint64_t trace_id, std::string name)
    : trace_id_(trace_id),
      name_(std::move(name)),
      start_(std::chrono::steady_clock::now()),
      wall_start_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()) {
  TraceSpanData root;
  root.name = name_;
  root.parent = kNoParent;
  root.tid = CurrentTraceTid();
  spans_.push_back(std::move(root));
}

std::string TraceContext::trace_id_hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id_));
  return std::string(buf);
}

uint64_t TraceContext::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

uint32_t TraceContext::StartSpan(uint32_t parent, std::string name) {
  TraceSpanData span;
  span.name = std::move(name);
  span.parent = parent;
  span.tid = CurrentTraceTid();
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<uint32_t>(spans_.size() - 1);
}

void TraceContext::EndSpan(uint32_t index) {
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= spans_.size()) return;
  TraceSpanData& span = spans_[index];
  if (span.duration_ns == 0) {
    span.duration_ns = now > span.start_ns ? now - span.start_ns : 1;
  }
}

void TraceContext::SetIntAttr(uint32_t index, std::string key,
                              int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= spans_.size()) return;
  spans_[index].int_attrs.emplace_back(std::move(key), value);
}

void TraceContext::SetStrAttr(uint32_t index, std::string key,
                              std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= spans_.size()) return;
  spans_[index].str_attrs.emplace_back(std::move(key), std::move(value));
}

std::vector<TraceSpanData> TraceContext::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

size_t TraceContext::num_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

uint64_t TraceContext::duration_ns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_[0].duration_ns;
}

uint64_t NextTraceId() {
  // The seed folds in a clock reading and an address so two processes
  // started together diverge; within a process, the mixed counter alone
  // guarantees uniqueness.
  static const uint64_t seed =
      Mix64(static_cast<uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch().count()) ^
            reinterpret_cast<uintptr_t>(&NextTraceId));
  static std::atomic<uint64_t> counter{0};
  uint64_t id =
      Mix64(seed ^ counter.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;  // 0 is reserved as "no trace"
}

TraceStore::TraceStore(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

TraceStore& TraceStore::Global() {
  static TraceStore* store = new TraceStore();
  return *store;
}

bool TraceStore::ShouldSample(uint64_t trace_id, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Upper 53 bits of the mixed id -> a uniform point in [0, 1).
  const double point =
      static_cast<double>(Mix64(trace_id) >> 11) / 9007199254740992.0;
  return point < rate;
}

void TraceStore::Record(std::shared_ptr<const TraceContext> trace) {
  if (trace == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(trace));
  } else {
    ring_[next_] = std::move(trace);
    next_ = (next_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<std::shared_ptr<const TraceContext>> TraceStore::Recent(
    size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const TraceContext>> out;
  out.reserve(ring_.size());
  // next_ is the oldest entry once the ring has wrapped.
  const size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  if (limit > 0 && out.size() > limit) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(limit));
  }
  return out;
}

uint64_t TraceStore::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

size_t TraceStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

void TraceStore::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

std::string SpanSubtreeJson(const std::vector<TraceSpanData>& spans,
                            uint32_t root_index) {
  if (root_index >= spans.size()) return "null";
  std::string out;
  AppendSubtree(spans, ChildIndex(spans), root_index, &out);
  return out;
}

std::string SpanSubtreeJson(const TraceContext& trace, uint32_t root_index) {
  return SpanSubtreeJson(trace.Snapshot(), root_index);
}

std::string TraceJson(const TraceContext& trace) {
  std::string out = "{\"trace_id\":\"" + trace.trace_id_hex() +
                    "\",\"name\":\"" + JsonEscape(trace.name()) +
                    "\",\"start_unix_us\":" +
                    std::to_string(trace.wall_start_us()) + ",\"dur_us\":";
  AppendMicros(&out, trace.duration_ns());
  out += ",\"spans\":" + SpanSubtreeJson(trace, 0) + "}";
  return out;
}

std::string TracesJson(
    const std::vector<std::shared_ptr<const TraceContext>>& traces) {
  std::string out =
      "{\"count\":" + std::to_string(traces.size()) + ",\"traces\":[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ",";
    out += TraceJson(*traces[i]);
  }
  out += "]}\n";
  return out;
}

std::string TracesChromeJson(
    const std::vector<std::shared_ptr<const TraceContext>>& traces) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& trace : traces) {
    const std::vector<TraceSpanData> spans = trace->Snapshot();
    const std::string id = trace->trace_id_hex();
    for (const TraceSpanData& span : spans) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + JsonEscape(span.name) +
             "\",\"cat\":\"mrsl\",\"ph\":\"X\",\"ts\":";
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.3f",
                    static_cast<double>(trace->wall_start_us()) +
                        static_cast<double>(span.start_ns) / 1000.0);
      out += buf;
      out += ",\"dur\":";
      AppendMicros(&out, span.duration_ns);
      out += ",\"pid\":1,\"tid\":" + std::to_string(span.tid) +
             ",\"args\":{\"trace_id\":\"" + id + "\"";
      for (const auto& [key, value] : span.int_attrs) {
        out += ",\"" + JsonEscape(key) + "\":" + std::to_string(value);
      }
      for (const auto& [key, value] : span.str_attrs) {
        out += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
      }
      out += "}}";
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace mrsl
