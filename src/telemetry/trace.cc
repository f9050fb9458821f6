#include "src/telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "src/support/str.h"

namespace nsf {
namespace telemetry {

std::atomic<bool> g_trace_enabled{false};

namespace {

// The recorder epoch: first NowNs() call. steady_clock so spans never go
// backwards under NTP adjustments.
std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

void AppendArgsJson(std::string* out, const std::vector<std::pair<std::string, std::string>>& args) {
  *out += "{";
  for (size_t i = 0; i < args.size(); i++) {
    *out += (i == 0 ? "" : ",");
    *out += JsonQuote(args[i].first) + ":" + args[i].second;
  }
  *out += "}";
}

// One "X" (complete) event line. ts/dur in microseconds, 3 decimals.
void AppendEventJson(std::string* out, const TraceEvent& e, uint32_t tid) {
  *out += StrFormat("{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":1,\"tid\":%u,\"args\":",
                    JsonQuote(e.name).c_str(), e.cat,
                    static_cast<double>(e.start_ns) / 1e3, static_cast<double>(e.dur_ns) / 1e3,
                    tid);
  AppendArgsJson(out, e.args);
  *out += "}";
}

}  // namespace

uint64_t TraceRecorder::NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - Epoch())
                                   .count());
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* instance = new TraceRecorder();  // never destroyed
  return *instance;
}

void TraceRecorder::Start(const std::string& path, size_t ring_capacity) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
    ring_capacity_ = ring_capacity == 0 ? 1 : ring_capacity;
  }
  Epoch();  // pin the epoch no later than trace start
  g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::StartFromEnv() {
  const char* path = std::getenv("NSF_TRACE");
  if (path == nullptr || path[0] == '\0') {
    return;
  }
  Start(path);
  std::atexit([] {
    TraceRecorder& r = TraceRecorder::Global();
    r.Stop();
    if (r.Flush()) {
      fprintf(stderr, "  wrote trace %s (%llu spans, %llu dropped)\n", r.path().c_str(),
              static_cast<unsigned long long>(r.recorded()),
              static_cast<unsigned long long>(r.dropped()));
    }
  });
}

void TraceRecorder::Stop() { g_trace_enabled.store(false, std::memory_order_relaxed); }

namespace {
// The calling thread's lane name. SetThreadName stores it even while tracing
// is off, so a thread that named itself before Start still gets a named lane
// when it first records.
thread_local std::string t_thread_name;
}  // namespace

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  // Registered once per thread; the shared_ptr in buffers_ keeps the buffer
  // alive for flushing even after the thread exits.
  thread_local std::shared_ptr<ThreadBuffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<ThreadBuffer>();
    buffer->name = t_thread_name;
    std::lock_guard<std::mutex> lock(mu_);
    buffer->tid = next_tid_++;
    buffer->ring.reserve(std::min(ring_capacity_, size_t{1024}));
    buffers_.push_back(buffer);
  }
  return buffer.get();
}

void TraceRecorder::SetThreadName(const std::string& name) {
  t_thread_name = name;
  if (!TraceEnabled()) {
    return;  // BufferForThisThread copies it in when the thread first records
  }
  ThreadBuffer* buf = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buf->mu);
  buf->name = name;
}

void TraceRecorder::Record(TraceEvent event) {
  size_t capacity;
  {
    std::lock_guard<std::mutex> lock(mu_);
    capacity = ring_capacity_;
  }
  ThreadBuffer* buf = BufferForThisThread();
  std::lock_guard<std::mutex> lock(buf->mu);  // uncontended except vs Flush
  buf->recorded++;
  if (buf->ring.size() < capacity) {
    buf->ring.push_back(std::move(event));
  } else {
    // Ring full: overwrite oldest so a long run keeps its most recent spans.
    buf->ring[buf->next] = std::move(event);
    buf->next = (buf->next + 1) % buf->ring.size();
  }
}

uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> bl(buf->mu);
    n += buf->recorded - buf->ring.size();
  }
  return n;
}

uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> bl(buf->mu);
    n += buf->recorded;
  }
  return n;
}

std::string TraceRecorder::DumpJson() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"nsf\"}}";
  for (const auto& buf : buffers) {
    std::lock_guard<std::mutex> bl(buf->mu);
    if (!buf->name.empty()) {
      out += StrFormat(",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                       "\"args\":{\"name\":%s}}",
                       buf->tid, JsonQuote(buf->name).c_str());
    }
    // Oldest-first: on a wrapped ring the cursor marks the oldest entry.
    size_t n = buf->ring.size();
    for (size_t i = 0; i < n; i++) {
      const TraceEvent& e = buf->ring[(buf->next + i) % n];
      out += ",";
      AppendEventJson(&out, e, buf->tid);
    }
  }
  out += "]}";
  return out;
}

bool TraceRecorder::Flush() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    path = path_;
  }
  if (path.empty()) {
    return false;
  }
  std::string json = DumpJson();
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "!! cannot write trace %s\n", path.c_str());
    return false;
  }
  fputs(json.c_str(), f);
  fputc('\n', f);
  fclose(f);
  return true;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->ring.clear();
    buf->next = 0;
    buf->recorded = 0;
  }
}

namespace {
// `NSF_TRACE=out.json <binary>` works with zero code in main(): recording
// arms before main and flushes at exit.
const bool g_trace_env_init = [] {
  TraceRecorder::Global().StartFromEnv();
  return true;
}();
}  // namespace

// --- Span ---

void Span::Begin(const char* name, const char* cat) {
  impl_ = std::make_unique<TraceEvent>();
  impl_->name = name;
  impl_->cat = cat;
  impl_->start_ns = TraceRecorder::NowNs();
}

void Span::End() {
  impl_->dur_ns = TraceRecorder::NowNs() - impl_->start_ns;
  TraceRecorder::Global().Record(std::move(*impl_));
  impl_.reset();
}

void Span::arg(const char* key, const std::string& value) {
  if (impl_ != nullptr) {
    impl_->args.emplace_back(key, JsonQuote(value));
  }
}

void Span::arg(const char* key, const char* value) {
  if (impl_ != nullptr) {
    impl_->args.emplace_back(key, JsonQuote(value));
  }
}

void Span::arg(const char* key, uint64_t value) {
  if (impl_ != nullptr) {
    impl_->args.emplace_back(key, StrFormat("%llu", static_cast<unsigned long long>(value)));
  }
}

void Span::arg(const char* key, double value) {
  if (impl_ != nullptr) {
    impl_->args.emplace_back(key, StrFormat("%.6f", value));
  }
}

}  // namespace telemetry
}  // namespace nsf
