// Span tracing: the on-demand half of the telemetry subsystem.
//
// RAII `Span`s record (thread, start, duration, key/value args) into
// per-thread ring buffers; the recorder flushes them on demand as Chrome
// `trace_event`-format JSON, so a run opens directly in chrome://tracing or
// https://ui.perfetto.dev. Run
//
//   benchmark/run.sh --smoke --traced   # one trace per workload in benchmark/build/traces/
//
// or export NSF_TRACE=/tmp/run.json before running any binary, and every
// instrumented phase — compiles, disk-cache loads, tier-up warm-ups,
// predecode, per-request runs on their worker lanes — appears on a timeline,
// one track per thread (with NSF_TRACE, flush happens automatically at exit).
//
// Cost contract: tracing COMPILED IN BUT DISABLED must be near-free. A
// disabled Span construction is one relaxed atomic load and a branch; no
// allocation, no clock read, no locks. Arg formatting only happens on active
// spans. (The dispatch inner loop is never span-instrumented at all —
// per-handler visibility there is the separate NSF_DISPATCH_STATS build,
// see src/machine/decode.h.)
//
// Thread safety: recording is per-thread (a thread only writes its own
// buffer, under an uncontended buffer mutex that exists so Flush can read
// live buffers); Start/Stop/Flush may be called from any thread.
#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nsf {
namespace telemetry {

// Global on/off for the span fast path. Read with TraceEnabled(); flipped
// only by TraceRecorder::Start/Stop.
extern std::atomic<bool> g_trace_enabled;
inline bool TraceEnabled() { return g_trace_enabled.load(std::memory_order_relaxed); }

// One completed span. `args` values are pre-rendered JSON (strings arrive
// quoted+escaped, numbers raw), so flushing is pure concatenation.
struct TraceEvent {
  std::string name;
  const char* cat = "engine";
  uint64_t start_ns = 0;  // since trace start
  uint64_t dur_ns = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceRecorder {
 public:
  static TraceRecorder& Global();

  // Enables recording. `path` is where Flush()/the exit hook writes the JSON
  // ("" = Start records but only DumpJson() retrieves it). Idempotent while
  // already started. `ring_capacity` bounds each thread's buffer; overflow
  // overwrites the oldest events (dropped count is reported in the JSON).
  void Start(const std::string& path, size_t ring_capacity = kDefaultRingCapacity);

  // Reads NSF_TRACE; starts when set. Called once from a static initializer
  // so `NSF_TRACE=out.json <any binary>` needs no code changes; also
  // registers an atexit flush.
  void StartFromEnv();

  // Disables recording (in-flight spans finish into the buffers and are
  // retained). Does not flush.
  void Stop();

  // Writes DumpJson() to the Start() path (no-op without one). True on
  // success. Safe to call while other threads record.
  bool Flush();

  // The whole trace as Chrome trace-event JSON:
  //   {"displayTimeUnit":"ms","traceEvents":[...]}
  // Includes process/thread metadata events; ts/dur are microseconds.
  std::string DumpJson() const;

  // Drops all recorded events and thread registrations of finished threads
  // (live threads keep their lanes). Used by tests.
  void Clear();

  // Names the calling thread's lane in the trace (e.g. "worker-3"). May be
  // called while tracing is off: the name is kept for the thread and applied
  // once it records, without allocating a buffer before then.
  void SetThreadName(const std::string& name);

  void Record(TraceEvent event);

  bool started() const { return TraceEnabled(); }
  const std::string& path() const { return path_; }
  uint64_t dropped() const;
  uint64_t recorded() const;

  // Nanoseconds since the recorder's epoch (trace start). Monotonic.
  static uint64_t NowNs();

  static constexpr size_t kDefaultRingCapacity = 1 << 16;

 private:
  struct ThreadBuffer {
    std::mutex mu;
    uint32_t tid = 0;
    std::string name;
    std::vector<TraceEvent> ring;  // capacity-bounded, oldest overwritten
    size_t next = 0;               // ring write cursor
    uint64_t recorded = 0;         // total Record() calls (>= ring occupancy)
  };

  TraceRecorder() = default;
  ThreadBuffer* BufferForThisThread();

  mutable std::mutex mu_;  // guards buffers_ registration + path/capacity
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string path_;
  size_t ring_capacity_ = kDefaultRingCapacity;
  uint32_t next_tid_ = 1;
};

// RAII scoped span. Inactive (and free) unless the recorder is enabled at
// construction time. The name is captured as const char* for the common
// static-literal case; dynamic detail belongs in args:
//
//   telemetry::Span span("compile", "engine");
//   span.arg("workload", spec.name);   // no-op when inactive
class Span {
 public:
  explicit Span(const char* name, const char* cat = "engine") {
    if (TraceEnabled()) {
      Begin(name, cat);
    }
  }
  ~Span() {
    if (impl_ != nullptr) {
      End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return impl_ != nullptr; }

  void arg(const char* key, const std::string& value);
  void arg(const char* key, const char* value);
  void arg(const char* key, uint64_t value);
  void arg(const char* key, int value) { arg(key, static_cast<uint64_t>(value)); }
  void arg(const char* key, unsigned value) { arg(key, static_cast<uint64_t>(value)); }
  void arg(const char* key, double value);

 private:
  void Begin(const char* name, const char* cat);
  void End();

  std::unique_ptr<TraceEvent> impl_;  // doubles as the "active" flag
};

}  // namespace telemetry
}  // namespace nsf

#endif  // SRC_TELEMETRY_TRACE_H_
