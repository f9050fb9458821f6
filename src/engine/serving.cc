#include "src/engine/serving.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "src/support/str.h"
#include "src/telemetry/trace.h"

namespace nsf {
namespace engine {

namespace {

// SplitMix64: a tiny, well-mixed generator with a portable, standard-library-
// independent output sequence — the determinism the seeded-arrivals contract
// promises (std:: distributions are implementation-defined).
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d4d49fbf853625ull;
  return z ^ (z >> 31);
}

double UniformUnit(uint64_t* state) {  // [0, 1), 53-bit resolution
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

// Exponential inter-arrival draw at `rate` arrivals/second.
double ExpGap(uint64_t* state, double rate) {
  return -std::log1p(-UniformUnit(state)) / rate;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

const char* ArrivalKindName(ArrivalKind kind) {
  return kind == ArrivalKind::kPoisson ? "poisson" : "bursty";
}

std::vector<double> GenerateArrivals(const ArrivalConfig& config, double duration_seconds) {
  std::vector<double> out;
  if (config.rate_rps <= 0 || duration_seconds <= 0) {
    return out;
  }
  uint64_t state = config.seed;
  if (config.kind == ArrivalKind::kPoisson) {
    out.reserve(static_cast<size_t>(config.rate_rps * duration_seconds * 1.25) + 8);
    double t = ExpGap(&state, config.rate_rps);
    while (t < duration_seconds) {
      out.push_back(t);
      t += ExpGap(&state, config.rate_rps);
    }
    return out;
  }

  // Bursty: on/off-modulated Poisson. The on-phase (burst_fraction of each
  // period) runs at rate*burst_factor; the off-phase rate is whatever keeps
  // the long-run mean at rate_rps, clamped at zero (burst_factor *
  // burst_fraction >= 1 concentrates every arrival into the bursts).
  // Memorylessness makes clipping a draw at a phase boundary and redrawing
  // at the new rate exactly equivalent to the modulated process.
  double period = config.period_seconds > 0 ? config.period_seconds : 0.25;
  double fraction = std::min(std::max(config.burst_fraction, 0.0), 1.0);
  double on_len = fraction * period;
  double off_len = period - on_len;
  double on_rate = config.rate_rps * std::max(config.burst_factor, 0.0);
  double off_rate = 0;
  if (off_len > 0) {
    off_rate = std::max(0.0, (config.rate_rps * period - on_rate * on_len) / off_len);
  }
  if (on_len <= 0) {  // no on-phase: degenerate to plain Poisson at rate_rps
    on_rate = 0;
    off_rate = config.rate_rps;
  }
  out.reserve(static_cast<size_t>(config.rate_rps * duration_seconds * 1.25) + 8);
  // Walk the on/off phases explicitly (never re-derive the phase from t:
  // floating-point round-trips at a boundary could re-enter the phase just
  // left and stall). Every iteration advances phase_begin by the phase
  // length, and on_len + off_len == period > 0, so the walk always ends.
  double phase_begin = 0;
  bool in_on = true;
  while (phase_begin < duration_seconds) {
    double len = in_on ? on_len : off_len;
    double rate_now = in_on ? on_rate : off_rate;
    double phase_end = phase_begin + len;
    if (len > 0 && rate_now > 0) {
      double t = phase_begin + ExpGap(&state, rate_now);
      while (t < phase_end && t < duration_seconds) {
        out.push_back(t);
        t += ExpGap(&state, rate_now);
      }
    }
    phase_begin = phase_end;
    in_on = !in_on;
  }
  return out;
}

// --- DrrQueue ---

DrrQueue::DrrQueue(std::vector<double> quanta) : quanta_(std::move(quanta)) {
  for (double& q : quanta_) {
    q = std::max(q, 1e-6);  // a zero quantum would stall the rotation
  }
  queues_.resize(quanta_.size());
}

void DrrQueue::Push(DrrItem item) {
  queues_[item.tenant].items.push_back(item);
  total_++;
}

bool DrrQueue::Pop(DrrItem* out) {
  if (total_ == 0) {
    return false;
  }
  // The rotation, computed instead of walked: each visit to a backlogged
  // tenant either serves its head, if its deficit covers the head's cost, or
  // credits one quantum and moves on, and a tenant keeps serving (cursor
  // parked) while its deficit lasts, which is what makes service share
  // proportional to quanta. Walking it visit by visit costs rounds in
  // proportion to cost / quantum, unbounded for a huge finite cost, and once
  // a deficit passes about 2^53 quanta one credit no longer changes it. So
  // count, per backlogged tenant, the rotations it still needs; the first
  // tenant in cursor order with the fewest is the one the walk serves. An
  // idle queue's deficit is already 0: emptying a queue forfeits it.
  const size_t n = queues_.size();
  size_t served = n;  // offset from the cursor
  double rounds = 0;
  for (size_t j = 0; j < n; j++) {
    const size_t t = (cursor_ + j) % n;
    const Queue& q = queues_[t];
    if (q.items.empty()) {
      continue;
    }
    const double cost = q.items.front().cost;
    const double need = q.deficit >= cost ? 0 : std::ceil((cost - q.deficit) / quanta_[t]);
    if (served == n || need < rounds) {
      served = j;
      rounds = need;
    }
  }
  // Every backlogged tenant is credited once per skipped rotation, and those
  // the final rotation passed before reaching the served one once more.
  for (size_t j = 0; j < n; j++) {
    const size_t t = (cursor_ + j) % n;
    if (!queues_[t].items.empty()) {
      queues_[t].deficit += (j < served ? rounds + 1 : rounds) * quanta_[t];
    }
  }
  cursor_ = (cursor_ + served) % n;
  Queue& q = queues_[cursor_];
  *out = q.items.front();
  q.items.pop_front();
  // A credit computed in one step can round a hair short of the cost it was
  // computed to cover; the deficit then drops to 0, never below.
  q.deficit = std::max(q.deficit, out->cost) - out->cost;
  if (q.items.empty()) {
    q.deficit = 0;
  }
  total_--;
  return true;
}

bool DrrQueue::PopUrgent(double now_seconds, DrrItem* out) {
  if (total_ == 0) {
    return false;
  }
  // Earliest passed deadline among the queue HEADS only: FIFO order within a
  // tenant is preserved, and the scan is one comparison per tenant.
  size_t best = queues_.size();
  for (size_t t = 0; t < queues_.size(); t++) {
    const Queue& q = queues_[t];
    if (q.items.empty()) {
      continue;
    }
    const DrrItem& head = q.items.front();
    if (head.deadline_seconds <= 0 || now_seconds < head.deadline_seconds) {
      continue;
    }
    if (best == queues_.size() ||
        head.deadline_seconds < queues_[best].items.front().deadline_seconds) {
      best = t;
    }
  }
  if (best == queues_.size()) {
    return false;
  }
  Queue& q = queues_[best];
  *out = q.items.front();
  q.items.pop_front();
  // Charge the jump against the tenant's deficit — possibly driving it
  // negative, so later Pop rotations make the tenant repay and long-run
  // shares stay proportional to quanta.
  q.deficit -= out->cost;
  if (q.items.empty()) {
    q.deficit = 0;
  }
  total_--;
  return true;
}

std::vector<DrrItem> DrrQueue::DrainAll() {
  std::vector<DrrItem> out;
  out.reserve(total_);
  for (Queue& q : queues_) {
    for (DrrItem& item : q.items) {
      out.push_back(item);
    }
    q.items.clear();
    q.deficit = 0;
  }
  total_ = 0;
  return out;
}

// --- ServingLoop ---

struct ServingLoop::TenantState {
  const TenantConfig* config = nullptr;
  // Accounting, guarded by LoopState::mu.
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed_queue = 0;
  uint64_t shed_slo = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t abandoned = 0;
  uint64_t cold_compiles = 0;
  uint64_t compile_joins = 0;
  uint64_t disk_loads = 0;
  uint64_t deadline_dispatches = 0;
  size_t next_mix = 0;
  uint64_t next_seq = 0;
  // Per-tenant latency histograms, owned by the loop's PRIVATE registry so
  // one Run()'s SLO decisions and report never see another run's samples.
  telemetry::Histogram* queue_ns = nullptr;
  telemetry::Histogram* service_ns = nullptr;
  telemetry::Histogram* e2e_ns = nullptr;
  std::vector<ServedRequest> slowest;  // sorted by e2e desc, bounded
};

struct ServingLoop::LoopState {
  explicit LoopState(std::vector<double> quanta) : queue(std::move(quanta)) {}

  std::mutex mu;
  std::condition_variable cv_work;  // workers: an item or shutdown is ready
  std::condition_variable cv_done;  // Run(): queue drained, nothing in flight
  DrrQueue queue;
  std::vector<TenantState> tenants;
  bool generating = true;
  bool stop = false;
  int inflight = 0;
  uint64_t history_flushes = 0;
  std::chrono::steady_clock::time_point start;
  // Merged, time-sorted arrival schedule over all tenants.
  struct Arrival {
    double time = 0;
    size_t tenant = 0;
  };
  std::vector<Arrival> schedule;
  // Private registry: one Run()'s per-tenant histograms, which each
  // TenantReport snapshots. No global instrument copies them.
  telemetry::MetricsRegistry registry;
};

ServingLoop::ServingLoop(Engine* engine, ServingConfig config)
    : engine_(engine), config_(std::move(config)) {
  config_.workers = std::max(1, config_.workers);
  config_.drr_quantum_seconds = std::max(config_.drr_quantum_seconds, 1e-6);
  config_.min_cost_seconds = std::max(config_.min_cost_seconds, 1e-9);
}

void ServingLoop::GeneratorMain(LoopState* loop) {
  telemetry::TraceRecorder::Global().SetThreadName("serving-generator");

  const bool flush_enabled =
      config_.flush_period_seconds > 0 && !engine_->RunHistoryPath().empty();
  auto next_flush =
      loop->start + std::chrono::duration<double>(config_.flush_period_seconds);

  for (const LoopState::Arrival& arrival : loop->schedule) {
    auto at = loop->start + std::chrono::duration<double>(arrival.time);
    // Run-history flushes ride the gaps between arrivals: the table's
    // observations become durable on a period instead of only at ~Engine.
    while (flush_enabled && next_flush < at) {
      std::this_thread::sleep_until(next_flush);
      if (engine_->FlushRunHistory()) {
        std::lock_guard<std::mutex> lock(loop->mu);
        loop->history_flushes++;
      }
      next_flush += std::chrono::duration<double>(config_.flush_period_seconds);
    }
    std::this_thread::sleep_until(at);  // returns immediately when behind

    TenantState& ts = loop->tenants[arrival.tenant];
    const TenantConfig& cfg = *ts.config;
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      ts.offered++;
      // Admission control: fast-reject BEFORE queueing, so a shed request
      // costs the client one check instead of a queue slot and a timeout.
      if (loop->queue.depth(arrival.tenant) >= cfg.max_queue_depth) {
        ts.shed_queue++;
      } else if (cfg.p99_slo_seconds > 0 &&
                 ts.e2e_ns->count() >= config_.slo_min_samples &&
                 ts.e2e_ns->Percentile(0.99) >
                     static_cast<uint64_t>(cfg.p99_slo_seconds * 1e9)) {
        ts.shed_slo++;
      } else {
        DrrItem item;
        item.tenant = arrival.tenant;
        item.payload = ts.next_mix;
        ts.next_mix = (ts.next_mix + 1) % cfg.mix.size();
        item.seq = ts.next_seq++;
        item.enqueue_seconds = SecondsSince(loop->start);
        // DRR charges by estimated service cost: the run-history table's
        // observed mean when this key has run, else the cost floor. The
        // estimate sharpens as the loop serves (every completion records).
        item.cost = std::max(engine_->history().ObservedSeconds(cfg.mix[item.payload].spec.name),
                             config_.min_cost_seconds);
        // Dispatch deadline for SLO-aware scheduling: once this request has
        // aged through slo_urgency_fraction of its SLO budget, waiting for
        // its DRR turn risks the p99 — PopUrgent serves it first.
        if (cfg.p99_slo_seconds > 0) {
          item.deadline_seconds =
              item.enqueue_seconds + config_.slo_urgency_fraction * cfg.p99_slo_seconds;
        }
        loop->queue.Push(item);
        ts.admitted++;
        enqueued = true;
      }
    }
    if (enqueued) {
      loop->cv_work.notify_one();
    }
  }

  {
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->generating = false;
  }
  // Wake every worker: those finding an empty queue with generation over exit.
  loop->cv_work.notify_all();
  loop->cv_done.notify_all();
}

void ServingLoop::WorkerMain(LoopState* loop, int worker_index) {
  telemetry::TraceRecorder::Global().SetThreadName(StrFormat("serve-%d", worker_index));

  // Constructing the Session registers this thread's epoch slot with the
  // EBR domain: warm code-cache hits on the serve path are wait-free from
  // the first request.
  Session session(engine_);
  for (;;) {
    DrrItem item;
    bool deadline_dispatch = false;
    {
      std::unique_lock<std::mutex> lock(loop->mu);
      loop->cv_work.wait(lock, [&] {
        return loop->stop || !loop->queue.empty() || !loop->generating;
      });
      if (loop->stop) {
        return;
      }
      if (loop->queue.empty()) {
        if (!loop->generating) {
          return;
        }
        continue;
      }
      // SLO-aware dispatch first: a head past its deadline preempts DRR
      // order. Otherwise the usual deficit rotation picks.
      deadline_dispatch = loop->queue.PopUrgent(SecondsSince(loop->start), &item);
      if (!deadline_dispatch) {
        loop->queue.Pop(&item);
      }
      loop->inflight++;
    }

    TenantState& ts = loop->tenants[item.tenant];
    const TenantConfig& cfg = *ts.config;
    double dispatch_seconds = SecondsSince(loop->start);

    const RunRequest& request = cfg.mix[item.payload];
    BatchRunResult result =
        ExecuteRequest(&session, request, item.tenant, static_cast<int>(item.seq), worker_index);
    double complete_seconds = SecondsSince(loop->start);

    ServedRequest rec;
    rec.workload = request.spec.name;
    rec.worker = worker_index;
    rec.outcome = result.ok ? ServeOutcome::kOk : ServeOutcome::kFailed;
    rec.enqueue_seconds = item.enqueue_seconds;
    rec.queue_seconds = std::max(0.0, dispatch_seconds - item.enqueue_seconds);
    rec.service_seconds = std::max(0.0, complete_seconds - dispatch_seconds);
    rec.e2e_seconds = std::max(0.0, complete_seconds - item.enqueue_seconds);
    rec.compile_info = result.compile_info;
    rec.deadline_dispatch = deadline_dispatch;

    {
      std::lock_guard<std::mutex> lock(loop->mu);
      loop->inflight--;
      if (result.ok) {
        ts.completed++;
      } else {
        ts.failed++;
      }
      ts.cold_compiles += rec.compile_info.compiled ? 1 : 0;
      ts.compile_joins += rec.compile_info.joined ? 1 : 0;
      ts.disk_loads += rec.compile_info.disk_loaded ? 1 : 0;
      ts.deadline_dispatches += rec.deadline_dispatch ? 1 : 0;
      ts.queue_ns->RecordSeconds(rec.queue_seconds);
      ts.service_ns->RecordSeconds(rec.service_seconds);
      ts.e2e_ns->RecordSeconds(rec.e2e_seconds);
      // Keep the tenant's worst tail, attribution attached.
      ts.slowest.push_back(rec);
      std::sort(ts.slowest.begin(), ts.slowest.end(),
                [](const ServedRequest& a, const ServedRequest& b) {
                  return a.e2e_seconds > b.e2e_seconds;
                });
      if (ts.slowest.size() > config_.slowest_per_tenant) {
        ts.slowest.resize(config_.slowest_per_tenant);
      }
      if (loop->queue.empty() && loop->inflight == 0 && !loop->generating) {
        loop->cv_done.notify_all();
      }
    }
  }
}

ServingReport ServingLoop::Run(const std::vector<TenantConfig>& tenants) {
  telemetry::Span span("serving", "engine");
  if (span.active()) {
    span.arg("tenants", static_cast<uint64_t>(tenants.size()));
    span.arg("workers", config_.workers);
  }

  std::vector<double> quanta;
  quanta.reserve(tenants.size());
  for (const TenantConfig& t : tenants) {
    quanta.push_back(std::max(t.weight, 0.0) * config_.drr_quantum_seconds);
  }
  LoopState loop(std::move(quanta));
  loop.tenants.resize(tenants.size());
  for (size_t i = 0; i < tenants.size(); i++) {
    TenantState& ts = loop.tenants[i];
    ts.config = &tenants[i];
    ts.queue_ns = loop.registry.GetHistogram("serving." + tenants[i].name + ".queue_ns");
    ts.service_ns = loop.registry.GetHistogram("serving." + tenants[i].name + ".service_ns");
    ts.e2e_ns = loop.registry.GetHistogram("serving." + tenants[i].name + ".e2e_ns");
    if (tenants[i].mix.empty()) {
      continue;  // nothing to run: a mixless tenant offers no load
    }
    // Deterministic, per-tenant arrival schedule.
    for (double t : GenerateArrivals(tenants[i].arrivals, config_.duration_seconds)) {
      loop.schedule.push_back({t, i});
    }
  }
  std::stable_sort(loop.schedule.begin(), loop.schedule.end(),
                   [](const LoopState::Arrival& a, const LoopState::Arrival& b) {
                     return a.time < b.time;
                   });

  ServingReport report;
  report.workers = config_.workers;
  report.duration_seconds = config_.duration_seconds;
  loop.start = std::chrono::steady_clock::now();

  std::vector<std::thread> workers;
  workers.reserve(config_.workers);
  for (int i = 0; i < config_.workers; i++) {
    workers.emplace_back([this, &loop, i] { WorkerMain(&loop, i); });
  }
  std::thread generator([this, &loop] { GeneratorMain(&loop); });
  generator.join();

  // Drain: generation is over; wait for the queues to empty and in-flight
  // requests to land. On timeout the leftovers are abandoned (counted, never
  // silently dropped) and workers stop after their current request.
  {
    std::unique_lock<std::mutex> lock(loop.mu);
    bool drained = loop.cv_done.wait_for(
        lock, std::chrono::duration<double>(config_.drain_timeout_seconds),
        [&] { return loop.queue.empty() && loop.inflight == 0; });
    if (!drained) {
      loop.stop = true;
      for (const DrrItem& item : loop.queue.DrainAll()) {
        loop.tenants[item.tenant].abandoned++;
      }
    }
  }
  loop.cv_work.notify_all();
  for (std::thread& w : workers) {
    w.join();
  }
  report.wall_seconds = SecondsSince(loop.start);
  // Final run-history flush: everything this loop observed is durable even
  // if the process never destroys the Engine cleanly.
  if (engine_->FlushRunHistory()) {
    loop.history_flushes++;
  }
  report.history_flushes = loop.history_flushes;

  for (TenantState& ts : loop.tenants) {
    TenantReport tr;
    tr.name = ts.config->name;
    tr.offered = ts.offered;
    tr.admitted = ts.admitted;
    tr.shed_queue = ts.shed_queue;
    tr.shed_slo = ts.shed_slo;
    tr.completed = ts.completed;
    tr.failed = ts.failed;
    tr.abandoned = ts.abandoned;
    tr.offered_rps = config_.duration_seconds > 0
                         ? static_cast<double>(ts.offered) / config_.duration_seconds
                         : 0;
    tr.goodput_rps =
        report.wall_seconds > 0 ? static_cast<double>(ts.completed) / report.wall_seconds : 0;
    tr.queue_ns = ts.queue_ns->TakeSnapshot();
    tr.service_ns = ts.service_ns->TakeSnapshot();
    tr.e2e_ns = ts.e2e_ns->TakeSnapshot();
    tr.cold_compiles = ts.cold_compiles;
    tr.compile_joins = ts.compile_joins;
    tr.disk_loads = ts.disk_loads;
    tr.deadline_dispatches = ts.deadline_dispatches;
    tr.slowest = std::move(ts.slowest);
    report.offered += tr.offered;
    report.admitted += tr.admitted;
    report.shed += tr.shed();
    report.completed += tr.completed;
    report.failed += tr.failed;
    report.abandoned += tr.abandoned;
    report.tenants.push_back(std::move(tr));
  }
  report.offered_rps = config_.duration_seconds > 0
                           ? static_cast<double>(report.offered) / config_.duration_seconds
                           : 0;
  report.goodput_rps =
      report.wall_seconds > 0 ? static_cast<double>(report.completed) / report.wall_seconds : 0;
  if (span.active()) {
    span.arg("offered", report.offered);
    span.arg("completed", report.completed);
    span.arg("shed", report.shed);
  }
  return report;
}

}  // namespace engine
}  // namespace nsf
