#include "src/engine/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/support/str.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace nsf {
namespace engine {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

namespace {

// The body of one request-rep, early-returning on each failure path.
// ExecuteRequest wraps it so wall clock and latency telemetry are recorded
// exactly once on EVERY path — compile errors, instantiate failures, and
// traps used to vanish from the executor.request_ns histogram entirely,
// biasing its percentiles toward the (typically faster) successes.
void ExecuteRequestBody(Session* session, const RunRequest& request, BatchRunResult* r) {
  // Isolation: every run starts from a fresh kernel + VFS, so nothing staged
  // by a previous run on this worker is visible.
  session->Reset();

  CompiledModuleRef code =
      session->engine()->CompileWorkload(request.spec, request.options, &r->compile_info);
  if (!code->ok) {
    r->error = code->error;
    return;
  }
  r->compile = code->stats();

  if (request.spec.setup) {
    request.spec.setup(session->kernel());
  }
  InstanceOptions iopts;
  iopts.argv = request.spec.argv;
  iopts.entry = request.spec.entry;
  iopts.fuel = request.spec.fuel;
  std::string err;
  std::unique_ptr<Instance> instance = session->Instantiate(code, std::move(iopts), &err);
  if (instance == nullptr) {
    r->error = err;
    return;
  }
  r->outcome = instance->Run();
  if (!r->outcome.ok) {
    r->error = request.spec.name + " trapped: " + r->outcome.error;
    return;
  }
  if (request.collect_outputs) {
    for (const std::string& path : request.spec.output_files) {
      std::vector<uint8_t> bytes;
      session->fs().ReadFile(path, &bytes);
      r->outputs.push_back({path, std::move(bytes)});
    }
  }
  r->ok = true;
  // Feed the run history: future LPT schedules order by this key's observed
  // simulated seconds.
  session->engine()->history().RecordRun(request.spec.name, r->outcome.seconds);
}

}  // namespace

BatchRunResult ExecuteRequest(Session* session, const RunRequest& request,
                              size_t request_index, int rep, int worker) {
  BatchRunResult r;
  r.request_index = request_index;
  r.rep = rep;
  r.worker = worker;
  telemetry::Span span("request", "executor");
  if (span.active()) {
    span.arg("workload", request.spec.name);
    span.arg("rep", rep);
  }
  auto t0 = std::chrono::steady_clock::now();
  ExecuteRequestBody(session, request, &r);
  r.wall_seconds = SecondsSince(t0);

  // Request latency, tagged by outcome: executor.request_ns holds every
  // request (percentiles INCLUDING failures), the _ok/_failed pair splits the
  // population so either side can be read in isolation.
  static telemetry::Histogram& request_ns =
      *telemetry::MetricsRegistry::Global().GetHistogram("executor.request_ns");
  static telemetry::Histogram& request_ok_ns =
      *telemetry::MetricsRegistry::Global().GetHistogram("executor.request_ok_ns");
  static telemetry::Histogram& request_failed_ns =
      *telemetry::MetricsRegistry::Global().GetHistogram("executor.request_failed_ns");
  request_ns.RecordSeconds(r.wall_seconds);
  (r.ok ? request_ok_ns : request_failed_ns).RecordSeconds(r.wall_seconds);

  if (span.active()) {
    span.arg("cache_hit", r.compile_info.hit ? "true" : "false");
    span.arg("ok", r.ok ? "true" : "false");
    span.arg("sim_seconds", r.outcome.seconds);
  }
  return r;
}

void FinalizeBatchReport(BatchReport* report) {
  report->ok_runs = 0;
  report->failed_runs = 0;
  report->sim_seconds_total = 0;
  report->failed_sim_seconds = 0;
  report->worker_sim_seconds.assign(std::max(report->workers, 1), 0.0);
  for (const BatchRunResult& r : report->runs) {
    if (r.ok) {
      report->ok_runs++;
      report->sim_seconds_total += r.outcome.seconds;
      if (r.worker >= 0 && r.worker < static_cast<int>(report->worker_sim_seconds.size())) {
        report->worker_sim_seconds[r.worker] += r.outcome.seconds;
      }
    } else {
      // A trapped run may carry partial simulated time; counting it into the
      // totals above would inflate throughput and skew the makespan with
      // work whose results were discarded.
      report->failed_runs++;
      report->failed_sim_seconds += r.outcome.seconds;
    }
  }
  report->sim_makespan_seconds = 0;
  for (double s : report->worker_sim_seconds) {
    report->sim_makespan_seconds = std::max(report->sim_makespan_seconds, s);
  }
}

// --- ExecutorPool ---

ExecutorPool::ExecutorPool(Engine* engine, int workers) : engine_(engine) {
  int n = std::max(1, workers);
  threads_.reserve(n);
  for (int i = 0; i < n; i++) {
    threads_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ExecutorPool::~ExecutorPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ExecutorPool::WorkerMain(int worker_index) {
  // The worker's Session lives on its own thread for the pool's lifetime;
  // ExecuteRequest Reset()s it before every job. Constructing it also
  // registers this thread's epoch slot with the EBR domain, so the thread's
  // first warm code-cache hit is wait-free from the start.
  telemetry::TraceRecorder::Global().SetThreadName(StrFormat("worker-%d", worker_index));
  Session session(engine_);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return shutdown_ || next_job_ < jobs_.size(); });
      if (shutdown_ && next_job_ >= jobs_.size()) {
        return;
      }
      job = jobs_[next_job_++];
    }
    BatchRunResult result =
        ExecuteRequest(&session, *job.request, job.request_index, job.rep, worker_index);
    {
      std::lock_guard<std::mutex> lock(mu_);
      (*results_)[job.slot] = std::move(result);
      jobs_done_++;
      if (jobs_done_ == jobs_.size()) {
        cv_done_.notify_all();
      }
    }
  }
}

BatchReport ExecutorPool::Run(const std::vector<RunRequest>& requests) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  telemetry::Span span("batch", "executor");
  if (span.active()) {
    span.arg("requests", static_cast<uint64_t>(requests.size()));
    span.arg("workers", workers());
  }

  BatchReport report;
  report.workers = workers();

  size_t total_jobs = 0;
  for (const RunRequest& r : requests) {
    total_jobs += static_cast<size_t>(std::max(0, r.reps));
  }
  report.runs.resize(total_jobs);

  // LPT: one work estimate per request (all reps of a request share it) —
  // the observed mean simulated seconds in the run history. 0 for cold
  // workloads, so a batch with no history keeps its queue order under the
  // stable sort.
  std::vector<double> request_work(requests.size(), 0.0);
  for (size_t i = 0; i < requests.size(); i++) {
    uint64_t observed_runs = 0;
    request_work[i] = engine_->history().ObservedSeconds(requests[i].spec.name, &observed_runs);
    if (observed_runs > 0) {
      report.lpt_observed_requests++;
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.clear();
    jobs_.reserve(total_jobs);
    size_t slot = 0;
    for (size_t i = 0; i < requests.size(); i++) {
      for (int rep = 0; rep < requests[i].reps; rep++) {
        jobs_.push_back(Job{&requests[i], i, rep, slot++});
      }
    }
    // Result slots are fixed by (request_index, rep); only the dispatch
    // order changes, so reordering jobs_ never perturbs report.runs order.
    std::stable_sort(jobs_.begin(), jobs_.end(), [&](const Job& a, const Job& b) {
      return request_work[a.request_index] > request_work[b.request_index];
    });
    next_job_ = 0;
    jobs_done_ = 0;
    results_ = &report.runs;
  }
  cv_work_.notify_all();

  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return jobs_done_ == jobs_.size(); });
    results_ = nullptr;
    jobs_.clear();
    next_job_ = 0;
    jobs_done_ = 0;
  }
  report.wall_seconds = SecondsSince(t0);
  FinalizeBatchReport(&report);
  // Persist what this batch taught the run-history table. ~Engine used to be
  // the only save point, so a killed process lost every observed run; now at
  // most one batch of history is at risk. No-op without a cache_dir.
  engine_->FlushRunHistory();
  return report;
}

}  // namespace engine
}  // namespace nsf
