// Parallel batch execution over one shared Engine: the "serving-style"
// layer the ROADMAP's heavy-traffic north star asks for.
//
//   RunRequest   — one (workload, options) pair to execute `reps` times.
//   ExecutorPool — a fixed pool of worker threads, each owning its own
//                  Session (kernel + VFS), pulling jobs off a shared queue.
//                  The Engine behind the pool is shared, so every compile
//                  goes through the sharded code cache: N workers requesting
//                  the same (module, options) key trigger exactly one
//                  backend compile.
//   BatchReport  — per-run outcomes plus aggregates: ok/failed counts,
//                  total simulated seconds and the schedule's simulated
//                  makespan (max over workers). Engine-wide counts stay in
//                  Engine::Stats(); a batch's share is the difference of
//                  two snapshots.
//
// Isolation contract: a worker Reset()s its Session before every run, so no
// staged file, fd, or kernel accounting leaks between runs — whether two
// runs land on the same worker or different ones. Machine/heap state is
// fresh per run by Instance construction.
#ifndef SRC_ENGINE_EXECUTOR_H_
#define SRC_ENGINE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/engine/workload.h"

namespace nsf {
namespace engine {

// One unit of batch work: run `spec` under `options`, `reps` times.
struct RunRequest {
  WorkloadSpec spec;
  CodegenOptions options;
  int reps = 1;
  bool collect_outputs = true;  // read spec.output_files back after each run
};

// One run's result inside a batch (request `request_index`, repetition `rep`,
// executed by worker `worker`).
struct BatchRunResult {
  size_t request_index = 0;
  int rep = 0;
  int worker = 0;
  bool ok = false;
  // Where THIS run's code came from (engine.h): a cache hit, a backend
  // compile, a disk-tier load, or a join on another worker's in-flight
  // compile. The serving layer (src/engine/serving.h) reads it to attribute
  // tail latency to the cold event behind it.
  CompileInfo compile_info;
  std::string error;
  RunOutcome outcome;
  CompileStats compile;  // stats of the (possibly cached) compiled module
  std::vector<std::pair<std::string, std::vector<uint8_t>>> outputs;
  double wall_seconds = 0;  // host wall clock for this run (incl. cache fetch)
};

// Aggregated result of a batch. `sim_makespan_seconds` is the simulated
// finish time of the schedule the pool actually produced: the max over
// workers of the simulated seconds each worker executed. Throughput in the
// simulation's time domain is runs / sim_makespan_seconds; with one worker
// the makespan equals sim_seconds_total.
struct BatchReport {
  int workers = 0;
  std::vector<BatchRunResult> runs;  // ordered by (request_index, rep)
  uint64_t ok_runs = 0;
  uint64_t failed_runs = 0;
  double wall_seconds = 0;        // host wall clock for the whole batch
  // Sum of simulated seconds across OK runs only. A trapped run carries the
  // partial simulated time it burned before the trap; folding that into the
  // throughput numerator would credit work whose results were discarded, so
  // it is reported separately below.
  double sim_seconds_total = 0;
  // Partial simulated seconds accumulated by FAILED runs before they
  // trapped; excluded from sim_seconds_total, worker makespans, and
  // throughput.
  double failed_sim_seconds = 0;
  double sim_makespan_seconds = 0;
  std::vector<double> worker_sim_seconds;  // indexed by worker; OK runs only
  // How many requests had observed run history (the rest estimate 0).
  uint64_t lpt_observed_requests = 0;

  bool all_ok() const { return failed_runs == 0; }
};

// Executes one request-rep on `session`: Reset() for isolation, stage the
// workload's inputs, compile-or-fetch through the session's engine,
// instantiate, run, and optionally read the output files back. ExecutorPool
// and ServingLoop workers call it per job; a caller with one Session may call
// it directly.
BatchRunResult ExecuteRequest(Session* session, const RunRequest& request,
                              size_t request_index, int rep, int worker);

// Fixed-size worker pool over one Engine. Construction spawns the workers;
// each builds its Session on its own thread and keeps it across batches.
// Run() may be called repeatedly (batches are serialized); the pool shuts
// down on destruction.
class ExecutorPool {
 public:
  ExecutorPool(Engine* engine, int workers);
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  // Expands `requests` into request×rep jobs and orders them
  // longest-processing-time-first by each request's OBSERVED mean simulated
  // seconds in the run history (RunHistory::ObservedSeconds), the classic
  // greedy makespan heuristic: big jobs can't land last and leave one worker
  // running alone. A request with no history estimates 0, so an entirely
  // cold batch keeps its queue order (request-major, then rep; the sort is
  // stable). Every completed run feeds the history (RunHistory::RecordRun),
  // so the estimates sharpen as batches repeat. Executes the jobs across the
  // workers (a free worker takes the next job), blocks until every job
  // finished, and aggregates the report. Results in the report stay in
  // (request_index, rep) order regardless of dispatch order.
  BatchReport Run(const std::vector<RunRequest>& requests);

  int workers() const { return static_cast<int>(threads_.size()); }
  Engine* engine() { return engine_; }

 private:
  struct Job {
    const RunRequest* request = nullptr;
    size_t request_index = 0;
    int rep = 0;
    size_t slot = 0;  // index into the results vector
  };

  void WorkerMain(int worker_index);

  Engine* engine_;

  std::mutex mu_;
  std::condition_variable cv_work_;  // workers: "a job or shutdown is ready"
  std::condition_variable cv_done_;  // Run(): "all jobs of this batch done"
  std::vector<Job> jobs_;
  size_t next_job_ = 0;
  size_t jobs_done_ = 0;
  bool shutdown_ = false;
  std::vector<BatchRunResult>* results_ = nullptr;  // slot-indexed, preallocated

  std::mutex run_mu_;  // serializes concurrent Run() callers
  std::vector<std::thread> threads_;
};

// Fills the aggregate fields of `report` (ok/failed counts, sim totals,
// per-worker sim seconds, makespan) from report->runs and report->workers.
// Only OK runs count toward sim_seconds_total and the per-worker makespans;
// failed runs' partial simulated time lands in failed_sim_seconds.
void FinalizeBatchReport(BatchReport* report);

}  // namespace engine
}  // namespace nsf

#endif  // SRC_ENGINE_EXECUTOR_H_
