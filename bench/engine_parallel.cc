// Parallel-session throughput benchmark for the thread-safe Engine: sweeps
// 1/2/4/8 ExecutorPool workers over the PolyBench suite (both JIT profiles)
// sharing ONE engine and its sharded code cache.
//
// Two phases:
//   cold  — 8 workers race 2 reps of every (workload, profile) pair against
//           an empty cache: the per-entry compile latches must collapse all
//           concurrent requests for a key onto exactly one backend compile.
//   sweep — with the cache warm, each worker count runs the whole suite once;
//           throughput is reported in the simulator's own time domain
//           (runs per simulated second, from the schedule's makespan = max
//           over workers of simulated seconds executed), next to host wall
//           clock. Simulated throughput is the hardware-independent number:
//           host wall clock only scales with physical cores.
//   sched — the suite runs at 4 workers under FIFO and under LPT
//           (longest-processing-time-first by the observed simulated seconds
//           of the earlier phases); the makespan delta lands in
//           BENCH_engine_parallel.json.
//
// Exit status asserts the PR's acceptance criteria: no duplicate compiles for
// shared keys, and >1.5x suite throughput at 4 workers vs 1.
#include "bench/bench_util.h"

#include "src/engine/executor.h"

using namespace nsf;

namespace {

struct SweepLeg {
  int workers = 0;
  engine::BatchReport report;
};

}  // namespace

int main() {
  printf("== Engine parallel sessions: PolyBench suite across worker pools ==\n\n");
  engine::Engine& eng = SharedEngine();

  std::vector<engine::RunRequest> requests;
  for (const WorkloadSpec& spec : AllPolybench()) {
    for (const CodegenOptions& profile :
         {CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()}) {
      engine::RunRequest req;
      req.spec = spec;
      req.options = profile;
      req.reps = 1;
      req.collect_outputs = false;
      requests.push_back(std::move(req));
    }
  }
  const size_t pairs = requests.size();
  bool failed = false;

  // --- Phase 1: cold cache, 8 workers, 2 reps per pair ---
  std::vector<engine::RunRequest> cold_requests = requests;
  for (engine::RunRequest& r : cold_requests) {
    r.reps = 2;
  }
  fprintf(stderr, "cold phase: 8 workers x %zu pairs x 2 reps...\n", pairs);
  engine::BatchReport cold;
  {
    engine::ExecutorPool pool(&eng, 8);
    cold = pool.Run(cold_requests);
  }
  engine::EngineStats cs = cold.stats_after;  // engine was fresh before this
  uint64_t cold_runs = cold.runs.size();
  printf("cold (8 workers, %llu runs): %llu compiles, %llu hits, %llu misses, "
         "%llu joins, %llu lock waits (%.6fs blocked)\n",
         (unsigned long long)cold_runs, (unsigned long long)cs.compiles,
         (unsigned long long)cs.cache_hits, (unsigned long long)cs.cache_misses,
         (unsigned long long)cs.compile_joins, (unsigned long long)cs.lock_waits,
         cs.lock_wait_seconds);
  if (!cold.all_ok()) {
    fprintf(stderr, "!! cold phase: %llu runs failed\n",
            (unsigned long long)cold.failed_runs);
    failed = true;
  }
  // Each key costs one backend compile, or one disk-tier artifact load when a
  // persistent NSF_CACHE_DIR is already warm.
  if (cs.compiles + cs.disk_hits != pairs) {
    fprintf(stderr,
            "!! duplicate or missing compiles: %llu backend compiles + %llu disk loads "
            "for %zu keys\n",
            (unsigned long long)cs.compiles, (unsigned long long)cs.disk_hits, pairs);
    failed = true;
  }
  if (cs.cache_hits + cs.cache_misses != cold_runs) {
    fprintf(stderr, "!! hit/miss counters do not sum: %llu + %llu != %llu\n",
            (unsigned long long)cs.cache_hits, (unsigned long long)cs.cache_misses,
            (unsigned long long)cold_runs);
    failed = true;
  }

  // --- Phase 2: warm-cache throughput sweep ---
  std::vector<SweepLeg> legs;
  for (int workers : {1, 2, 4, 8}) {
    fprintf(stderr, "sweep: %d worker%s x %zu runs...\n", workers, workers == 1 ? "" : "s",
            pairs);
    engine::ExecutorPool pool(&eng, workers);
    SweepLeg leg;
    leg.workers = workers;
    leg.report = pool.Run(requests);
    if (!leg.report.all_ok()) {
      fprintf(stderr, "!! %d-worker leg: %llu runs failed\n", workers,
              (unsigned long long)leg.report.failed_runs);
      failed = true;
    }
    engine::EngineStats leg_stats =
        EngineStatsDelta(leg.report.stats_after, leg.report.stats_before);
    if (leg_stats.compiles != 0) {
      fprintf(stderr, "!! %d-worker leg recompiled %llu cached keys\n", workers,
              (unsigned long long)leg_stats.compiles);
      failed = true;
    }
    legs.push_back(std::move(leg));
  }

  double makespan_1 = legs[0].report.sim_makespan_seconds;
  std::vector<std::vector<std::string>> table = {{"workers", "runs", "sim makespan", "sim runs/s",
                                                  "speedup", "wall s", "lock waits"}};
  std::string sweep_json;
  double speedup_4 = 0;
  for (const SweepLeg& leg : legs) {
    const engine::BatchReport& r = leg.report;
    double throughput = r.sim_makespan_seconds > 0 ? r.runs.size() / r.sim_makespan_seconds : 0;
    double speedup = r.sim_makespan_seconds > 0 ? makespan_1 / r.sim_makespan_seconds : 0;
    if (leg.workers == 4) {
      speedup_4 = speedup;
    }
    uint64_t leg_lock_waits = EngineStatsDelta(r.stats_after, r.stats_before).lock_waits;
    table.push_back({StrFormat("%d", leg.workers), StrFormat("%zu", r.runs.size()),
                     StrFormat("%.6fs", r.sim_makespan_seconds), StrFormat("%.1f", throughput),
                     StrFormat("%.2fx", speedup), StrFormat("%.2f", r.wall_seconds),
                     StrFormat("%llu", (unsigned long long)leg_lock_waits)});
    sweep_json += StrFormat(
        "%s\"%d\":{\"runs\":%zu,\"ok_runs\":%llu,\"wall_seconds\":%.6f,"
        "\"sim_seconds_total\":%.9f,\"sim_makespan_seconds\":%.9f,"
        "\"throughput_runs_per_sim_second\":%.3f,\"speedup_vs_1worker\":%.3f,"
        "\"lock_waits\":%llu}",
        sweep_json.empty() ? "" : ",", leg.workers, r.runs.size(),
        (unsigned long long)r.ok_runs, r.wall_seconds, r.sim_seconds_total,
        r.sim_makespan_seconds, throughput, speedup, (unsigned long long)leg_lock_waits);
  }
  printf("\n%s\n", RenderTable(table).c_str());

  if (speedup_4 <= 1.5) {
    fprintf(stderr, "!! 4-worker suite throughput only %.2fx of 1 worker (need >1.5x)\n",
            speedup_4);
    failed = true;
  }

  // --- Phase 3: FIFO vs LPT scheduling at 4 workers ---
  // By now phases 1-2 have executed every request, so the run history
  // (RunHistory::RecordRun) holds OBSERVED simulated seconds for every key —
  // the estimates LPT orders by.
  uint64_t observed_keys = 0;
  for (const engine::RunRequest& req : requests) {
    observed_keys += eng.history().ObservedRuns(req.spec.name) > 0 ? 1 : 0;
  }
  engine::BatchReport fifo_leg;
  engine::BatchReport lpt_leg;
  {
    engine::ExecutorPool pool(&eng, 4);
    fifo_leg = pool.Run(requests, engine::SchedulePolicy::kFifo);
    lpt_leg = pool.Run(requests, engine::SchedulePolicy::kLpt);
  }
  if (!fifo_leg.all_ok() || !lpt_leg.all_ok()) {
    fprintf(stderr, "!! scheduling phase: %llu runs failed\n",
            (unsigned long long)(fifo_leg.failed_runs + lpt_leg.failed_runs));
    failed = true;
  }
  if (lpt_leg.lpt_observed_requests != requests.size()) {
    fprintf(stderr, "!! LPT leg: only %llu of %zu requests had observed run history\n",
            (unsigned long long)lpt_leg.lpt_observed_requests, requests.size());
    failed = true;
  }
  double fifo_makespan = fifo_leg.sim_makespan_seconds;
  double lpt_makespan = lpt_leg.sim_makespan_seconds;
  double makespan_delta = fifo_makespan - lpt_makespan;
  double lpt_speedup = lpt_makespan > 0 ? fifo_makespan / lpt_makespan : 0;
  printf("scheduling (4 workers, warm cache): %s makespan %.6fs, %s makespan %.6fs, "
         "delta %.6fs (%.2fx); LPT ordered %llu/%zu requests by observed sim seconds\n",
         engine::SchedulePolicyName(fifo_leg.schedule), fifo_makespan,
         engine::SchedulePolicyName(lpt_leg.schedule), lpt_makespan, makespan_delta,
         lpt_speedup, (unsigned long long)lpt_leg.lpt_observed_requests, requests.size());

  // The cold block shares the one EngineStats emission path (bench_util.h);
  // the engine was fresh before the cold phase, so cs is the phase delta.
  std::string json = StrFormat(
      "\"suite\":\"polybench\",\"pairs\":%zu,"
      "\"cold\":%s,"
      "\"sweep\":{%s},\"speedup_4_vs_1\":%.3f,"
      "\"scheduling\":{\"workers\":4,\"%s_makespan_seconds\":%.9f,"
      "\"%s_makespan_seconds\":%.9f,\"makespan_delta_seconds\":%.9f,"
      "\"lpt_speedup\":%.3f,\"lpt_estimator\":\"observed-sim-seconds\","
      "\"lpt_observed_requests\":%llu,\"observed_keys\":%llu}",
      pairs,
      EngineStatsJsonWith(cs, StrFormat("\"workers\":8,\"runs\":%llu,"
                                        "\"duplicate_compiles\":%llu",
                                        (unsigned long long)cold_runs,
                                        (unsigned long long)(cs.compiles > pairs
                                                                 ? cs.compiles - pairs
                                                                 : 0)))
          .c_str(),
      sweep_json.c_str(), speedup_4, engine::SchedulePolicyName(fifo_leg.schedule),
      fifo_makespan, engine::SchedulePolicyName(lpt_leg.schedule), lpt_makespan,
      makespan_delta, lpt_speedup, (unsigned long long)lpt_leg.lpt_observed_requests,
      (unsigned long long)observed_keys);
  WriteBenchJson("engine_parallel", "{" + json + "}");

  printf("%s\n", failed ? "FAIL: see messages above."
                        : StrFormat("OK: %zu keys compiled once under 8-way contention; "
                                    "4-worker suite throughput %.2fx of 1 worker.",
                                    pairs, speedup_4)
                              .c_str());
  return failed ? 1 : 0;
}
