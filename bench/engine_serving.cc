// Serving-mode benchmark: open-loop arrivals against the ServingLoop, the
// tail-latency counterpart to engine_parallel's closed-loop makespans.
//
// Phases (full mode):
//   cold  — a low, below-knee offered load against the cold engine: the
//           backend compiles, compile joins, and disk-tier loads all land as
//           tail events attributed to the exact requests they stalled (each
//           leg's slowest list carries the attribution bits).
//   warm  — the identical leg rerun: the cold events must be gone, and with
//           them the compile-induced p99 inflation.
//   sweep — offered load swept as fractions of the calibrated capacity
//           (min(workers, cpus) / mean warm service time) to locate the
//           knee: below it goodput tracks offered and queues stay shallow;
//           past it the e2e p99 blows up and admission control starts
//           shedding.
//
// NSF_SERVING_SMOKE=1 runs only cold+warm at a token load and asserts zero
// shed — the CI-sized leg. Exit status asserts the acceptance criteria:
// below-knee goodput >= 95% of offered with zero shed, cold tail events
// present in the cold leg and absent from the warm rerun.
#include "bench/bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "src/engine/serving.h"

using namespace nsf;

namespace {

std::string SnapshotJson(const telemetry::Histogram::Snapshot& s) {
  return StrFormat(
      "{\"count\":%llu,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,\"p999\":%llu,\"max\":%llu}",
      (unsigned long long)s.count, (unsigned long long)s.p50, (unsigned long long)s.p90,
      (unsigned long long)s.p99, (unsigned long long)s.p999, (unsigned long long)s.max);
}

std::string SlowestJson(const std::vector<engine::ServedRequest>& slowest) {
  std::string out = "[";
  for (size_t i = 0; i < slowest.size(); i++) {
    const engine::ServedRequest& r = slowest[i];
    out += StrFormat(
        "%s{\"workload\":\"%s\",\"outcome\":\"%s\",\"queue_seconds\":%.6f,"
        "\"service_seconds\":%.6f,\"e2e_seconds\":%.6f,\"cold_compile\":%s,"
        "\"compile_join\":%s,\"disk_load\":%s}",
        i == 0 ? "" : ",", JsonEscape(r.workload).c_str(), engine::ServeOutcomeName(r.outcome),
        r.queue_seconds, r.service_seconds, r.e2e_seconds, r.cold_compile ? "true" : "false",
        r.compile_join ? "true" : "false", r.disk_load ? "true" : "false");
  }
  return out + "]";
}

std::string TenantJson(const engine::TenantReport& t) {
  return StrFormat(
      "{\"offered\":%llu,\"admitted\":%llu,\"completed\":%llu,\"failed\":%llu,"
      "\"shed_queue\":%llu,\"shed_slo\":%llu,\"abandoned\":%llu,"
      "\"offered_rps\":%.3f,\"goodput_rps\":%.3f,"
      "\"queue_ns\":%s,\"service_ns\":%s,\"e2e_ns\":%s,"
      "\"cold_compiles\":%llu,\"compile_joins\":%llu,\"disk_loads\":%llu,"
      "\"slowest\":%s}",
      (unsigned long long)t.offered, (unsigned long long)t.admitted,
      (unsigned long long)t.completed, (unsigned long long)t.failed,
      (unsigned long long)t.shed_queue, (unsigned long long)t.shed_slo,
      (unsigned long long)t.abandoned, t.offered_rps, t.goodput_rps,
      SnapshotJson(t.queue_ns).c_str(), SnapshotJson(t.service_ns).c_str(),
      SnapshotJson(t.e2e_ns).c_str(), (unsigned long long)t.cold_compiles,
      (unsigned long long)t.compile_joins, (unsigned long long)t.disk_loads,
      SlowestJson(t.slowest).c_str());
}

std::string LegJson(const engine::ServingReport& r) {
  std::string tenants;
  for (const engine::TenantReport& t : r.tenants) {
    tenants += (tenants.empty() ? "" : ",") + ("\"" + JsonEscape(t.name) + "\":" + TenantJson(t));
  }
  double goodput_ratio = r.offered > 0 ? static_cast<double>(r.completed) / r.offered : 0;
  double shed_rate = r.offered > 0 ? static_cast<double>(r.shed) / r.offered : 0;
  return StrFormat(
      "{\"workers\":%d,\"duration_seconds\":%.3f,\"wall_seconds\":%.3f,"
      "\"offered\":%llu,\"admitted\":%llu,\"completed\":%llu,\"failed\":%llu,"
      "\"shed\":%llu,\"abandoned\":%llu,\"offered_rps\":%.3f,\"goodput_rps\":%.3f,"
      "\"goodput_ratio\":%.4f,\"shed_rate\":%.4f,\"history_flushes\":%llu,"
      "\"accounted\":%s,\"tenants\":{%s}}",
      r.workers, r.duration_seconds, r.wall_seconds, (unsigned long long)r.offered,
      (unsigned long long)r.admitted, (unsigned long long)r.completed,
      (unsigned long long)r.failed, (unsigned long long)r.shed,
      (unsigned long long)r.abandoned, r.offered_rps, r.goodput_rps, goodput_ratio, shed_rate,
      (unsigned long long)r.history_flushes, r.accounted() ? "true" : "false", tenants.c_str());
}

// Tail-event totals across a leg's tenants.
struct TailEvents {
  uint64_t cold_compiles = 0;
  uint64_t compile_joins = 0;
  uint64_t disk_loads = 0;
};

TailEvents TailEventsOf(const engine::ServingReport& r) {
  TailEvents e;
  for (const engine::TenantReport& t : r.tenants) {
    e.cold_compiles += t.cold_compiles;
    e.compile_joins += t.compile_joins;
    e.disk_loads += t.disk_loads;
  }
  return e;
}

uint64_t WorstP99Ns(const engine::ServingReport& r) {
  uint64_t p99 = 0;
  for (const engine::TenantReport& t : r.tenants) {
    p99 = std::max(p99, t.e2e_ns.p99);
  }
  return p99;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("NSF_SERVING_SMOKE") != nullptr;
  printf("== Engine serving mode: open-loop arrivals, DRR fairness, admission control ==\n\n");
  engine::Engine& eng = SharedEngine();
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  bool failed = false;

  // Two tenants over PolyBench: "steady" (Poisson) and "spiky" (bursty,
  // double weight).
  std::vector<WorkloadSpec> suite = AllPolybench();
  const size_t n = suite.size();
  std::vector<engine::TenantConfig> tenants(2);
  tenants[0].name = "steady";
  tenants[0].weight = 1.0;
  for (size_t i : {size_t{0}, size_t{1}, size_t{2} % n}) {
    engine::RunRequest req;
    req.spec = suite[i];
    req.options = CodegenOptions::ChromeV8();
    req.collect_outputs = false;
    tenants[0].mix.push_back(std::move(req));
  }
  tenants[0].arrivals.kind = engine::ArrivalKind::kPoisson;
  tenants[0].arrivals.seed = 101;
  tenants[1].name = "spiky";
  tenants[1].weight = 2.0;  // interactive tenant: double DRR share
  for (size_t i : {size_t{3} % n, size_t{4} % n}) {
    engine::RunRequest req;
    req.spec = suite[i];
    req.options = CodegenOptions::ChromeV8();
    req.collect_outputs = false;
    tenants[1].mix.push_back(std::move(req));
  }
  tenants[1].arrivals.kind = engine::ArrivalKind::kBursty;
  tenants[1].arrivals.burst_factor = 4.0;
  tenants[1].arrivals.burst_fraction = 0.25;
  tenants[1].arrivals.seed = 202;

  auto set_rates = [&](double total_rps) {
    tenants[0].arrivals.rate_rps = total_rps * 0.7;
    tenants[1].arrivals.rate_rps = total_rps * 0.3;
  };

  engine::ServingConfig config;
  config.workers = 4;
  // Legs are short, so arm the p99 gate early enough to act within one.
  config.slo_min_samples = 8;
  config.duration_seconds = smoke ? 0.5 : 2.0;
  // PolyBench kernels simulate for ~200ms of host time each, so 4 workers
  // saturate near ~20 rps; these bases stay well below that knee anywhere.
  const double base_rps = smoke ? 8.0 : 10.0;

  auto run_leg = [&](const char* label, double rps) {
    set_rates(rps);
    fprintf(stderr, "%s leg: %.0f rps x %.1fs at %d workers...\n", label, rps,
            config.duration_seconds, config.workers);
    engine::ServingLoop loop(&eng, config);
    engine::ServingReport r = loop.Run(tenants);
    if (!r.accounted()) {
      fprintf(stderr, "!! %s leg: %llu offered != %llu completed + %llu failed + "
              "%llu shed + %llu abandoned\n",
              label, (unsigned long long)r.offered, (unsigned long long)r.completed,
              (unsigned long long)r.failed, (unsigned long long)r.shed,
              (unsigned long long)r.abandoned);
      failed = true;
    }
    if (r.failed != 0) {
      fprintf(stderr, "!! %s leg: %llu requests failed\n", label,
              (unsigned long long)r.failed);
      failed = true;
    }
    return r;
  };

  // --- Phase 1: cold engine — the tail events are the compiles ---
  engine::ServingReport cold = run_leg("cold", base_rps);
  TailEvents cold_events = TailEventsOf(cold);
  printf("cold  (%3.0f rps): goodput %.1f rps, worst e2e p99 %8.3f ms | tail events: "
         "%llu compiles, %llu joins, %llu disk loads\n",
         cold.offered_rps, cold.goodput_rps, WorstP99Ns(cold) / 1e6,
         (unsigned long long)cold_events.cold_compiles,
         (unsigned long long)cold_events.compile_joins,
         (unsigned long long)cold_events.disk_loads);
  // Against a cold engine SOMEBODY pays each key's artifact: a backend
  // compile, or a disk-tier load when NSF_CACHE_DIR is already warm.
  if (cold_events.cold_compiles + cold_events.disk_loads == 0) {
    fprintf(stderr, "!! cold leg shows no compile or disk-load tail events\n");
    failed = true;
  }

  // --- Phase 2: warm rerun — the cold tail must disappear ---
  engine::ServingReport warm = run_leg("warm", base_rps);
  TailEvents warm_events = TailEventsOf(warm);
  printf("warm  (%3.0f rps): goodput %.1f rps, worst e2e p99 %8.3f ms | tail events: "
         "%llu compiles, %llu joins, %llu disk loads\n",
         warm.offered_rps, warm.goodput_rps, WorstP99Ns(warm) / 1e6,
         (unsigned long long)warm_events.cold_compiles,
         (unsigned long long)warm_events.compile_joins,
         (unsigned long long)warm_events.disk_loads);
  if (warm_events.cold_compiles + warm_events.disk_loads + warm_events.compile_joins != 0) {
    fprintf(stderr, "!! warm rerun still paid cold tail events\n");
    failed = true;
  }
  double warm_goodput_ratio =
      warm.offered > 0 ? static_cast<double>(warm.completed) / warm.offered : 0;
  if (warm_goodput_ratio < 0.95 || warm.shed != 0) {
    fprintf(stderr, "!! warm below-knee leg: goodput %.1f%% of offered, %llu shed\n",
            warm_goodput_ratio * 100, (unsigned long long)warm.shed);
    failed = true;
  }

  // --- Phase 3: offered-load sweep to the knee (full mode only) ---
  std::string sweep_json;
  double capacity_rps = 0;
  double knee_rps = 0;
  if (!smoke) {
    // Capacity from the warm leg's observed mean service time.
    uint64_t service_sum_ns = 0;
    uint64_t service_count = 0;
    for (const engine::TenantReport& t : warm.tenants) {
      service_sum_ns += t.service_ns.sum;
      service_count += t.service_ns.count;
    }
    double mean_service = service_count > 0 ? service_sum_ns / 1e9 / service_count : 0.01;
    // Workers past the core count time-slice rather than add service.
    const int serving_cores = std::min(config.workers, std::max(1, cpus));
    capacity_rps = mean_service > 0 ? serving_cores / mean_service : 0;
    fprintf(stderr,
            "calibration: mean service %.3f ms -> ~%.0f rps capacity at %d workers on %d cpus\n",
            mean_service * 1e3, capacity_rps, config.workers, cpus);

    // Past the knee admission control takes over: an e2e SLO of 5x the mean
    // service time bounds how far the queues can inflate p99 — overload legs
    // shed instead of letting the backlog grow without bound.
    for (engine::TenantConfig& t : tenants) {
      t.p99_slo_seconds = std::max(5 * mean_service, 0.05);
    }

    std::vector<std::vector<std::string>> table = {
        {"load", "offered rps", "goodput rps", "goodput", "shed", "worst p99 ms"}};
    for (double fraction : {0.4, 0.7, 1.0, 1.5, 2.0}) {
      double rps = std::max(1.0, capacity_rps * fraction);
      engine::ServingReport leg = run_leg("sweep", rps);
      double ratio = leg.offered > 0 ? static_cast<double>(leg.completed) / leg.offered : 0;
      if (fraction <= 0.4 && (ratio < 0.95 || leg.shed != 0)) {
        fprintf(stderr, "!! below-knee sweep leg (%.1fx): goodput %.1f%%, %llu shed\n",
                fraction, ratio * 100, (unsigned long long)leg.shed);
        failed = true;
      }
      // Below the knee the DELIVERED rate tracks the offered rate and
      // nothing sheds; completed/offered alone would miss the knee because
      // the drain phase eventually completes whatever queued.
      if (leg.shed == 0 && leg.goodput_rps >= 0.9 * leg.offered_rps) {
        knee_rps = std::max(knee_rps, leg.offered_rps);
      }
      table.push_back({StrFormat("%.1fx", fraction), StrFormat("%.1f", leg.offered_rps),
                       StrFormat("%.1f", leg.goodput_rps), StrFormat("%.1f%%", ratio * 100),
                       StrFormat("%llu", (unsigned long long)leg.shed),
                       StrFormat("%.3f", WorstP99Ns(leg) / 1e6)});
      sweep_json += StrFormat("%s\"%.1f\":%s", sweep_json.empty() ? "" : ",", fraction,
                              LegJson(leg).c_str());
    }
    printf("\n%s\n", RenderTable(table).c_str());
  }

  std::string sweep_block = sweep_json.empty() ? "" : ",\"sweep\":{" + sweep_json + "}";
  std::string json = StrFormat(
      "\"mode\":\"%s\",\"workers\":%d,\"cpus\":%d,\"duration_seconds\":%.3f,"
      "\"capacity_rps_estimate\":%.3f,\"knee_rps\":%.3f,"
      "\"cold\":%s,\"warm\":%s%s",
      smoke ? "smoke" : "full", config.workers, cpus, config.duration_seconds, capacity_rps,
      knee_rps, LegJson(cold).c_str(), LegJson(warm).c_str(), sweep_block.c_str());
  WriteBenchJson("engine_serving", "{" + json + "}");

  printf("%s\n",
         failed ? "FAIL: see messages above."
                : StrFormat("OK: below-knee goodput %.1f%% of offered with zero shed; cold "
                            "tail events (%llu) absent from the warm rerun.",
                            warm_goodput_ratio * 100,
                            (unsigned long long)(cold_events.cold_compiles +
                                                 cold_events.disk_loads))
                      .c_str());
  return failed ? 1 : 0;
}
