// Background recompilation thread: the engine's one production tier-up path.
//
// Running the interpreter warm-up inline with a request would put the whole
// profiling pause into that request's latency. The BackgroundTierer keeps
// the pipeline off the serve path:
//
//   1. Executors run base-tier code with sampled always-on profiling
//      (src/profile/sampled.h): every Nth back-edge/call folds into the
//      module's shared SampledProfile sink on machine teardown.
//   2. This thread scans the sinks on a period. When a watched module's
//      sample total crosses the hotness threshold it runs the PGO pipeline
//      (Engine::TierUp) — by preference the full interpreter warm-up
//      (highest fidelity, artifacts byte-identical to an offline
//      Engine::TierUp + Compile, and the profile disk-persists for the next
//      process), falling back to a profile reconstructed from the samples
//      when the warm-up fails.
//   3. The recompiled module is hot-swapped into the CodeCache under the
//      BASE options key (CodeCache::Republish): the safe point is one
//      release-store into the wait-free hit index, in-flight runs finish on
//      the old code their shared_ptr pins, and the displaced index node is
//      retired through EBR.
//
// Executors never block on any of this: they keep taking warm hits on the
// old entry until the swap lands, then take warm hits on the new one.
//
// Owned by Engine (constructed when background_tiering + sample_period are
// both set); Engine::~Engine stops the thread before any shared state dies.
#ifndef SRC_ENGINE_TIERER_H_
#define SRC_ENGINE_TIERER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/engine/engine.h"

namespace nsf {
namespace engine {

class BackgroundTierer {
 public:
  // A watched module is hot once its sample total reaches kHotSamples; the
  // scan thread checks every kScanPeriod (Drain() wakes it early).
  static constexpr uint64_t kHotSamples = 64;
  static constexpr std::chrono::milliseconds kScanPeriod{5};

  explicit BackgroundTierer(Engine* engine);
  ~BackgroundTierer();  // Stop() + join

  // Registers the base-tier compile of `spec` under `base`, cached under
  // (module_hash, fingerprint), for tier-up watching. Deduped by that key.
  // Holds no compiled code: a tier-up rebuilds the module from `spec`.
  // Thread-safe.
  void Watch(uint64_t module_hash, uint64_t fingerprint, WorkloadSpec spec,
             CodegenOptions base, std::shared_ptr<SampledProfile> sampler);

  // Blocks until no watch is both past the threshold and still unswapped
  // (tests/benches want a deterministic "all swaps landed" point; production
  // never calls this). Watches that exhausted their attempts count as done.
  void Drain();

  // Stops the scan thread (idempotent; also done by the destructor).
  void Stop();

  size_t watch_count() const;

 private:
  struct Watched {
    // Immutable after registration (TierOne reads them without the lock).
    uint64_t module_hash = 0;
    uint64_t fingerprint = 0;  // BASE options key — the swap target
    WorkloadSpec spec;
    CodegenOptions base;
    std::shared_ptr<SampledProfile> sampler;
    // Scan-thread state, guarded by mu_.
    bool in_progress = false;
    bool swapped = false;
    int attempts = 0;
  };
  static constexpr int kMaxAttempts = 2;

  void ThreadMain();
  // The slow path, run OUTSIDE mu_: profile -> PGO compile -> hot swap.
  // True when the swap was published.
  bool TierOne(const Watched& w);
  bool PendingLocked() const;

  Engine* engine_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the scan thread
  std::condition_variable done_cv_;  // wakes Drain() waiters
  bool stop_ = false;
  std::vector<std::unique_ptr<Watched>> watches_;
  std::thread thread_;
};

}  // namespace engine
}  // namespace nsf

#endif  // SRC_ENGINE_TIERER_H_
