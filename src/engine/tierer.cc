#include "src/engine/tierer.h"

#include <chrono>
#include <string>
#include <utility>

#include "src/engine/ebr.h"
#include "src/profile/tier.h"
#include "src/telemetry/trace.h"

namespace nsf {
namespace engine {

BackgroundTierer::BackgroundTierer(Engine* engine) : engine_(engine) {
  thread_ = std::thread([this] { ThreadMain(); });
}

BackgroundTierer::~BackgroundTierer() {
  Stop();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void BackgroundTierer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  done_cv_.notify_all();
}

void BackgroundTierer::Watch(uint64_t module_hash, uint64_t fingerprint, WorkloadSpec spec,
                             CodegenOptions base, std::shared_ptr<SampledProfile> sampler) {
  if (sampler == nullptr) {
    return;
  }
  auto w = std::make_unique<Watched>();
  w->module_hash = module_hash;
  w->fingerprint = fingerprint;
  w->spec = std::move(spec);
  w->base = std::move(base);
  w->sampler = std::move(sampler);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& existing : watches_) {
      if (existing->module_hash == w->module_hash && existing->fingerprint == w->fingerprint) {
        return;  // already watched (every warm CompileWorkload re-offers it)
      }
    }
    watches_.push_back(std::move(w));
  }
  cv_.notify_all();
}

size_t BackgroundTierer::watch_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watches_.size();
}

bool BackgroundTierer::PendingLocked() const {
  for (const auto& w : watches_) {
    if (w->in_progress) {
      return true;
    }
    if (!w->swapped && w->attempts < kMaxAttempts &&
        w->sampler->total_samples() >= kHotSamples) {
      return true;
    }
  }
  return false;
}

void BackgroundTierer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.notify_all();  // skip the remainder of the current scan sleep
  done_cv_.wait(lock, [&] { return stop_ || !PendingLocked(); });
}

void BackgroundTierer::ThreadMain() {
  // The recompile path probes the code cache's wait-free index; register
  // this thread's epoch slot up front like every executor thread does.
  ebr::EbrDomain::Global().RegisterCurrentThread();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    Watched* pick = nullptr;
    for (const auto& w : watches_) {
      if (!w->in_progress && !w->swapped && w->attempts < kMaxAttempts &&
          w->sampler->total_samples() >= kHotSamples) {
        pick = w.get();
        break;
      }
    }
    if (pick == nullptr) {
      done_cv_.notify_all();
      cv_.wait_for(lock, kScanPeriod);
      continue;
    }
    pick->in_progress = true;
    lock.unlock();
    bool swapped = false;
    try {
      swapped = TierOne(*pick);
    } catch (...) {
      // A throwing warm-up/compile must not kill the scan thread; the watch
      // just burns an attempt.
    }
    lock.lock();
    pick->in_progress = false;
    pick->attempts++;
    pick->swapped = swapped;
    done_cv_.notify_all();
  }
  done_cv_.notify_all();
}

bool BackgroundTierer::TierOne(const Watched& w) {
  telemetry::Span span("tier.recompile", "engine");
  span.arg("workload", w.spec.name);

  // Preferred profile source: the full interpreter warm-up, run on THIS
  // thread (that is the whole point — the pause stays off the serve path).
  // It yields the same PGO options an offline Engine::TierUp would, so the
  // swapped-in code is byte-identical to an offline tiered compile, and
  // Engine::TierUp disk-persists the profile for the next process.
  std::string error;
  CodegenOptions tiered = engine_->TierUp(w.spec, w.base, &error);
  // The module to recompile, rebuilt from its spec: the cache entry keeps
  // only compiled code.
  const Module module = w.spec.build();
  if (tiered.profile == nullptr) {
    // Warm-up failed (build error, trap): fall back to the profile the
    // samples themselves imply. Coarser — entry/back-edge weights only, no
    // per-site vectors — but enough for pgo_layout's hot/cold partitioning.
    // Insert under a distinct name so a later successful warm-up is not
    // shadowed.
    Profile sampled = w.sampler->ToProfile(module.NumImportedFuncs());
    if (sampled.num_funcs() == 0) {
      return false;
    }
    tiered = PgoOptions(w.base,
                        engine_->InsertProfile(w.spec.name + "#sampled", std::move(sampled)));
  }

  engine_->background_recompiles_.fetch_add(1, std::memory_order_relaxed);
  CompileInfo info;
  CompiledModuleRef tiered_code = engine_->Compile(module, tiered, &info);
  if (tiered_code == nullptr || !tiered_code->ok) {
    span.arg("error", tiered_code == nullptr ? "null result" : tiered_code->error);
    return false;
  }

  // The hot swap: publish the tiered module under the BASE key. Every future
  // lookup of the base (module, options) pair — which is what executors keep
  // asking for — now serves the recompiled code.
  telemetry::Span swap_span("tier.swap", "engine");
  swap_span.arg("workload", w.spec.name);
  swap_span.arg("profile", tiered_code->profile_name());
  engine_->cache().Republish(w.module_hash, w.fingerprint, tiered_code);
  engine_->tier_swaps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace engine
}  // namespace nsf
