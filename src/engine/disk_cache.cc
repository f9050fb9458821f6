#include "src/engine/disk_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/profile/profile.h"
#include "src/support/str.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"
#include "src/wasm/artifact_codec.h"

namespace nsf {
namespace engine {

namespace fs = std::filesystem;

namespace {

constexpr const char* kFilePrefix = "nsfa-";
constexpr const char* kFileSuffix = ".bin";
constexpr const char* kLockSuffix = ".bin.lock";
// Orphaned .tmp and .lock files (a writer died between write and rename, or
// a lease holder crashed) older than this are reclaimed by the next
// directory walk; younger ones may still be in flight and are left alone.
constexpr auto kStaleOrphanAge = std::chrono::minutes(10);

// A published artifact file: "nsfa-<key>.bin" exactly — not an in-flight or
// orphaned "nsfa-<key>.bin.tmp.<pid>.<N>" or a ".bin.lock" lease. The single
// filter the directory walk uses, so the enforced bound and DirSizeBytes()
// always agree.
bool IsArtifactFile(const std::string& name) {
  return name.rfind(kFilePrefix, 0) == 0 && name.size() >= 4 &&
         name.compare(name.size() - 4, 4, kFileSuffix) == 0;
}

bool IsTmpFile(const std::string& name) {
  return name.find(".tmp.") != std::string::npos;
}

bool IsLockFile(const std::string& name) {
  return name.rfind(kFilePrefix, 0) == 0 && name.size() >= 9 &&
         name.compare(name.size() - 9, 9, kLockSuffix) == 0;
}

std::string FileNameForKey(uint64_t module_hash, uint64_t fingerprint) {
  return kFilePrefix +
         StrFormat("%016llx-%016llx", static_cast<unsigned long long>(module_hash),
                   static_cast<unsigned long long>(fingerprint)) +
         kFileSuffix;
}

// Tiering-profile files: "nsfp-" so the artifact filter (and therefore the
// byte counter, the LRU bound, and eviction) never sees them. The name is hashed
// because workload names are arbitrary strings; FNV-1a is process-independent
// (unlike std::hash) so warm processes find cold processes' files.
constexpr const char* kProfilePrefix = "nsfp-";

uint64_t HashWorkloadName(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string FileNameForProfile(const std::string& name) {
  return kProfilePrefix +
         StrFormat("%016llx", static_cast<unsigned long long>(HashWorkloadName(name))) +
         kFileSuffix;
}

uint64_t NanosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
}

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<size_t>(size));
  size_t read = size == 0 ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  return read == out->size();
}

}  // namespace

std::string UniqueTmpPath(const std::string& path) {
  static std::atomic<uint64_t> tmp_counter{0};
  return path + StrFormat(".tmp.%d.%llu", static_cast<int>(::getpid()),
                          static_cast<unsigned long long>(tmp_counter.fetch_add(1)));
}

bool WriteFileAtomic(const std::string& path, const void* data, size_t size) {
  std::string tmp = UniqueTmpPath(path);
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  size_t written = size == 0 ? 0 : std::fwrite(data, 1, size, f);
  bool ok = std::fclose(f) == 0 && written == size;
  std::error_code ec;
  if (ok) {
    fs::last_write_time(tmp, fs::file_time_type::clock::now(), ec);  // best effort
    fs::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) {
    fs::remove(tmp, ec);
  }
  return ok;
}

DiskCodeCache::DiskCodeCache(std::string dir, uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {}

std::string DiskCodeCache::PathForKey(uint64_t module_hash, uint64_t fingerprint) const {
  return dir_ + "/" + FileNameForKey(module_hash, fingerprint);
}

std::string DiskCodeCache::LockPathForKey(uint64_t module_hash, uint64_t fingerprint) const {
  return PathForKey(module_hash, fingerprint) + ".lock";
}

void DiskCodeCache::SetLeaseTimingForTest(uint64_t stale_age_ms, uint64_t poll_ms,
                                          uint64_t wait_max_ms) {
  lease_stale_age_ms_ = stale_age_ms;
  lease_poll_ms_ = poll_ms;
  lease_wait_max_ms_ = wait_max_ms;
}

// --- directory walk ------------------------------------------------------

struct DiskCodeCache::ArtifactFile {
  std::string name;
  uint64_t size = 0;
  fs::file_time_type mtime;
};

uint64_t DiskCodeCache::WalkLocked(std::vector<ArtifactFile>* files) const {
  uint64_t total = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    std::string name = entry.path().filename().string();
    std::error_code stat_ec;
    if (IsTmpFile(name) || IsLockFile(name)) {
      // Reclaim orphans from writers/lease-holders that died mid-flight;
      // recent ones may still be live and are left alone. (Live leases are
      // far younger than this: BeginCompile presumes them stale after
      // seconds, not minutes.)
      fs::file_time_type mtime = entry.last_write_time(stat_ec);
      if (!stat_ec && now - mtime > kStaleOrphanAge) {
        fs::remove(entry.path(), stat_ec);
      }
      continue;
    }
    if (!IsArtifactFile(name)) {
      continue;
    }
    ArtifactFile f;
    f.size = entry.file_size(stat_ec);
    if (stat_ec) {
      continue;
    }
    f.mtime = entry.last_write_time(stat_ec);
    if (stat_ec) {
      continue;
    }
    total += f.size;
    if (files != nullptr) {
      f.name = std::move(name);
      files->push_back(std::move(f));
    }
  }
  return total;
}

// --- artifact I/O ---------------------------------------------------------

bool DiskCodeCache::Load(uint64_t module_hash, uint64_t fingerprint, CompiledArtifact* out) {
  if (!enabled()) {
    return false;
  }
  telemetry::Span span("disk.load", "engine");
  std::string path = PathForKey(module_hash, fingerprint);
  std::vector<uint8_t> bytes;
  auto t0 = std::chrono::steady_clock::now();
  if (!ReadWholeFile(path, &bytes)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    span.arg("outcome", "miss");
    return false;
  }
  std::string error;
  bool accepted = DeserializeArtifact(bytes, out, &error) &&
                  out->module_hash == module_hash && out->options_fingerprint == fingerprint;
  if (!accepted) {
    // Corrupt, truncated, version-mismatched, or mis-keyed: delete so the
    // recompile that follows can repopulate a clean entry.
    std::error_code ec;
    fs::remove(path, ec);
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    span.arg("outcome", "rejected");
    return false;
  }
  uint64_t deser_ns = NanosSince(t0);
  deserialize_nanos_.fetch_add(deser_ns, std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  static telemetry::Histogram& deserialize_ns =
      *telemetry::MetricsRegistry::Global().GetHistogram("engine.disk.deserialize_ns");
  deserialize_ns.Record(deser_ns);
  if (span.active()) {
    span.arg("outcome", "hit");
    span.arg("bytes", static_cast<uint64_t>(bytes.size()));
  }
  // LRU touch: a hit makes this file the newest by mtime. Failure is
  // harmless (the file may have been evicted between read and touch).
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return true;
}

void DiskCodeCache::Discard(uint64_t module_hash, uint64_t fingerprint) {
  if (!enabled()) {
    return;
  }
  std::error_code ec;
  fs::remove(PathForKey(module_hash, fingerprint), ec);
  load_failures_.fetch_add(1, std::memory_order_relaxed);
}

bool DiskCodeCache::EnsureDirLocked() {
  if (!dir_ready_) {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec && !fs::is_directory(dir_, ec)) {
      return false;  // cannot create the cache dir; skip persistence quietly
    }
    dir_ready_ = true;
  }
  return true;
}

void DiskCodeCache::Store(const CompiledArtifact& artifact) {
  if (!enabled() || !artifact.ok()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(dir_mu_);
    if (!EnsureDirLocked()) {
      return;
    }
  }
  telemetry::Span span("disk.store", "engine");
  auto t0 = std::chrono::steady_clock::now();
  std::vector<uint8_t> bytes = SerializeArtifact(artifact);
  if (span.active()) {
    span.arg("bytes", static_cast<uint64_t>(bytes.size()));
  }
  // Two racing writers of one key both rename complete files; last rename
  // wins and both are valid.
  if (!WriteFileAtomic(PathForKey(artifact.module_hash, artifact.options_fingerprint),
                       bytes.data(), bytes.size())) {
    return;
  }
  uint64_t ser_ns = NanosSince(t0);
  serialize_nanos_.fetch_add(ser_ns, std::memory_order_relaxed);
  stores_.fetch_add(1, std::memory_order_relaxed);
  static telemetry::Histogram& serialize_ns =
      *telemetry::MetricsRegistry::Global().GetHistogram("engine.disk.serialize_ns");
  serialize_ns.Record(ser_ns);
  // Count the new bytes and enforce the bound. The first store seeds the
  // counter with a walk, which already sees the file just renamed in.
  std::lock_guard<std::mutex> lock(dir_mu_);
  if (sized_) {
    total_bytes_ += bytes.size();
  } else {
    total_bytes_ = WalkLocked(nullptr);
    sized_ = true;
  }
  if (max_bytes_ != 0 && total_bytes_ > max_bytes_) {
    EvictToFit();
  }
}

std::string DiskCodeCache::ProfilePathForName(const std::string& name) const {
  return dir_ + "/" + FileNameForProfile(name);
}

bool DiskCodeCache::LoadProfile(const std::string& name, Profile* out) {
  if (!enabled()) {
    return false;
  }
  std::string path = ProfilePathForName(name);
  std::vector<uint8_t> bytes;
  if (!ReadWholeFile(path, &bytes)) {
    return false;
  }
  std::string error;
  if (!Profile::ParseBinary(bytes, out, &error)) {
    // Same policy as corrupt artifacts: delete so the next miss recollects
    // instead of re-parsing a bad file forever.
    std::error_code ec;
    fs::remove(path, ec);
    load_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void DiskCodeCache::StoreProfile(const std::string& name, const Profile& profile) {
  if (!enabled()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(dir_mu_);
    if (!EnsureDirLocked()) {
      return;
    }
  }
  std::vector<uint8_t> bytes = profile.SerializeBinary();
  WriteFileAtomic(ProfilePathForName(name), bytes.data(), bytes.size());
}

uint64_t DiskCodeCache::DirSizeBytes() const {
  if (!enabled()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(dir_mu_);
  if (!sized_) {
    total_bytes_ = WalkLocked(nullptr);
    sized_ = true;
  }
  return total_bytes_;
}

void DiskCodeCache::EvictToFit() {
  // Caller holds dir_mu_. LRU by file mtime, name breaking ties; the walk
  // sees every process's stores and touches. A file another process removed
  // between the walk and our remove still counts as reclaimed.
  telemetry::Span span("disk.evict", "engine");
  std::vector<ArtifactFile> files;
  total_bytes_ = WalkLocked(&files);
  std::sort(files.begin(), files.end(), [](const ArtifactFile& a, const ArtifactFile& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  uint64_t evicted = 0;
  for (const ArtifactFile& f : files) {
    if (total_bytes_ <= max_bytes_) {
      break;
    }
    std::error_code rm_ec;
    if (fs::remove(dir_ + "/" + f.name, rm_ec) && !rm_ec) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evicted++;
    }
    total_bytes_ -= f.size;
  }
  if (span.active()) {
    span.arg("evicted", evicted);
    span.arg("dir_bytes", total_bytes_);
  }
}

// --- cross-process compile lease ------------------------------------------

bool DiskCodeCache::Exists(uint64_t module_hash, uint64_t fingerprint) const {
  if (!enabled()) {
    return false;
  }
  std::error_code ec;
  return fs::exists(PathForKey(module_hash, fingerprint), ec) && !ec;
}

bool DiskCodeCache::BeginCompile(uint64_t module_hash, uint64_t fingerprint) {
  if (!enabled()) {
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(dir_mu_);
    if (!EnsureDirLocked()) {
      return true;  // no shared directory, nothing to serialize against
    }
  }
  const std::string lock_path = LockPathForKey(module_hash, fingerprint);
  const auto t0 = std::chrono::steady_clock::now();
  const auto stale_age = std::chrono::milliseconds(lease_stale_age_ms_);
  const auto wait_max = std::chrono::milliseconds(lease_wait_max_ms_);
  telemetry::Span span("disk.lease", "engine");
  bool waited = false;
  for (;;) {
    // Exclusive create is the acquisition: exactly one process's open()
    // succeeds for a given path. Contents are for humans inspecting the dir.
    int fd = ::open(lock_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      std::string who = StrFormat("pid %d\n", static_cast<int>(::getpid()));
      ssize_t ignored = ::write(fd, who.data(), who.size());
      (void)ignored;
      ::close(fd);
      if (span.active()) {
        span.arg("outcome", waited ? "acquired_after_wait" : "acquired");
        span.arg("wait_ns", NanosSince(t0));
      }
      return true;
    }
    if (errno != EEXIST) {
      // The filesystem won't give us a lease (permissions, read-only, ...).
      // Compile without one — duplicated work, never incorrectness.
      span.arg("outcome", "unavailable");
      return true;
    }
    std::error_code ec;
    fs::file_time_type mtime = fs::last_write_time(lock_path, ec);
    if (ec) {
      continue;  // vanished between open and stat: retry the create at once
    }
    bool stale = fs::file_time_type::clock::now() - mtime > stale_age;
    bool timed_out = std::chrono::steady_clock::now() - t0 > wait_max;
    if (stale || timed_out) {
      // Presume the holder dead (stale) or wedged (timeout backstop): take
      // the lease over by force. If the removal races another waiter's, the
      // loop just re-contends the create.
      fs::remove(lock_path, ec);
      lease_takeovers_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!waited) {
      waited = true;
      lease_waits_.fetch_add(1, std::memory_order_relaxed);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(lease_poll_ms_));
    if (!fs::exists(lock_path, ec) && !ec) {
      // The holder released: its artifact should be on disk now. Don't
      // acquire — report "lost the race" so the caller re-probes Load().
      if (span.active()) {
        span.arg("outcome", "yielded");
        span.arg("wait_ns", NanosSince(t0));
      }
      return false;
    }
  }
}

void DiskCodeCache::EndCompile(uint64_t module_hash, uint64_t fingerprint) {
  if (!enabled()) {
    return;
  }
  std::error_code ec;
  fs::remove(LockPathForKey(module_hash, fingerprint), ec);
}

DiskCacheStats DiskCodeCache::stats() const {
  DiskCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.load_failures = load_failures_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.lease_waits = lease_waits_.load(std::memory_order_relaxed);
  s.lease_takeovers = lease_takeovers_.load(std::memory_order_relaxed);
  s.deserialize_seconds =
      static_cast<double>(deserialize_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  s.serialize_seconds =
      static_cast<double>(serialize_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

void DiskCodeCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  load_failures_.store(0, std::memory_order_relaxed);
  stores_.store(0, std::memory_order_relaxed);
  lease_waits_.store(0, std::memory_order_relaxed);
  lease_takeovers_.store(0, std::memory_order_relaxed);
  deserialize_nanos_.store(0, std::memory_order_relaxed);
  serialize_nanos_.store(0, std::memory_order_relaxed);
}

}  // namespace engine
}  // namespace nsf
