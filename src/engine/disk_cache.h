// On-disk tier of the Engine's two-level code cache: serialized
// CompiledArtifact files under one cache directory, keyed by
// (module_hash, CodegenOptions::Fingerprint()).
//
//   nsfa-<module_hash:016x>-<fingerprint:016x>.bin
//
// Safety properties (the disk is shared state — other threads, other
// processes, and stray editors all touch it):
//   - Writes are atomic (WriteFileAtomic): write a uniquely named .tmp file
//     in the same directory, then rename() it over the final name. Readers
//     never observe a half-written file.
//   - Loads reject anything the codec rejects (bad magic/version/checksum,
//     truncation) AND any artifact whose stored key disagrees with the file
//     name's key; rejected files are deleted and the caller recompiles.
//     A load failure is never fatal.
//   - Eviction is LRU, bounded by max_bytes: a store that pushes the
//     directory over budget evicts least-recently-used entries until it
//     fits. Concurrent eviction from another process just makes some loads
//     miss, which is safe.
//   - Cross-process single-writer: BeginCompile/EndCompile serialize cold
//     compiles of one key across PROCESSES with an exclusive-create
//     `.bin.lock` lease file. Two cold processes racing one NSF_CACHE_DIR
//     collapse onto one compiler: the loser waits for the lease to clear and
//     loads the winner's artifact. A lease whose file outlives its holder
//     (crash) is taken over once it looks stale.
//
// The file system is the tier's only record. A file's mtime is its LRU
// recency: stores stamp it at publish time and load hits touch it. Size is
// one in-memory byte counter, seeded by a directory walk on the first store
// (or DirSizeBytes()) and reset to the surviving bytes by every eviction
// walk; in between it only grows by this instance's own stores. Drift is
// benign: other processes' stores are seen at the next walk, and a re-store
// or discard overestimates, which only triggers an earlier walk. The walk
// also reclaims orphaned .tmp and stale .lock files.
//
// Thread-safe. All counters are atomics; the byte counter and eviction are
// serialized in-process by a mutex so two stores don't double-delete.
#ifndef SRC_ENGINE_DISK_CACHE_H_
#define SRC_ENGINE_DISK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/codegen/artifact.h"

namespace nsf {

class Profile;

namespace engine {

struct DiskCacheStats {
  uint64_t hits = 0;           // artifact loaded and accepted
  uint64_t misses = 0;         // no usable artifact (absent or rejected)
  uint64_t evictions = 0;      // files removed by the LRU size bound
  uint64_t load_failures = 0;  // present-but-rejected files (corruption, version)
  uint64_t stores = 0;         // artifacts written
  uint64_t lease_waits = 0;      // BeginCompile found another holder and waited
  uint64_t lease_takeovers = 0;  // stale lease files forcibly removed
  double deserialize_seconds = 0;  // wall time decoding accepted artifacts
  double serialize_seconds = 0;    // wall time encoding + writing artifacts
};

class DiskCodeCache {
 public:
  // An empty `dir` disables the tier (every call becomes a cheap no-op).
  // The directory is created on first use. max_bytes == 0 means unbounded.
  DiskCodeCache(std::string dir, uint64_t max_bytes);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }
  uint64_t max_bytes() const { return max_bytes_; }

  // Loads and decodes the artifact for the key. True on an accepted artifact
  // (counted as a hit; the file's mtime is touched, refreshing its LRU
  // recency). False on a miss or any rejection — rejected files are deleted
  // so they are not re-parsed on every future miss.
  bool Load(uint64_t module_hash, uint64_t fingerprint, CompiledArtifact* out);

  // Serializes and atomically publishes the artifact, then enforces the size
  // bound. Failures (disk full, permissions) are swallowed: the disk tier is
  // an optimization, never a correctness dependency.
  void Store(const CompiledArtifact& artifact);

  // Deletes the key's file, counting a load failure — for artifacts the
  // caller loaded successfully but rejected AFTER Load() accepted them
  // (semantic verification, src/codegen/verify.h).
  void Discard(uint64_t module_hash, uint64_t fingerprint);

  // --- Tiering-profile persistence ---
  // Warm-up Profiles (src/profile/profile.h) stored next to the artifacts as
  //   nsfp-<fnv1a(workload name):016x>.bin
  // so a warm process seeds its tiering policy from disk and skips the
  // interpreter warm-up. Deliberately OUTSIDE the byte counter and the LRU
  // bound: profiles are tiny, and evicting one would silently reintroduce a
  // warm-up pause. Same safety discipline as artifacts: atomic tmp+rename
  // stores, parse-rejected files deleted, failures never fatal.
  bool LoadProfile(const std::string& name, Profile* out);
  void StoreProfile(const std::string& name, const Profile& profile);
  // Full path of the profile file for a workload name (exposed for tests).
  std::string ProfilePathForName(const std::string& name) const;

  // Cross-process compile lease for one key. Returns true when the calling
  // process now HOLDS the key's lease (it created the `.bin.lock` file —
  // possibly after taking over a stale one) and must EndCompile() when its
  // compile+Store finishes, succeed or fail. Returns false when another
  // process held the lease and released it while we waited: the winner's
  // artifact should now be on disk, so re-probe Load() instead of compiling.
  // A disabled tier returns true (no cross-process state to serialize).
  //
  // Because a winner Store()s before it EndCompile()s, "lease acquired but
  // Exists() is already true" means another process published between the
  // caller's cold probe and its acquire — re-probe Load() in that case too.
  bool BeginCompile(uint64_t module_hash, uint64_t fingerprint);
  void EndCompile(uint64_t module_hash, uint64_t fingerprint);

  // True when a published artifact file for the key exists right now: one
  // stat, no decode, no hit/miss accounting.
  bool Exists(uint64_t module_hash, uint64_t fingerprint) const;

  // Artifact bytes per the in-memory counter (seeded from a directory walk
  // on the first call or store).
  uint64_t DirSizeBytes() const;

  // Full path of the artifact file for a key (exposed for tests that corrupt
  // or truncate cache entries on purpose).
  std::string PathForKey(uint64_t module_hash, uint64_t fingerprint) const;
  // Path of the key's lease file (exposed for tests that fake stale leases).
  std::string LockPathForKey(uint64_t module_hash, uint64_t fingerprint) const;

  // Shrinks the lease timing so tests can exercise waiting and stale-lease
  // takeover without multi-second sleeps. Call before any BeginCompile.
  void SetLeaseTimingForTest(uint64_t stale_age_ms, uint64_t poll_ms,
                             uint64_t wait_max_ms);

  DiskCacheStats stats() const;
  void ResetStats();

 private:
  void EvictToFit();
  bool EnsureDirLocked();
  // Lists published artifacts, reclaiming stale orphans on the way, and
  // returns their total bytes; `files` (optional) receives the artifacts.
  struct ArtifactFile;
  uint64_t WalkLocked(std::vector<ArtifactFile>* files) const;

  std::string dir_;
  uint64_t max_bytes_;

  // Guards dir_ready_ and the byte counter. Mutable because DirSizeBytes()
  // lazily seeds the counter.
  mutable std::mutex dir_mu_;
  mutable bool dir_ready_ = false;  // directory creation attempted and succeeded
  mutable bool sized_ = false;      // total_bytes_ seeded by a walk
  mutable uint64_t total_bytes_ = 0;

  // Lease timing (test-tunable): a lock file older than stale_age is presumed
  // orphaned by a crashed holder and taken over; waiters poll every poll_ms;
  // wait_max is a backstop after which the waiter compiles anyway.
  uint64_t lease_stale_age_ms_ = 10000;
  uint64_t lease_poll_ms_ = 1;
  uint64_t lease_wait_max_ms_ = 60000;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> load_failures_{0};
  std::atomic<uint64_t> stores_{0};
  std::atomic<uint64_t> lease_waits_{0};
  std::atomic<uint64_t> lease_takeovers_{0};
  std::atomic<uint64_t> deserialize_nanos_{0};
  std::atomic<uint64_t> serialize_nanos_{0};
};

// Atomically publishes `size` bytes at `path`: writes a unique tmp file
// next to it, stamps its mtime from fs::file_time_type::clock (the clock
// Load's LRU touch uses, at full precision — kernel-set stamps are coarse
// enough for back-to-back stores to tie), and renames it into place. On any
// failure the tmp file is removed and false returned; `path` keeps its
// previous contents.
bool WriteFileAtomic(const std::string& path, const void* data, size_t size);

// The next tmp name WriteFileAtomic would use for `path`:
// "<path>.tmp.<pid>.<N>", unique across threads and processes sharing a
// directory (including a fork()ed child, whose counter starts equal).
std::string UniqueTmpPath(const std::string& path);

}  // namespace engine
}  // namespace nsf

#endif  // SRC_ENGINE_DISK_CACHE_H_
