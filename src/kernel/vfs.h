// In-memory filesystem (the BROWSERFS stand-in). Supports the two append
// growth strategies the paper discusses in §2: the original
// allocate-exact-and-copy behaviour (which made 464.h264ref spend 25s in
// Browsix) and the fixed grow-by-at-least-4KB behaviour.
#ifndef SRC_KERNEL_VFS_H_
#define SRC_KERNEL_VFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace nsf {

enum class GrowthPolicy {
  kExact,    // pre-fix BrowserFS: new buffer per append, full copy
  kChunked,  // fixed: grow capacity by >= 4 KiB
};

enum class InodeKind { kFile, kDir };

struct Inode {
  InodeKind kind = InodeKind::kFile;
  std::vector<uint8_t> data;        // file payload (size = file size)
  size_t capacity = 0;              // modeled capacity (kChunked)
  std::map<std::string, uint32_t> entries;  // directories
  uint64_t copy_bytes = 0;          // bytes copied due to growth (modeled)
  uint32_t nlink = 1;
};

// Result codes follow errno conventions (negative errno on failure).
inline constexpr int kEPERM = -1;
inline constexpr int kENOENT = -2;
inline constexpr int kEBADF = -9;
inline constexpr int kEEXIST = -17;
inline constexpr int kENOTDIR = -20;
inline constexpr int kEISDIR = -21;
inline constexpr int kEINVAL = -22;
inline constexpr int kENOTEMPTY = -39;
inline constexpr int kESPIPE = -29;

class MemFs {
 public:
  explicit MemFs(GrowthPolicy policy = GrowthPolicy::kChunked);

  // Path resolution ('/'-separated absolute paths; "." and ".." supported).
  // Returns inode id or kENOENT/kENOTDIR.
  int32_t Lookup(const std::string& path) const;

  // Creates a regular file (parents must exist). Returns inode id or -errno.
  int32_t CreateFile(const std::string& path);
  int32_t Mkdir(const std::string& path);
  int32_t Unlink(const std::string& path);
  int32_t Rmdir(const std::string& path);
  int32_t Rename(const std::string& from, const std::string& to);

  // Data access by inode id. ReadAt returns bytes read (0 at EOF).
  int64_t ReadAt(uint32_t inode, uint64_t offset, uint8_t* out, uint64_t len) const;
  // WriteAt extends the file as needed and returns bytes written.
  int64_t WriteAt(uint32_t inode, uint64_t offset, const uint8_t* data, uint64_t len);
  int32_t Truncate(uint32_t inode, uint64_t size);

  const Inode& inode(uint32_t id) const { return inodes_[id]; }
  Inode& inode(uint32_t id) { return inodes_[id]; }
  bool IsDir(uint32_t id) const { return inodes_[id].kind == InodeKind::kDir; }
  uint64_t SizeOf(uint32_t id) const { return inodes_[id].data.size(); }

  // Lists a directory's entry names (sorted).
  std::vector<std::string> List(uint32_t dir_inode) const;

  // Whole-file helpers: tests stage inputs and ExecuteRequest reads outputs
  // back with them.
  bool WriteFile(const std::string& path, const std::string& contents);
  bool WriteFile(const std::string& path, const std::vector<uint8_t>& contents);
  bool ReadFile(const std::string& path, std::vector<uint8_t>* out) const;
  std::string ReadFileString(const std::string& path) const;

  // Total bytes copied by the growth policy across all files — the §2
  // pathology metric.
  uint64_t total_copy_bytes() const;
  GrowthPolicy policy() const { return policy_; }

 private:
  struct Resolved {
    int32_t parent = kENOENT;
    int32_t node = kENOENT;  // may be kENOENT when last component missing
    std::string leaf;
  };
  Resolved Resolve(const std::string& path) const;
  void Grow(Inode& node, uint64_t needed);

  GrowthPolicy policy_;
  std::vector<Inode> inodes_;  // inode 0 = root dir
};

}  // namespace nsf

#endif  // SRC_KERNEL_VFS_H_
