// Emscripten-like userspace runtime: binds a compiled (or interpreted) Wasm
// program's "bsx" imports to a Browsix Process, and stages argv.
//
// Import ABI (module "bsx"):
//   open(path_ptr, flags) -> fd          read(fd, buf, len)   -> n
//   close(fd) -> 0/-errno                write(fd, buf, len)  -> n
//   lseek(fd, offset, whence) -> pos     fsize(fd)            -> size
//   unlink(path_ptr) -> 0/-errno         mkdir(path_ptr)      -> 0/-errno
//   exit(code)                           time_ms()            -> i32
//   arg_count() -> argc                  arg_copy(i, buf)     -> len
// All pointers are Wasm heap addresses; strings are NUL-terminated.
#ifndef SRC_RUNTIME_RUNTIME_H_
#define SRC_RUNTIME_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/interp/interp.h"
#include "src/kernel/kernel.h"
#include "src/machine/machine.h"

namespace nsf {

// MemPort adapter over the simulated machine.
class MachineMemPort : public MemPort {
 public:
  explicit MachineMemPort(SimMachine* machine) : machine_(machine) {}
  bool Read(uint32_t addr, void* out, uint32_t size) override {
    return machine_->HeapRead(addr, out, size);
  }
  bool Write(uint32_t addr, const void* data, uint32_t size) override {
    return machine_->HeapWrite(addr, data, size);
  }
  void ChargeCycles(uint64_t cycles) override { machine_->ChargeHostCycles(cycles); }

 private:
  SimMachine* machine_;
};

// MemPort adapter over the reference interpreter.
class InstanceMemPort : public MemPort {
 public:
  explicit InstanceMemPort(Instance* instance) : instance_(instance) {}
  bool Read(uint32_t addr, void* out, uint32_t size) override;
  bool Write(uint32_t addr, const void* data, uint32_t size) override;

 private:
  Instance* instance_;
};

// Declares the bsx imports on a ModuleBuilder; returns their function indices
// in a struct the workload generators use.
struct SyscallImports {
  uint32_t open = 0;
  uint32_t close = 0;
  uint32_t read = 0;
  uint32_t write = 0;
  uint32_t lseek = 0;
  uint32_t fsize = 0;
  uint32_t unlink = 0;
  uint32_t mkdir = 0;
  uint32_t exit = 0;
  uint32_t time_ms = 0;
  uint32_t arg_count = 0;
  uint32_t arg_copy = 0;
};

class ModuleBuilder;
SyscallImports DeclareSyscallImports(ModuleBuilder* mb);

// Binds the compiled module's function imports (the bsx calls) to `process`
// via machine host hooks: hook i dispatches on compiled.import_names[i].
void BindSyscalls(SimMachine* machine, const CompileResult& compiled, Process* process);

// Equivalent binding for the reference interpreter.
std::unique_ptr<HostModule> MakeInterpSyscalls(Process* process);

}  // namespace nsf

#endif  // SRC_RUNTIME_RUNTIME_H_
