#include "src/runtime/runtime.h"

#include <cstring>

#include "src/builder/builder.h"

namespace nsf {

bool InstanceMemPort::Read(uint32_t addr, void* out, uint32_t size) {
  auto& mem = instance_->memory();
  if (uint64_t{addr} + size > mem.size()) {
    return false;
  }
  std::memcpy(out, mem.data() + addr, size);
  return true;
}

bool InstanceMemPort::Write(uint32_t addr, const void* data, uint32_t size) {
  auto& mem = instance_->memory();
  if (uint64_t{addr} + size > mem.size()) {
    return false;
  }
  std::memcpy(mem.data() + addr, data, size);
  return true;
}

SyscallImports DeclareSyscallImports(ModuleBuilder* mb) {
  SyscallImports s;
  const auto i32 = ValType::kI32;
  s.open = mb->AddFuncImport("bsx", "open", {i32, i32}, {i32});
  s.close = mb->AddFuncImport("bsx", "close", {i32}, {i32});
  s.read = mb->AddFuncImport("bsx", "read", {i32, i32, i32}, {i32});
  s.write = mb->AddFuncImport("bsx", "write", {i32, i32, i32}, {i32});
  s.lseek = mb->AddFuncImport("bsx", "lseek", {i32, i32, i32}, {i32});
  s.fsize = mb->AddFuncImport("bsx", "fsize", {i32}, {i32});
  s.unlink = mb->AddFuncImport("bsx", "unlink", {i32}, {i32});
  s.mkdir = mb->AddFuncImport("bsx", "mkdir", {i32}, {i32});
  s.exit = mb->AddFuncImport("bsx", "exit", {i32}, {});
  s.time_ms = mb->AddFuncImport("bsx", "time_ms", {}, {i32});
  s.arg_count = mb->AddFuncImport("bsx", "arg_count", {}, {i32});
  s.arg_copy = mb->AddFuncImport("bsx", "arg_copy", {i32, i32}, {i32});
  return s;
}

namespace {

// Dispatches one bsx call by import name. Arguments arrive as raw u64 values;
// returns the value for rax (or the interp result).
uint64_t Dispatch(Process* p, const std::string& name, uint64_t a0, uint64_t a1, uint64_t a2,
                  uint64_t elapsed_ms) {
  auto i32 = [](uint64_t v) { return static_cast<uint32_t>(v); };
  auto ret = [](int64_t v) { return static_cast<uint64_t>(static_cast<uint32_t>(v)); };
  if (name == "open") {
    return ret(p->Open(p->ReadCString(i32(a0)), static_cast<int>(i32(a1))));
  }
  if (name == "close") {
    return ret(p->Close(static_cast<int>(i32(a0))));
  }
  if (name == "read") {
    return ret(p->Read(static_cast<int>(i32(a0)), i32(a1), i32(a2)));
  }
  if (name == "write") {
    return ret(p->Write(static_cast<int>(i32(a0)), i32(a1), i32(a2)));
  }
  if (name == "lseek") {
    return ret(p->Seek(static_cast<int>(i32(a0)), static_cast<int32_t>(i32(a1)),
                       static_cast<int>(i32(a2))));
  }
  if (name == "fsize") {
    Stat st;
    int32_t r = p->Fstat(static_cast<int>(i32(a0)), &st);
    return ret(r < 0 ? r : static_cast<int64_t>(st.size));
  }
  if (name == "unlink") {
    return ret(p->Unlink(p->ReadCString(i32(a0))));
  }
  if (name == "mkdir") {
    return ret(p->Mkdir(p->ReadCString(i32(a0))));
  }
  if (name == "exit") {
    p->exited = true;
    p->exit_code = static_cast<int>(i32(a0));
    return 0;
  }
  if (name == "time_ms") {
    return ret(static_cast<int64_t>(elapsed_ms));
  }
  if (name == "arg_count") {
    return ret(static_cast<int64_t>(p->argv().size()));
  }
  if (name == "arg_copy") {
    uint32_t idx = i32(a0);
    if (idx >= p->argv().size()) {
      return ret(-1);
    }
    const std::string& arg = p->argv()[idx];
    if (!p->mem()->Write(i32(a1), arg.data(), static_cast<uint32_t>(arg.size() + 1))) {
      return ret(-1);
    }
    return ret(static_cast<int64_t>(arg.size()));
  }
  return ret(-1);
}

}  // namespace

void BindSyscalls(SimMachine* machine, const CompileResult& compiled, Process* process) {
  for (uint32_t i = 0; i < compiled.import_names.size(); i++) {
    machine->RegisterHost(i, [name = compiled.import_names[i], process](SimMachine& mach) {
      uint64_t ms =
          static_cast<uint64_t>(mach.SecondsFromCycles(mach.counters().cycles()) * 1000.0);
      uint64_t r = Dispatch(process, name, mach.gpr(Gpr::kRdi), mach.gpr(Gpr::kRsi),
                            mach.gpr(Gpr::kRdx), ms);
      mach.set_gpr(Gpr::kRax, r);
    });
  }
}

std::unique_ptr<HostModule> MakeInterpSyscalls(Process* process) {
  auto host = std::make_unique<HostModule>();
  static const char* kNames[] = {"open",   "close", "read", "write",   "lseek",     "fsize",
                                 "unlink", "mkdir", "exit", "time_ms", "arg_count", "arg_copy"};
  for (const char* n : kNames) {
    std::string name = n;
    host->Register("bsx", name,
                   [name, process](Instance& /*inst*/, const std::vector<TypedValue>& args) {
                     auto get = [&args](size_t i) -> uint64_t {
                       return i < args.size() ? args[i].value.i32 : 0;
                     };
                     uint64_t r = Dispatch(process, name, get(0), get(1), get(2),
                                           /*elapsed_ms=*/0);
                     ExecResult out;
                     out.ok = true;
                     if (name != "exit") {
                       out.values.push_back(TypedValue::I32(static_cast<uint32_t>(r)));
                     }
                     return out;
                   });
  }
  return host;
}

}  // namespace nsf
