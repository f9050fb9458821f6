// MemFS + kernel syscall-surface tests, including the §2 growth-policy
// pathology, plus end-to-end Wasm programs doing file I/O under both the
// interpreter and the simulated machine.
#include "src/kernel/kernel.h"

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/codegen/codegen.h"
#include "src/interp/interp.h"
#include "src/machine/machine.h"
#include "src/runtime/runtime.h"
#include "src/runtime/wasmlib.h"
#include "src/wasm/validator.h"

namespace nsf {
namespace {

TEST(MemFs, CreateLookupReadWrite) {
  MemFs fs;
  EXPECT_EQ(fs.Lookup("/missing"), kENOENT);
  int32_t id = fs.CreateFile("/hello.txt");
  ASSERT_GE(id, 0);
  EXPECT_EQ(fs.Lookup("/hello.txt"), id);
  const char* msg = "hello world";
  EXPECT_EQ(fs.WriteAt(id, 0, reinterpret_cast<const uint8_t*>(msg), 11), 11);
  uint8_t buf[32];
  EXPECT_EQ(fs.ReadAt(id, 0, buf, 32), 11);
  EXPECT_EQ(std::string(buf, buf + 11), "hello world");
  EXPECT_EQ(fs.ReadAt(id, 6, buf, 32), 5);
  EXPECT_EQ(fs.ReadAt(id, 11, buf, 32), 0);  // EOF
}

TEST(MemFs, Directories) {
  MemFs fs;
  ASSERT_GE(fs.Mkdir("/a"), 0);
  ASSERT_GE(fs.Mkdir("/a/b"), 0);
  ASSERT_GE(fs.CreateFile("/a/b/f.txt"), 0);
  EXPECT_EQ(fs.Mkdir("/a"), kEEXIST);
  EXPECT_EQ(fs.Mkdir("/missing/x"), kENOENT);
  EXPECT_GE(fs.Lookup("/a/b/f.txt"), 0);
  EXPECT_EQ(fs.Lookup("/a/b/../b/f.txt"), fs.Lookup("/a/b/f.txt"));
  auto names = fs.List(static_cast<uint32_t>(fs.Lookup("/a")));
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "b");
  EXPECT_EQ(fs.Rmdir("/a"), kENOTEMPTY);
  EXPECT_EQ(fs.Unlink("/a/b/f.txt"), 0);
  EXPECT_EQ(fs.Rmdir("/a/b"), 0);
  EXPECT_EQ(fs.Rmdir("/a"), 0);
}

TEST(MemFs, RenameMovesFiles) {
  MemFs fs;
  fs.WriteFile("/x.txt", "data");
  ASSERT_GE(fs.Mkdir("/dir"), 0);
  EXPECT_EQ(fs.Rename("/x.txt", "/dir/y.txt"), 0);
  EXPECT_EQ(fs.Lookup("/x.txt"), kENOENT);
  EXPECT_EQ(fs.ReadFileString("/dir/y.txt"), "data");
}

TEST(MemFs, SparseWriteZeroFills) {
  MemFs fs;
  int32_t id = fs.CreateFile("/s");
  uint8_t b = 0xaa;
  fs.WriteAt(id, 100, &b, 1);
  EXPECT_EQ(fs.SizeOf(id), 101u);
  uint8_t buf[2];
  fs.ReadAt(id, 50, buf, 1);
  EXPECT_EQ(buf[0], 0);
}

TEST(MemFs, GrowthPolicyCopyBytes) {
  // The §2 pathology: appending in small chunks under kExact copies the
  // whole file every time (quadratic); kChunked is amortized.
  auto run = [](GrowthPolicy policy) {
    MemFs fs(policy);
    int32_t id = fs.CreateFile("/out");
    std::vector<uint8_t> chunk(64, 'x');
    for (int i = 0; i < 1000; i++) {
      fs.WriteAt(id, uint64_t{64} * i, chunk.data(), chunk.size());
    }
    return fs.total_copy_bytes();
  };
  uint64_t exact = run(GrowthPolicy::kExact);
  uint64_t chunked = run(GrowthPolicy::kChunked);
  EXPECT_GT(exact, chunked * 20) << "exact=" << exact << " chunked=" << chunked;
}

TEST(Kernel, OpenReadWriteSeekClose) {
  BrowsixKernel kernel;
  kernel.fs().WriteFile("/in.txt", "abcdefgh");
  // A null-memory process: use a local buffer port.
  class VecPort : public MemPort {
   public:
    std::vector<uint8_t> mem = std::vector<uint8_t>(4096);
    bool Read(uint32_t addr, void* out, uint32_t size) override {
      if (addr + size > mem.size()) return false;
      memcpy(out, mem.data() + addr, size);
      return true;
    }
    bool Write(uint32_t addr, const void* data, uint32_t size) override {
      if (addr + size > mem.size()) return false;
      memcpy(mem.data() + addr, data, size);
      return true;
    }
  } port;
  auto proc = kernel.CreateProcess(&port, {"test"});
  int fd = proc->Open("/in.txt", kO_RDONLY);
  ASSERT_GE(fd, 3);
  EXPECT_EQ(proc->Read(fd, 0, 4), 4);
  EXPECT_EQ(port.mem[0], 'a');
  EXPECT_EQ(proc->Seek(fd, 2, kSeekSet), 2);
  EXPECT_EQ(proc->Read(fd, 8, 2), 2);
  EXPECT_EQ(port.mem[8], 'c');
  EXPECT_EQ(proc->Seek(fd, -1, kSeekEnd), 7);
  EXPECT_EQ(proc->Read(fd, 16, 4), 1);
  EXPECT_EQ(proc->Close(fd), 0);
  EXPECT_EQ(proc->Read(fd, 0, 1), kEBADF);
  // Write a new file.
  int wfd = proc->Open("/out.txt", kO_WRONLY | kO_CREAT);
  port.mem[100] = 'Z';
  EXPECT_EQ(proc->Write(wfd, 100, 1), 1);
  proc->Close(wfd);
  EXPECT_EQ(kernel.fs().ReadFileString("/out.txt"), "Z");
  EXPECT_GT(proc->syscall_count(), 0u);
  EXPECT_GT(proc->browsix_cycles(), 0u);
}

TEST(Kernel, StdoutCaptureAndStdin) {
  BrowsixKernel kernel;
  class VecPort : public MemPort {
   public:
    std::vector<uint8_t> mem = std::vector<uint8_t>(256);
    bool Read(uint32_t addr, void* out, uint32_t size) override {
      memcpy(out, mem.data() + addr, size);
      return true;
    }
    bool Write(uint32_t addr, const void* data, uint32_t size) override {
      memcpy(mem.data() + addr, data, size);
      return true;
    }
  } port;
  auto proc = kernel.CreateProcess(&port, {"test"});
  proc->FeedStdin({'h', 'i'});
  EXPECT_EQ(proc->Read(0, 0, 10), 2);
  EXPECT_EQ(port.mem[0], 'h');
  memcpy(port.mem.data() + 32, "out!", 4);
  EXPECT_EQ(proc->Write(1, 32, 4), 4);
  EXPECT_EQ(proc->StdoutString(), "out!");
}

TEST(Kernel, Pipes) {
  BrowsixKernel kernel;
  class VecPort : public MemPort {
   public:
    std::vector<uint8_t> mem = std::vector<uint8_t>(256);
    bool Read(uint32_t addr, void* out, uint32_t size) override {
      memcpy(out, mem.data() + addr, size);
      return true;
    }
    bool Write(uint32_t addr, const void* data, uint32_t size) override {
      memcpy(mem.data() + addr, data, size);
      return true;
    }
  } port;
  auto proc = kernel.CreateProcess(&port, {"test"});
  int rfd;
  int wfd;
  ASSERT_EQ(proc->MakePipe(&rfd, &wfd), 0);
  memcpy(port.mem.data(), "pipe-data", 9);
  EXPECT_EQ(proc->Write(wfd, 0, 9), 9);
  EXPECT_EQ(proc->Read(rfd, 64, 4), 4);
  EXPECT_EQ(port.mem[64], 'p');
  EXPECT_EQ(proc->Read(rfd, 64, 100), 5);
  EXPECT_EQ(proc->Seek(rfd, 0, kSeekSet), kESPIPE);
}

TEST(Kernel, TransportCostsChunking) {
  BrowsixKernel kernel;
  TransportCosts c = kernel.costs();
  // One chunk for small payloads; multiple beyond 64 MB.
  EXPECT_EQ(kernel.TransportCycles(0), c.per_syscall);
  EXPECT_EQ(kernel.TransportCycles(100), c.per_syscall + 100 * c.per_byte_num / c.per_byte_den);
  uint64_t big = (64ull << 20) + 1;
  EXPECT_EQ(kernel.TransportCycles(big), 2 * c.per_syscall + big / 4);
}

// End-to-end: a Wasm program reads "/in.bin", sums bytes, writes decimal
// result to "/out.txt" and stdout — run under interp and all machine
// profiles; outputs must match byte-for-byte.
TEST(RuntimeE2E, FileSumProgram) {
  ModuleBuilder mb("filesum");
  mb.AddMemory(4);
  WasmLib lib = AddWasmLib(&mb, 4096);
  mb.AddData(256, std::string("/in.bin"));
  mb.AddData(280, std::string("/out.txt"));
  auto& main_fn = mb.AddFunction("main", {}, {ValType::kI32});
  const auto i32 = ValType::kI32;
  uint32_t fd = main_fn.AddLocal(i32);
  uint32_t buf = main_fn.AddLocal(i32);
  uint32_t n = main_fn.AddLocal(i32);
  uint32_t i = main_fn.AddLocal(i32);
  uint32_t sum = main_fn.AddLocal(i32);
  uint32_t ofd = main_fn.AddLocal(i32);
  main_fn.I32Const(256).I32Const(kO_RDONLY).Call(lib.sys.open).LocalSet(fd);
  main_fn.I32Const(65536).Call(lib.malloc).LocalSet(buf);
  main_fn.LocalGet(fd).LocalGet(buf).I32Const(65536).Call(lib.sys.read).LocalSet(n);
  main_fn.ForI32Dyn(i, 0, n, 1, [&] {
    main_fn.LocalGet(sum);
    main_fn.LocalGet(buf).LocalGet(i).I32Add().I32Load8U(0);
    main_fn.I32Add().LocalSet(sum);
  });
  main_fn.LocalGet(fd).Call(lib.sys.close).Drop();
  main_fn.I32Const(280).I32Const(kO_WRONLY | kO_CREAT | kO_TRUNC).Call(lib.sys.open)
      .LocalSet(ofd);
  main_fn.LocalGet(ofd).LocalGet(sum).Call(lib.print_u32);
  main_fn.LocalGet(ofd).Call(lib.newline);
  main_fn.LocalGet(ofd).Call(lib.sys.close).Drop();
  main_fn.I32Const(1).LocalGet(sum).Call(lib.print_u32);
  main_fn.LocalGet(sum);
  Module m = mb.Build();
  ValidationResult v = ValidateModule(m);
  ASSERT_TRUE(v.ok) << v.error;

  std::vector<uint8_t> input;
  for (int k = 0; k < 1000; k++) {
    input.push_back(static_cast<uint8_t>(k * 37));
  }
  uint64_t want_sum = 0;
  for (uint8_t b : input) {
    want_sum += b;
  }
  want_sum &= 0xffffffff;

  // Interpreter run.
  std::string interp_out;
  {
    BrowsixKernel kernel;
    kernel.fs().WriteFile("/in.bin", input);
    std::string err;
    // Two-phase: the process's memory port is rebound once the instance
    // exists (imports must resolve before instantiation).
    class Fwd : public ImportResolver {
     public:
      HostModule* inner = nullptr;
      const HostFunc* ResolveFunc(const std::string& mod, const std::string& name,
                                  const FuncType& type) override {
        return inner->ResolveFunc(mod, name, type);
      }
    } fwd;
    auto port = std::make_unique<InstanceMemPort>(nullptr);
    auto proc = kernel.CreateProcess(port.get(), {"filesum"});
    auto interp_host = MakeInterpSyscalls(proc.get());
    fwd.inner = interp_host.get();
    auto inst = Instance::Create(m, &fwd, &err);
    ASSERT_NE(inst, nullptr) << err;
    *port = InstanceMemPort(inst.get());
    ExecResult r = inst->CallExport("main", {});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.values[0].value.i32, want_sum);
    interp_out = kernel.fs().ReadFileString("/out.txt");
    EXPECT_EQ(interp_out, std::to_string(want_sum) + "\n");
    EXPECT_EQ(proc->StdoutString(), std::to_string(want_sum));
  }

  // Machine runs, all profiles.
  for (const auto& opts : {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(),
                           CodegenOptions::FirefoxSM()}) {
    BrowsixKernel kernel;
    kernel.fs().WriteFile("/in.bin", input);
    CompileResult cr = CompileModule(m, opts);
    ASSERT_TRUE(cr.ok);
    SimMachine machine(&cr.program);
    MachineMemPort port(&machine);
    auto proc = kernel.CreateProcess(&port, {"filesum"});
    BindSyscalls(&machine, cr, proc.get());
    const Export* e = m.FindExport("main", ExternalKind::kFunc);
    MachineResult r = machine.RunAt(e->index, kStackBase + kStackSize);
    ASSERT_TRUE(r.ok) << opts.profile_name << ": " << r.error;
    EXPECT_EQ(r.ret_i & 0xffffffffull, want_sum) << opts.profile_name;
    EXPECT_EQ(kernel.fs().ReadFileString("/out.txt"), interp_out) << opts.profile_name;
    EXPECT_GT(proc->browsix_cycles(), 0u);
    EXPECT_GT(machine.host_micro_cycles(), 0u);
  }
}

}  // namespace
}  // namespace nsf
