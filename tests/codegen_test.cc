// Differential tests: every module is executed by the reference interpreter
// and by the simulated machine under each codegen profile; results must
// agree. This is the core correctness argument for the measurement study —
// both "browsers" and "native" run the same semantics, differing only in
// code quality.
#include "src/codegen/codegen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "src/builder/builder.h"
#include "src/codegen/opt.h"
#include "src/codegen/regalloc.h"
#include "src/interp/interp.h"
#include "src/machine/machine.h"
#include "src/polybench/polybench.h"
#include "src/spec/spec.h"
#include "src/wasm/validator.h"

namespace nsf {
namespace {

std::vector<CodegenOptions> AllProfiles() {
  return {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM(),
          CodegenOptions::ChromeAsmJs(), CodegenOptions::FirefoxAsmJs()};
}

class DiffTest : public ::testing::Test {
 protected:
  // Runs `name(args)` through the interpreter and all compiled profiles;
  // checks they all agree and returns the common result.
  uint64_t RunAllI(Module& m, const std::string& name, const std::vector<TypedValue>& args) {
    ValidationResult v = ValidateModule(m);
    EXPECT_TRUE(v.ok) << v.error;
    std::string error;
    auto inst = Instance::Create(m, nullptr, &error);
    EXPECT_NE(inst, nullptr) << error;
    ExecResult ref = inst->CallExport(name, args);
    EXPECT_TRUE(ref.ok) << ref.error;
    uint64_t expect = ref.values.empty() ? 0
                      : ref.values[0].type == ValType::kI32 ? ref.values[0].value.i32
                                                            : ref.values[0].value.i64;
    const Export* e = m.FindExport(name, ExternalKind::kFunc);
    EXPECT_NE(e, nullptr);
    for (const CodegenOptions& opts : AllProfiles()) {
      CompileResult cr = CompileModule(m, opts);
      EXPECT_TRUE(cr.ok) << opts.profile_name;
      SimMachine machine(&cr.program);
      // Stack-args ABI: Run()'s register args are ignored by generated code;
      // push args manually by building a tiny driver? Instead call with the
      // machine helper: write args to the stack the callee expects.
      MachineResult r = CallCompiled(machine, cr, *e, args, m);
      EXPECT_TRUE(r.ok) << opts.profile_name << ": " << r.error;
      uint64_t got = ref.values.empty() ? 0
                     : ref.values[0].type == ValType::kI32 ? (r.ret_i & 0xffffffffull)
                                                           : r.ret_i;
      EXPECT_EQ(got, expect) << opts.profile_name;
    }
    return expect;
  }

  // Calls a compiled function with our stack-argument ABI: stage the args
  // where [rbp+16+8i] will find them.
  static MachineResult CallCompiled(SimMachine& machine, const CompileResult& /*cr*/,
                                    const Export& e, const std::vector<TypedValue>& args,
                                    const Module& /*m*/) {
    // Stage arguments at the top of the stack so the callee's ParamRef reads
    // them: Run() sets rsp = stack top; the kCall pushes the return address.
    // We emulate a caller by pre-writing args at [stack_top - 8*n .. ) and
    // lowering rsp accordingly — done via a wrapper program would be cleaner,
    // but the machine lets us set rsp directly.
    uint64_t top = kStackBase + kStackSize;
    uint64_t args_base = top - 8 * args.size();
    for (size_t i = 0; i < args.size(); i++) {
      uint64_t bits = args[i].type == ValType::kI32   ? args[i].value.i32
                      : args[i].type == ValType::kF32 ? [&] {
                        uint32_t b;
                        float f = args[i].value.f32;
                        std::memcpy(&b, &f, 4);
                        return uint64_t{b};
                      }()
                      : args[i].type == ValType::kF64 ? [&] {
                        uint64_t b;
                        double d = args[i].value.f64;
                        std::memcpy(&b, &d, 8);
                        return b;
                      }()
                                                      : args[i].value.i64;
      // Direct write into stack memory through the public heap API is not
      // possible; use WriteStack below.
      machine.WriteStack(args_base + 8 * i, bits);
    }
    return machine.RunAt(e.index, args_base);
  }

  ExecResult RunInterp(Module& m, const std::string& name, const std::vector<TypedValue>& args) {
    std::string error;
    auto inst = Instance::Create(m, nullptr, &error);
    EXPECT_NE(inst, nullptr) << error;
    return inst->CallExport(name, args);
  }
};

TEST_F(DiffTest, Arithmetic) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  // ((a + b) * 7 - a) ^ (b >> 3) | (a & b)
  uint32_t t = f.AddLocal(ValType::kI32);
  f.LocalGet(0).LocalGet(1).I32Add().I32Const(7).I32Mul().LocalGet(0).I32Sub().LocalSet(t);
  f.LocalGet(t).LocalGet(1).I32Const(3).I32ShrS().I32Xor();
  f.LocalGet(0).LocalGet(1).I32And().I32Or();
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::I32(12345), TypedValue::I32(67890)});
}

TEST_F(DiffTest, DivRem) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  f.LocalGet(0).LocalGet(1).I32DivS();
  f.LocalGet(0).LocalGet(1).I32RemS();
  f.I32Add();
  f.LocalGet(0).LocalGet(1).I32DivU();
  f.I32Add();
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::I32(static_cast<uint32_t>(-1000)), TypedValue::I32(7)});
  Module m2 = mb.module();  // already moved; rebuild
}

TEST_F(DiffTest, Loops) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  uint32_t j = f.AddLocal(ValType::kI32);
  f.ForI32Dyn(i, 0, 0, 1, [&] {
    f.ForI32(j, 0, 13, 1, [&] {
      f.LocalGet(acc).LocalGet(i).I32Add().LocalGet(j).I32Xor().LocalSet(acc);
    });
  });
  f.LocalGet(acc);
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::I32(57)});
}

TEST_F(DiffTest, MemoryOps) {
  ModuleBuilder mb;
  mb.AddMemory(2);
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  uint32_t i = f.AddLocal(ValType::kI32);
  uint32_t addr = f.AddLocal(ValType::kI32);
  // Fill arr[i] = i*i at base 1024, then sum with strided access.
  f.ForI32(i, 0, 200, 1, [&] {
    f.I32Const(1024).LocalGet(i).I32Const(2).I32Shl().I32Add().LocalSet(addr);
    f.LocalGet(addr).LocalGet(i).LocalGet(i).I32Mul().I32Store(0);
  });
  uint32_t acc = f.AddLocal(ValType::kI32);
  f.ForI32(i, 0, 200, 3, [&] {
    f.I32Const(1024).LocalGet(i).I32Const(2).I32Shl().I32Add().LocalSet(addr);
    f.LocalGet(acc).LocalGet(addr).I32Load(0).I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::I32(0)});
}

TEST_F(DiffTest, AluMemPattern) {
  // C[i] += x pattern that the native profile fuses into add [mem], reg.
  ModuleBuilder mb;
  mb.AddMemory(1);
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  uint32_t i = f.AddLocal(ValType::kI32);
  uint32_t addr = f.AddLocal(ValType::kI32);
  f.ForI32(i, 0, 50, 1, [&] {
    f.I32Const(512).LocalGet(i).I32Const(2).I32Shl().I32Add().LocalSet(addr);
    f.LocalGet(addr);
    f.LocalGet(addr).I32Load(0).LocalGet(0).I32Add();
    f.I32Store(0);
  });
  f.I32Const(512).I32Load(196);  // arr[49]
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::I32(11)});
}

TEST_F(DiffTest, CallsAndRecursion) {
  ModuleBuilder mb;
  auto& fib = mb.AddFunction("fib", {ValType::kI32}, {ValType::kI32});
  fib.LocalGet(0).I32Const(2).I32LtS();
  fib.If([&] { fib.LocalGet(0).Return(); });
  fib.LocalGet(0).I32Const(1).I32Sub().Call(fib.index());
  fib.LocalGet(0).I32Const(2).I32Sub().Call(fib.index());
  fib.I32Add();
  Module m = mb.Build();
  EXPECT_EQ(RunAllI(m, "fib", {TypedValue::I32(15)}), 610u);
}

TEST_F(DiffTest, IndirectCalls) {
  ModuleBuilder mb;
  auto& dbl = mb.AddInternalFunction("dbl", {ValType::kI32}, {ValType::kI32});
  dbl.LocalGet(0).I32Const(2).I32Mul();
  auto& sq = mb.AddInternalFunction("sq", {ValType::kI32}, {ValType::kI32});
  sq.LocalGet(0).LocalGet(0).I32Mul();
  mb.AddTable(4);
  mb.AddElements(0, {dbl.index(), sq.index()});
  uint32_t sig = mb.AddType(FuncType{{ValType::kI32}, {ValType::kI32}});
  auto& f = mb.AddFunction("f", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  f.LocalGet(1).LocalGet(0).CallIndirect(sig);
  Module m = mb.Build();
  EXPECT_EQ(RunAllI(m, "f", {TypedValue::I32(0), TypedValue::I32(21)}), 42u);
  Module m2;
  {
    ModuleBuilder mb2;
    auto& d2 = mb2.AddInternalFunction("dbl", {ValType::kI32}, {ValType::kI32});
    d2.LocalGet(0).I32Const(2).I32Mul();
    auto& s2 = mb2.AddInternalFunction("sq", {ValType::kI32}, {ValType::kI32});
    s2.LocalGet(0).LocalGet(0).I32Mul();
    mb2.AddTable(4);
    mb2.AddElements(0, {d2.index(), s2.index()});
    uint32_t sig2 = mb2.AddType(FuncType{{ValType::kI32}, {ValType::kI32}});
    auto& g = mb2.AddFunction("f", {ValType::kI32, ValType::kI32}, {ValType::kI32});
    g.LocalGet(1).LocalGet(0).CallIndirect(sig2);
    m2 = mb2.Build();
  }
  EXPECT_EQ(RunAllI(m2, "f", {TypedValue::I32(1), TypedValue::I32(5)}), 25u);
}

TEST_F(DiffTest, Globals) {
  ModuleBuilder mb;
  uint32_t g = mb.AddGlobal(ValType::kI32, true, Instr::ConstI32(100));
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  f.GlobalGet(g).LocalGet(0).I32Add().GlobalSet(g);
  f.GlobalGet(g);
  Module m = mb.Build();
  EXPECT_EQ(RunAllI(m, "f", {TypedValue::I32(23)}), 123u);
}

TEST_F(DiffTest, FloatingPoint) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kF64, ValType::kF64}, {ValType::kF64});
  f.LocalGet(0).LocalGet(1).F64Mul();
  f.LocalGet(0).LocalGet(1).F64Add().F64Sqrt();
  f.F64Div();
  f.LocalGet(0).F64Sub().F64Abs();
  Module m = mb.Build();
  ValidationResult v = ValidateModule(m);
  ASSERT_TRUE(v.ok) << v.error;
  std::string error;
  auto inst = Instance::Create(m, nullptr, &error);
  ASSERT_NE(inst, nullptr);
  std::vector<TypedValue> args = {TypedValue::F64(3.5), TypedValue::F64(1.25)};
  ExecResult ref = inst->CallExport("f", args);
  ASSERT_TRUE(ref.ok);
  const Export* e = m.FindExport("f", ExternalKind::kFunc);
  for (const CodegenOptions& opts : AllProfiles()) {
    CompileResult cr = CompileModule(m, opts);
    ASSERT_TRUE(cr.ok);
    SimMachine machine(&cr.program);
    MachineResult r = DiffTest::CallCompiled(machine, cr, *e, args, m);
    ASSERT_TRUE(r.ok) << opts.profile_name << ": " << r.error;
    EXPECT_DOUBLE_EQ(r.ret_f, ref.values[0].value.f64) << opts.profile_name;
  }
}

TEST_F(DiffTest, FloatCompareNaN) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kF64, ValType::kF64}, {ValType::kI32});
  // eq + 2*lt + 4*gt + 8*ne
  f.LocalGet(0).LocalGet(1).F64Eq();
  f.LocalGet(0).LocalGet(1).F64Lt().I32Const(1).I32Shl().I32Or();
  f.LocalGet(0).LocalGet(1).F64Gt().I32Const(2).I32Shl().I32Or();
  f.LocalGet(0).LocalGet(1).Op(Opcode::kF64Ne).I32Const(3).I32Shl().I32Or();
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::F64(1.0), TypedValue::F64(2.0)});
  Module m2;
  {
    ModuleBuilder mb2;
    auto& g = mb2.AddFunction("f", {ValType::kF64, ValType::kF64}, {ValType::kI32});
    g.LocalGet(0).LocalGet(1).F64Eq();
    g.LocalGet(0).LocalGet(1).F64Lt().I32Const(1).I32Shl().I32Or();
    g.LocalGet(0).LocalGet(1).F64Gt().I32Const(2).I32Shl().I32Or();
    g.LocalGet(0).LocalGet(1).Op(Opcode::kF64Ne).I32Const(3).I32Shl().I32Or();
    m2 = mb2.Build();
  }
  RunAllI(m2, "f", {TypedValue::F64(std::nan("")), TypedValue::F64(2.0)});
}

TEST_F(DiffTest, Conversions) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kF64}, {ValType::kI32});
  f.LocalGet(0).I32TruncF64S();
  f.LocalGet(0).F64Neg().I32TruncF64S().I32Add();
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::F64(1234.75)});
}

TEST_F(DiffTest, I64Ops) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI64, ValType::kI64}, {ValType::kI64});
  f.LocalGet(0).LocalGet(1).Op(Opcode::kI64Mul);
  f.LocalGet(0).LocalGet(1).Op(Opcode::kI64Shl).Op(Opcode::kI64Add);
  f.LocalGet(0).Op(Opcode::kI64Popcnt).Op(Opcode::kI64Xor);
  Module m = mb.Build();
  RunAllI(m, "f", {TypedValue::I64(0x123456789abcdefull), TypedValue::I64(13)});
}

TEST_F(DiffTest, SelectAndBrTable) {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  uint32_t r = f.AddLocal(ValType::kI32);
  Instr bt;
  bt.op = Opcode::kBrTable;
  bt.table = {0, 1, 2};
  f.Block([&] {
    f.Block([&] {
      f.Block([&] {
        f.LocalGet(0);
        f.Emit(bt);
      });
      f.I32Const(10).LocalSet(r);
      f.Br(1);
    });
    f.I32Const(20).LocalSet(r);
    f.Br(0);
  });
  f.LocalGet(r);
  f.I32Const(5).I32Const(500).LocalGet(0).Select().I32Add();
  Module m = mb.Build();
  for (uint32_t x : {0u, 1u, 2u, 9u}) {
    Module mc;
    {
      ModuleBuilder mbc;
      auto& g = mbc.AddFunction("f", {ValType::kI32}, {ValType::kI32});
      uint32_t rr = g.AddLocal(ValType::kI32);
      Instr bt2;
      bt2.op = Opcode::kBrTable;
      bt2.table = {0, 1, 2};
      g.Block([&] {
        g.Block([&] {
          g.Block([&] {
            g.LocalGet(0);
            g.Emit(bt2);
          });
          g.I32Const(10).LocalSet(rr);
          g.Br(1);
        });
        g.I32Const(20).LocalSet(rr);
        g.Br(0);
      });
      g.LocalGet(rr);
      g.I32Const(5).I32Const(500).LocalGet(0).Select().I32Add();
      mc = mbc.Build();
    }
    RunAllI(mc, "f", {TypedValue::I32(x)});
  }
  (void)m;
}

TEST_F(DiffTest, HighRegisterPressure) {
  // Many simultaneously-live locals force spills, especially under the JIT
  // profiles' smaller pools.
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  std::vector<uint32_t> locals;
  for (int i = 0; i < 24; i++) {
    locals.push_back(f.AddLocal(ValType::kI32));
  }
  for (int i = 0; i < 24; i++) {
    f.LocalGet(0).I32Const(i + 1).I32Mul().LocalSet(locals[i]);
  }
  // Combine in reverse so everything stays live.
  f.I32Const(0);
  for (int i = 23; i >= 0; i--) {
    f.LocalGet(locals[i]).I32Add();
  }
  Module m = mb.Build();
  EXPECT_EQ(RunAllI(m, "f", {TypedValue::I32(3)}), 3u * (24 * 25 / 2));
}

TEST_F(DiffTest, TrapsMatch) {
  // Division by zero must trap under every backend.
  for (const CodegenOptions& opts : AllProfiles()) {
    ModuleBuilder mb;
    auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
    f.I32Const(1).LocalGet(0).I32DivS();
    Module m = mb.Build();
    CompileResult cr = CompileModule(m, opts);
    ASSERT_TRUE(cr.ok);
    SimMachine machine(&cr.program);
    const Export* e = m.FindExport("f", ExternalKind::kFunc);
    uint64_t top = kStackBase + kStackSize;
    machine.WriteStack(top - 8, 0);
    MachineResult r = machine.RunAt(e->index, top - 8);
    EXPECT_FALSE(r.ok) << opts.profile_name;
    EXPECT_EQ(r.trap, TrapKind::kDivByZero) << opts.profile_name;
  }
}

TEST_F(DiffTest, UnreachableTraps) {
  for (const CodegenOptions& opts : AllProfiles()) {
    ModuleBuilder mb;
    auto& f = mb.AddFunction("f", {}, {});
    f.Unreachable();
    Module m = mb.Build();
    CompileResult cr = CompileModule(m, opts);
    SimMachine machine(&cr.program);
    const Export* e = m.FindExport("f", ExternalKind::kFunc);
    MachineResult r = machine.RunAt(e->index, kStackBase + kStackSize);
    EXPECT_EQ(r.trap, TrapKind::kUnreachable) << opts.profile_name;
  }
}

TEST_F(DiffTest, IndirectCallChecksTrap) {
  CodegenOptions opts = CodegenOptions::ChromeV8();
  ModuleBuilder mb;
  auto& id = mb.AddInternalFunction("id", {ValType::kI32}, {ValType::kI32});
  id.LocalGet(0);
  auto& v = mb.AddInternalFunction("void_fn", {}, {});
  v.Op(Opcode::kNop);
  mb.AddTable(4);
  mb.AddElements(0, {id.index()});
  mb.AddElements(2, {v.index()});
  uint32_t sig = mb.AddType(FuncType{{ValType::kI32}, {ValType::kI32}});
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  f.I32Const(7).LocalGet(0).CallIndirect(sig);
  Module m = mb.Build();
  CompileResult cr = CompileModule(m, opts);
  ASSERT_TRUE(cr.ok);
  const Export* e = m.FindExport("f", ExternalKind::kFunc);
  auto run_with = [&](uint32_t idx) {
    SimMachine machine(&cr.program);
    uint64_t top = kStackBase + kStackSize;
    machine.WriteStack(top - 8, idx);
    return machine.RunAt(e->index, top - 8);
  };
  EXPECT_EQ(run_with(9).trap, TrapKind::kIndirectCallOutOfBounds);
  EXPECT_EQ(run_with(1).trap, TrapKind::kIndirectCallNull);
  EXPECT_EQ(run_with(2).trap, TrapKind::kIndirectCallTypeMismatch);
  MachineResult ok = run_with(0);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.ret_i & 0xffffffffull, 7ull);  // id(7)
}

TEST_F(DiffTest, JitProfilesGenerateMoreCode) {
  // The §6.3 effect: JIT-profile code is bigger than native-profile code.
  ModuleBuilder mb;
  mb.AddMemory(1);
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  uint32_t i = f.AddLocal(ValType::kI32);
  uint32_t addr = f.AddLocal(ValType::kI32);
  f.ForI32(i, 0, 100, 1, [&] {
    f.I32Const(0).LocalGet(i).I32Const(2).I32Shl().I32Add().LocalSet(addr);
    f.LocalGet(addr);
    f.LocalGet(addr).I32Load(0).LocalGet(i).I32Add();
    f.I32Store(0);
  });
  f.I32Const(0).I32Load(0);
  Module m = mb.Build();
  CompileResult native = CompileModule(m, CodegenOptions::NativeClang());
  CompileResult chrome = CompileModule(m, CodegenOptions::ChromeV8());
  EXPECT_LT(native.stats.code_bytes, chrome.stats.code_bytes);
  EXPECT_LT(native.stats.minstrs, chrome.stats.minstrs);
}

// The 38 programs of the paper's suites (23 PolyBench kernels, then the 15
// SPEC stand-ins), built once per test binary.
const std::vector<std::pair<std::string, Module>>& SuiteModules() {
  static const std::vector<std::pair<std::string, Module>> modules = [] {
    std::vector<std::pair<std::string, Module>> out;
    for (const std::string& name : PolybenchKernelNames()) {
      out.emplace_back(name, PolybenchSpec(name).build());
    }
    for (const std::string& name : SpecWorkloadNames()) {
      out.emplace_back(name, SpecWorkload(name).build());
    }
    return out;
  }();
  return modules;
}

// 64-bit FNV-1a, fed one little-endian 8-byte word per value.
class Fnv1a {
 public:
  template <typename T>
  void Add(T v) {
    uint64_t x = static_cast<uint64_t>(v);
    for (int i = 0; i < 8; i++) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Add(const MemRef& m) {
    Add(m.base.has_value());
    Add(m.base.value_or(Gpr::kRax));
    Add(m.index.has_value());
    Add(m.index.value_or(Gpr::kRax));
    Add(m.scale);
    Add(m.disp);
  }
  void Add(const Operand& o) {
    Add(o.kind);
    Add(o.gpr);
    Add(o.xmm);
    Add(o.imm);
    Add(o.mem);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

// Every emitted instruction of every suite program under each paper profile,
// hashed field by field (the lister-only `comment` aside). An allocator,
// liveness or pass change that alters one register, spill slot or branch
// target changes the hash; the constants are the pipeline's output as
// committed, so a mismatch means the generated code moved.
TEST(Codegen, PaperProfilesEmitPinnedCode) {
  const std::vector<std::pair<CodegenOptions, uint64_t>> pins = {
      {CodegenOptions::NativeClang(), 0xbf11b2013da553a4ull},
      {CodegenOptions::ChromeV8(), 0x60a6106bf61e5d23ull},
      {CodegenOptions::FirefoxSM(), 0xf8e3df09f268b5fdull},
  };
  for (const auto& [opts, want] : pins) {
    Fnv1a h;
    for (const auto& [name, module] : SuiteModules()) {
      CompileResult cr = CompileModule(module, opts);
      ASSERT_TRUE(cr.ok) << name << " under " << opts.profile_name << ": " << cr.error;
      for (const MFunction& f : cr.program.funcs) {
        h.Add(f.code.size());
        for (const MInstr& in : f.code) {
          h.Add(in.op);
          h.Add(in.dst);
          h.Add(in.src);
          h.Add(in.src2);
          h.Add(in.width);
          h.Add(in.sign_extend);
          h.Add(in.cond);
          h.Add(in.label);
          h.Add(in.func);
        }
        h.Add(f.frame_slots);
      }
      h.Add(cr.program.layout_order.size());
      for (uint32_t i : cr.program.layout_order) {
        h.Add(i);
      }
    }
    EXPECT_EQ(h.value(), want) << opts.profile_name << ": 0x" << std::hex << h.value();
  }
}

// The op-granularity liveness fixpoint ComputeLiveness used before it moved
// to basic blocks, kept as the reference the block version must reproduce:
// live_out(i) is the union over i's successors s of
// (live_out(s) - def(s)) | use(s), iterated from empty sets to a fixpoint.
std::vector<std::vector<uint64_t>> ReferenceLiveness(const VFunc& vf) {
  const size_t n = vf.ops.size();
  const uint32_t words = static_cast<uint32_t>((vf.vregs.size() + 63) / 64);
  std::vector<std::vector<uint64_t>> live_out(n, std::vector<uint64_t>(words, 0));

  std::unordered_map<uint32_t, uint32_t> label_at;
  for (size_t i = 0; i < n; i++) {
    if (vf.ops[i].k == VOp::K::kLabel) {
      label_at[vf.ops[i].label] = static_cast<uint32_t>(i);
    }
  }
  auto succs = [&](size_t i, uint32_t out[2]) -> int {
    const VOp& op = vf.ops[i];
    int count = 0;
    switch (op.k) {
      case VOp::K::kBr:
        out[count++] = label_at.at(op.label);
        break;
      case VOp::K::kBrIf:
      case VOp::K::kBrCmp:
        out[count++] = label_at.at(op.label);
        if (i + 1 < n) {
          out[count++] = static_cast<uint32_t>(i + 1);
        }
        break;
      case VOp::K::kRet:
      case VOp::K::kTrap:
        break;
      default:
        if (i + 1 < n) {
          out[count++] = static_cast<uint32_t>(i + 1);
        }
        break;
    }
    return count;
  };

  bool changed = true;
  std::vector<uint64_t> live(words);
  while (changed) {
    changed = false;
    for (size_t ii = n; ii > 0; ii--) {
      size_t i = ii - 1;
      std::fill(live.begin(), live.end(), 0);
      uint32_t sc[2];
      int ns = succs(i, sc);
      for (int s = 0; s < ns; s++) {
        const VOp& sop = vf.ops[sc[s]];
        std::vector<uint64_t> in = live_out[sc[s]];
        uint32_t d = DefOf(sop);
        if (d != kNoVReg) {
          in[d / 64] &= ~(uint64_t{1} << (d % 64));
        }
        ForEachUse(sop, [&in](uint32_t v) { in[v / 64] |= uint64_t{1} << (v % 64); });
        for (uint32_t w = 0; w < words; w++) {
          live[w] |= in[w];
        }
      }
      if (live != live_out[i]) {
        live_out[i] = live;
        changed = true;
      }
    }
  }
  return live_out;
}

// Checks every op's live-out against the reference.
void ExpectLivenessMatchesReference(const VFunc& vf) {
  Liveness lv = ComputeLiveness(vf);
  std::vector<std::vector<uint64_t>> want = ReferenceLiveness(vf);
  const uint32_t words = static_cast<uint32_t>((vf.vregs.size() + 63) / 64);
  ASSERT_EQ(lv.words, words);
  ASSERT_EQ(lv.bits.size(), vf.ops.size() * words);
  for (size_t i = 0; i < vf.ops.size(); i++) {
    ASSERT_TRUE(std::equal(want[i].begin(), want[i].end(), lv.out(i)))
        << "live-out differs at op " << i << " (" << VOpToString(vf.ops[i]) << ") of "
        << vf.ops.size();
  }
}

// CompileModule's pass sequence for `o` with no execution profile attached.
void RunProfilePasses(VFunc* vf, const CodegenOptions& o) {
  if (o.regalloc == RegAllocKind::kGraphColor) {
    CopyPropagate(vf);
  }
  if (o.rotate_loops) {
    RotateLoops(vf);
  }
  if (o.fuse_addressing) {
    FuseAddressing(vf);
    FuseAluMem(vf);
  }
}

// Every defined function of the 38 suite programs, lowered under each of the
// seven profiles, both straight after lowering and after the profile's
// passes.
TEST(Codegen, BlockLivenessMatchesOpLevelOnSuites) {
  const std::vector<CodegenOptions> profiles = {
      CodegenOptions::NativeClang(),   CodegenOptions::ChromeV8(),
      CodegenOptions::FirefoxSM(),     CodegenOptions::ChromeAsmJs(),
      CodegenOptions::FirefoxAsmJs(),  CodegenOptions::ChromeV8_2017(),
      CodegenOptions::ChromeV8_2018()};
  size_t checked = 0;
  for (const auto& [name, module] : SuiteModules()) {
    for (const CodegenOptions& opts : profiles) {
      for (uint32_t d = 0; d < module.functions.size(); d++) {
        SCOPED_TRACE(name + " function " + std::to_string(d) + " under " + opts.profile_name);
        VFunc vf = LowerFunction(module, d, opts);
        ExpectLivenessMatchesReference(vf);
        RunProfilePasses(&vf, opts);
        ExpectLivenessMatchesReference(vf);
        checked++;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

// Hand-built control-flow shapes the lowering never or rarely emits.
class LivenessShapes {
 public:
  explicit LivenessShapes(uint32_t num_vregs) {
    for (uint32_t i = 0; i < num_vregs; i++) {
      vf_.NewVReg(false, 4);
    }
  }
  uint32_t NewLabel() { return vf_.NewLabel(); }
  LivenessShapes& Const(uint32_t d) { return Push(VOp::K::kConst, d); }
  LivenessShapes& Add(uint32_t d, uint32_t a, uint32_t b) {
    Push(VOp::K::kBin, d, a, b);
    vf_.ops.back().wop = Opcode::kI32Add;
    return *this;
  }
  LivenessShapes& Label(uint32_t l) { return Push(VOp::K::kLabel, kNoVReg, kNoVReg, kNoVReg, l); }
  LivenessShapes& Br(uint32_t l) { return Push(VOp::K::kBr, kNoVReg, kNoVReg, kNoVReg, l); }
  LivenessShapes& BrIf(uint32_t a, uint32_t l) {
    return Push(VOp::K::kBrIf, kNoVReg, a, kNoVReg, l);
  }
  LivenessShapes& BrCmp(uint32_t a, uint32_t b, uint32_t l) {
    return Push(VOp::K::kBrCmp, kNoVReg, a, b, l);
  }
  LivenessShapes& Ret(uint32_t a) { return Push(VOp::K::kRet, kNoVReg, a); }
  LivenessShapes& Trap() { return Push(VOp::K::kTrap); }
  const VFunc& vf() const { return vf_; }

 private:
  LivenessShapes& Push(VOp::K k, uint32_t d = kNoVReg, uint32_t a = kNoVReg,
                       uint32_t b = kNoVReg, uint32_t label = 0) {
    VOp op;
    op.k = k;
    op.d = d;
    op.a = a;
    op.b = b;
    op.label = label;
    vf_.ops.push_back(op);
    return *this;
  }
  VFunc vf_;
};

TEST(Codegen, BlockLivenessMatchesOpLevelOnEdgeShapes) {
  {
    SCOPED_TRACE("no ops");
    ExpectLivenessMatchesReference(LivenessShapes(0).vf());
    ExpectLivenessMatchesReference(LivenessShapes(3).vf());
  }
  {
    SCOPED_TRACE("unreachable tail after a return, with no label");
    LivenessShapes f(4);
    f.Const(0).Const(1).Ret(0).Add(2, 1, 0).Add(3, 2, 1).Ret(3);
    ExpectLivenessMatchesReference(f.vf());
  }
  {
    SCOPED_TRACE("back edge to the function's first label");
    LivenessShapes f(4);
    uint32_t head = f.NewLabel();
    uint32_t exit = f.NewLabel();
    f.Label(head).Add(1, 0, 2).BrCmp(1, 3, exit).Const(2).Br(head).Label(exit).Ret(1);
    ExpectLivenessMatchesReference(f.vf());
  }
  {
    SCOPED_TRACE("conditional branch as the last op");
    LivenessShapes f(3);
    uint32_t head = f.NewLabel();
    f.Const(0).Label(head).Add(1, 1, 0).BrIf(1, head);
    ExpectLivenessMatchesReference(f.vf());
    LivenessShapes g(3);
    uint32_t top = g.NewLabel();
    g.Label(top).Add(2, 0, 1).BrCmp(2, 0, top);
    ExpectLivenessMatchesReference(g.vf());
  }
  {
    SCOPED_TRACE("two adjacent labels, branched to from both sides");
    LivenessShapes f(4);
    uint32_t a = f.NewLabel();
    uint32_t b = f.NewLabel();
    uint32_t out = f.NewLabel();
    f.Const(0).BrIf(0, b).Const(1).Label(a).Label(b).Add(2, 1, 0).BrCmp(2, 3, a);
    f.BrIf(2, out).Trap().Label(out).Ret(1);
    ExpectLivenessMatchesReference(f.vf());
  }
  {
    SCOPED_TRACE("an op that reads and defines one vreg, inside a loop");
    LivenessShapes f(4);
    uint32_t head = f.NewLabel();
    uint32_t exit = f.NewLabel();
    f.Const(0).Const(1).Label(head).Const(3).Add(0, 0, 1).Add(2, 0, 3).BrCmp(0, 2, exit);
    f.Br(head).Label(exit).Ret(0);
    ExpectLivenessMatchesReference(f.vf());
  }
  {
    SCOPED_TRACE("more than 64 vregs, live across a loop");
    constexpr uint32_t kVregs = 200;
    LivenessShapes f(kVregs + 1);
    for (uint32_t v = 0; v < kVregs; v++) {
      f.Const(v);
    }
    uint32_t head = f.NewLabel();
    uint32_t exit = f.NewLabel();
    f.Label(head);
    for (uint32_t v = 1; v < kVregs; v += 7) {
      f.Add(0, 0, v);
    }
    f.BrCmp(0, kVregs - 1, exit).Add(kVregs, 63, 64).Add(1, kVregs, 129).Br(head);
    f.Label(exit).Ret(0);
    ExpectLivenessMatchesReference(f.vf());
  }
}

}  // namespace
}  // namespace nsf
