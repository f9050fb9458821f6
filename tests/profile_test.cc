// Tests for the PGO subsystem (src/profile/): collection determinism and
// exact site counts, binary serialization round-trips, hot-function ranking,
// the profile-guided codegen transforms (layout, cold-arm sinking,
// devirtualization) — including that PGO layout actually changes emitted
// code order without changing semantics — and Engine::TierUp.
#include "src/profile/profile.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/builder/builder.h"
#include "src/codegen/codegen.h"
#include "src/codegen/opt.h"
#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/interp/interp.h"
#include "src/polybench/polybench.h"
#include "src/wasm/validator.h"

namespace nsf {
namespace {

// All compiles go through one Engine: PGO variants fingerprint differently
// (the profile contents are hashed), so they never collide in its cache.
engine::Engine& TestEngine() {
  static engine::Engine instance;
  return instance;
}

engine::CompiledModuleRef Compile(const Module& m, const CodegenOptions& options) {
  return TestEngine().Compile(m, options);
}

// f(n): i = 0; loop { i++; br_if (i < n) -> loop }; return i
// (Bottom-test by construction; used for exact back-edge counting.)
Module LoopModule() {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  uint32_t i = f.AddLocal(ValType::kI32);
  f.LoopBlock([&] {
    f.LocalGet(i).I32Const(1).I32Add().LocalSet(i);
    f.LocalGet(i).LocalGet(0).I32LtS().BrIf(0);
  });
  f.LocalGet(i);
  return mb.Build();
}

// f(n): acc = 0; for (i = 0; i < n; i++) acc += i; return acc — the builder's
// top-test loop shape, i.e. what loop rotation targets.
Module TopTestLoopModule() {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.ForI32Dyn(i, 0, 0, 1, [&] { f.LocalGet(acc).LocalGet(i).I32Add().LocalSet(acc); });
  f.LocalGet(acc);
  return mb.Build();
}

// g(x): r = 7; if (x) { r = r * 3 + 1; }  return r  — the then-arm is cold
// when g is only ever called with x == 0.
Module ColdArmModule() {
  ModuleBuilder mb;
  auto& f = mb.AddFunction("g", {ValType::kI32}, {ValType::kI32});
  uint32_t r = f.AddLocal(ValType::kI32);
  f.I32Const(7).LocalSet(r);
  f.LocalGet(0);
  f.If([&] { f.LocalGet(r).I32Const(3).I32Mul().I32Const(1).I32Add().LocalSet(r); });
  f.LocalGet(r);
  return mb.Build();
}

// caller(sel): call_indirect through a 2-entry table; targets return 11 / 22.
Module IndirectModule() {
  ModuleBuilder mb;
  uint32_t type = mb.AddType(FuncType{{}, {ValType::kI32}});
  auto& f1 = mb.AddInternalFunction("t1", {}, {ValType::kI32});
  f1.I32Const(11);
  auto& f2 = mb.AddInternalFunction("t2", {}, {ValType::kI32});
  f2.I32Const(22);
  auto& caller = mb.AddFunction("caller", {ValType::kI32}, {ValType::kI32});
  caller.LocalGet(0).CallIndirect(type);
  mb.AddTable(2);
  mb.AddElements(0, {f1.index(), f2.index()});
  return mb.Build();
}

// Runs `name(args)` under the instrumented interpreter `times` times and
// returns the collected profile.
Profile Collect(const Module& m, const std::string& name,
                const std::vector<std::vector<TypedValue>>& calls) {
  std::string error;
  auto inst = Instance::Create(m, nullptr, &error);
  EXPECT_NE(inst, nullptr) << error;
  ProfileCollector collector(m);
  inst->set_profile_collector(&collector);
  for (const auto& args : calls) {
    ExecResult r = inst->CallExport(name, args);
    EXPECT_TRUE(r.ok) << r.error;
  }
  return collector.profile();
}

// Runs a compiled export through a fresh Session (the compiled-code ABI).
engine::RunOutcome RunCompiled(const engine::CompiledModuleRef& code, const std::string& name,
                               const std::vector<uint64_t>& args) {
  engine::Session session(&TestEngine());
  engine::InstanceOptions opts;
  opts.entry = name;
  std::string err;
  std::unique_ptr<engine::Instance> instance = session.Instantiate(code, opts, &err);
  EXPECT_NE(instance, nullptr) << err;
  return instance->RunExport(name, args);
}

TEST(ProfileCollection, ExactSiteCounts) {
  Module m = LoopModule();
  Profile p = Collect(m, "f", {{TypedValue::I32(10)}});
  ASSERT_EQ(p.num_funcs(), 1u);
  const FuncProfile& fp = p.func(0);
  EXPECT_EQ(fp.entry_count, 1u);
  EXPECT_GT(fp.instrs_retired, 0u);
  // Body runs 10 times: the back edge is taken 9 times, falls through once.
  ASSERT_EQ(fp.loop_trips.size(), 1u);
  EXPECT_EQ(fp.loop_trips[0], 9u);
  ASSERT_EQ(fp.branches.size(), 1u);
  EXPECT_EQ(fp.branches[0].taken, 9u);
  EXPECT_EQ(fp.branches[0].not_taken, 1u);
}

TEST(ProfileCollection, IndirectHistogramAndEntryCounts) {
  Module m = IndirectModule();
  std::vector<std::vector<TypedValue>> calls;
  for (int i = 0; i < 20; i++) {
    calls.push_back({TypedValue::I32(0)});
  }
  calls.push_back({TypedValue::I32(1)});
  Profile p = Collect(m, "caller", calls);
  ASSERT_EQ(p.num_funcs(), 3u);
  const FuncProfile& caller = p.func(2);
  EXPECT_EQ(caller.entry_count, 21u);
  ASSERT_EQ(caller.indirect_sites.size(), 1u);
  const IndirectSiteProfile& site = caller.indirect_sites[0];
  EXPECT_EQ(site.targets.at(0), 20u);
  EXPECT_EQ(site.targets.at(1), 1u);
  uint32_t elem = 99;
  EXPECT_TRUE(site.Monomorphic(&elem));
  EXPECT_EQ(elem, 0u);
  EXPECT_EQ(p.func(0).entry_count, 20u);  // t1
  EXPECT_EQ(p.func(1).entry_count, 1u);   // t2
}

TEST(ProfileCollection, Deterministic) {
  Module m = LoopModule();
  Profile a = Collect(m, "f", {{TypedValue::I32(100)}, {TypedValue::I32(3)}});
  Profile b = Collect(m, "f", {{TypedValue::I32(100)}, {TypedValue::I32(3)}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.SerializeBinary(), b.SerializeBinary());
}

Profile SamplePayload() {
  Module m = IndirectModule();
  Profile p = Collect(m, "caller", {{TypedValue::I32(0)}, {TypedValue::I32(1)}});
  // Mix in a collected loop profile so every site kind is populated.
  Module lm = LoopModule();
  Profile lp = Collect(lm, "f", {{TypedValue::I32(12)}});
  Profile combined(4);
  for (uint32_t f = 0; f < p.num_funcs(); f++) {
    combined.func(f) = p.func(f);
  }
  combined.func(3) = lp.func(0);
  return combined;
}

TEST(ProfileSerialization, BinaryRoundTripByteIdentical) {
  Profile p = SamplePayload();
  std::vector<uint8_t> bytes = p.SerializeBinary();
  Profile parsed;
  std::string error;
  ASSERT_TRUE(Profile::ParseBinary(bytes, &parsed, &error)) << error;
  EXPECT_EQ(parsed, p);
  EXPECT_EQ(parsed.SerializeBinary(), bytes);
}

TEST(ProfileSerialization, RejectsMalformedInput) {
  Profile out;
  std::string error;
  EXPECT_FALSE(Profile::ParseBinary({}, &out, &error));
  EXPECT_FALSE(Profile::ParseBinary({'X', 'X', 'X', 'X', 1, 0}, &out, &error));
  std::vector<uint8_t> truncated = SamplePayload().SerializeBinary();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(Profile::ParseBinary(truncated, &out, &error));
}

TEST(ProfileRanking, HotFunctionsFirst) {
  Profile p(4);
  p.func(0).instrs_retired = 10;
  p.func(1).instrs_retired = 10000;
  p.func(2).instrs_retired = 0;
  p.func(2).entry_count = 5000;  // hot stub: many entries, no body instrs
  p.func(3).instrs_retired = 500;
  std::vector<uint32_t> order = p.FunctionsByHotness();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 2u);  // 5000 entries * 8 = 40000
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 3u);
  EXPECT_EQ(order[3], 0u);
}

TEST(PgoCodegen, LayoutPlacesHotFunctionFirst) {
  Module m = IndirectModule();  // t1, t2, caller (joint indices 0, 1, 2)
  Profile p = Profile::ForModule(m);
  p.func(1).instrs_retired = 100000;  // make t2 the hot function

  CodegenOptions base = CodegenOptions::ChromeV8();
  engine::CompiledModuleRef plain = Compile(m, base);
  ASSERT_TRUE(plain->ok);
  EXPECT_EQ(plain->program().funcs[0].code_base, 0u);  // identity layout

  CodegenOptions pgo = base;
  pgo.profile = &p;
  pgo.pgo_layout = true;
  engine::CompiledModuleRef laid = Compile(m, pgo);
  ASSERT_TRUE(laid->ok);
  EXPECT_EQ(laid->program().funcs[1].code_base, 0u);  // hot function placed first
  EXPECT_GT(laid->program().funcs[0].code_base, 0u);
  // Same function bodies, different placement only.
  EXPECT_EQ(laid->program().funcs[1].code.size(), plain->program().funcs[1].code.size());
}

TEST(PgoCodegen, ColdArmSinkingChangesBlockOrderNotSemantics) {
  Module m = ColdArmModule();
  std::vector<std::vector<TypedValue>> calls(50, {TypedValue::I32(0)});
  Profile p = Collect(m, "g", calls);
  ASSERT_EQ(p.func(0).branches.size(), 1u);
  EXPECT_EQ(p.func(0).branches[0].taken, 50u);  // always skips the then-arm

  CodegenOptions base = CodegenOptions::FirefoxSM();
  CodegenOptions pgo = base;
  pgo.profile = &p;
  pgo.pgo_layout = true;
  engine::CompiledModuleRef plain = Compile(m, base);
  engine::CompiledModuleRef sunk = Compile(m, pgo);
  ASSERT_TRUE(plain->ok);
  ASSERT_TRUE(sunk->ok);
  // The emitted block order changed...
  EXPECT_NE(MFunctionToString(plain->program().funcs[0]),
            MFunctionToString(sunk->program().funcs[0]));
  // ...but semantics did not, on both the hot and the cold path.
  for (uint32_t x : {0u, 1u, 9u}) {
    engine::RunOutcome r = RunCompiled(sunk, "g", {x});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.exit_code & 0xffffffffull, x != 0 ? 22u : 7u);
  }
  // The hot path takes strictly fewer taken-branches than before.
  engine::RunOutcome before = RunCompiled(plain, "g", {0});
  engine::RunOutcome after = RunCompiled(sunk, "g", {0});
  ASSERT_TRUE(before.ok && after.ok);
  EXPECT_LT(after.counters.taken_branches, before.counters.taken_branches);
}

TEST(PgoCodegen, DevirtualizesMonomorphicIndirectCall) {
  Module m = IndirectModule();
  std::vector<std::vector<TypedValue>> calls(30, {TypedValue::I32(0)});
  Profile p = Collect(m, "caller", calls);

  CodegenOptions base = CodegenOptions::ChromeV8();  // indirect_check on
  CodegenOptions pgo = base;
  pgo.profile = &p;
  pgo.devirtualize_monomorphic = true;
  engine::CompiledModuleRef plain = Compile(m, base);
  engine::CompiledModuleRef devirt = Compile(m, pgo);
  ASSERT_TRUE(plain->ok);
  ASSERT_TRUE(devirt->ok);

  auto count_direct_calls = [](const MFunction& f, uint32_t target) {
    int n = 0;
    for (const MInstr& mi : f.code) {
      if (mi.op == MOp::kCall && mi.func == target) {
        n++;
      }
    }
    return n;
  };
  // caller is joint index 2; the hot target t1 is joint index 0.
  EXPECT_EQ(count_direct_calls(plain->program().funcs[2], 0), 0);
  EXPECT_EQ(count_direct_calls(devirt->program().funcs[2], 0), 1);

  // Fast path and fallback both still correct.
  engine::RunOutcome fast = RunCompiled(devirt, "caller", {0});
  ASSERT_TRUE(fast.ok) << fast.error;
  EXPECT_EQ(fast.exit_code & 0xffffffffull, 11u);
  engine::RunOutcome slow = RunCompiled(devirt, "caller", {1});
  ASSERT_TRUE(slow.ok) << slow.error;
  EXPECT_EQ(slow.exit_code & 0xffffffffull, 22u);

  // The guarded direct call retires fewer instructions than the checked
  // indirect sequence.
  engine::RunOutcome checked = RunCompiled(plain, "caller", {0});
  ASSERT_TRUE(checked.ok && fast.ok);
  EXPECT_LT(fast.counters.instructions_retired, checked.counters.instructions_retired);
}

TEST(PgoCodegen, HotLoopRotationCutsBranches) {
  Module m = TopTestLoopModule();
  Profile p = Collect(m, "f", {{TypedValue::I32(5000)}});
  ASSERT_GE(p.func(0).loop_trips[0], 4999u);

  CodegenOptions base = CodegenOptions::ChromeV8();  // top-test loops
  CodegenOptions pgo = base;
  pgo.profile = &p;
  pgo.pgo_rotate_hot_loops = true;
  engine::CompiledModuleRef plain = Compile(m, base);
  engine::CompiledModuleRef rotated = Compile(m, pgo);
  ASSERT_TRUE(plain->ok);
  ASSERT_TRUE(rotated->ok);

  auto run_counting = [&](const engine::CompiledModuleRef& code) {
    engine::RunOutcome r = RunCompiled(code, "f", {5000});
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.exit_code & 0xffffffffull, 12497500u);  // sum 0..4999
    return r.counters;
  };
  PerfCounters before = run_counting(plain);
  PerfCounters after = run_counting(rotated);
  EXPECT_LT(after.branches_retired, before.branches_retired);
  EXPECT_LE(after.cycles(), before.cycles());
}

TEST(TierUpTest, SetsFlagsAndCachesOneProfilePerName) {
  engine::EngineConfig config;
  config.cache_dir = "";  // a disk-tier profile would skip the warm-up
  engine::Engine eng(config);
  WorkloadSpec spec = PolybenchSpec("gemm");
  std::string error;
  CodegenOptions chrome = eng.TierUp(spec, CodegenOptions::ChromeV8(), &error);
  ASSERT_NE(chrome.profile, nullptr) << error;
  uint64_t instrs = 0;
  for (const FuncProfile& fp : chrome.profile->funcs()) {
    instrs += fp.instrs_retired;
  }
  EXPECT_GT(instrs, 0u);
  // The profile is cached per workload name, whatever the base options.
  CodegenOptions firefox = eng.TierUp(spec, CodegenOptions::FirefoxSM(), &error);
  EXPECT_EQ(firefox.profile, chrome.profile);
  EXPECT_EQ(eng.Stats().tier_warmups, 1u);

  for (const CodegenOptions& tiered : {chrome, firefox}) {
    EXPECT_TRUE(tiered.pgo_layout);
    EXPECT_TRUE(tiered.pgo_rotate_hot_loops);
    EXPECT_TRUE(tiered.devirtualize_monomorphic);
  }
  EXPECT_EQ(chrome.profile_name, "chrome-v8+pgo");
  EXPECT_EQ(firefox.profile_name, "firefox-spidermonkey+pgo");
}

TEST(TierUpTest, TieredRunValidatesAndDoesNotRegress) {
  // The warm-up profile is engine-owned, so the tiered options outlive this
  // scope safely.
  engine::Engine eng;
  engine::Session session(&eng);
  WorkloadSpec spec = PolybenchSpec("gemm");
  CodegenOptions base = CodegenOptions::ChromeV8();
  engine::BatchRunResult reference =
      engine::ExecuteRequest(&session, {spec, CodegenOptions::NativeClang()}, 0, 0, 0);
  ASSERT_TRUE(reference.ok) << reference.error;
  engine::BatchRunResult off = engine::ExecuteRequest(&session, {spec, base}, 0, 0, 0);
  ASSERT_TRUE(off.ok) << off.error;
  ASSERT_EQ(off.outputs, reference.outputs);
  std::string error;
  CodegenOptions tiered = eng.TierUp(spec, base, &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(eng.Stats().tier_warmups, 1u);
  engine::BatchRunResult on = engine::ExecuteRequest(&session, {spec, tiered}, 0, 0, 0);
  ASSERT_TRUE(on.ok) << on.error;
  ASSERT_EQ(on.outputs, reference.outputs);
  EXPECT_LE(on.outcome.counters.cycles(), off.outcome.counters.cycles());
  // The tiered recompile is itself cached: running again recompiles nothing.
  uint64_t compiles = eng.Stats().compiles;
  engine::BatchRunResult again = engine::ExecuteRequest(&session, {spec, tiered}, 0, 0, 0);
  ASSERT_TRUE(again.ok);
  EXPECT_TRUE(again.compile_info.hit);
  EXPECT_EQ(eng.Stats().compiles, compiles);
}

}  // namespace
}  // namespace nsf
