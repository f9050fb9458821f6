// Engine/Session/Instance embedder API: content-addressed code-cache
// semantics (hit on identical content, miss on any semantic difference,
// byte-identical programs across engines), session-level VFS sharing and
// Reset() isolation, engine statistics, CompiledArtifact round-trips, and
// the disk tier (persistence, corruption rejection, LRU eviction).
#include "src/engine/engine.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/engine/executor.h"
#include "src/kernel/kernel.h"
#include "src/polybench/polybench.h"
#include "src/runtime/wasmlib.h"
#include "src/support/str.h"
#include "src/telemetry/metrics.h"
#include "src/wasm/artifact_codec.h"
#include "src/wasm/encoder.h"

namespace nsf {
namespace {

// The compile-count assertions below assume engines have no ambient disk
// tier; a developer's exported NSF_CACHE_DIR must not leak into them. Tests
// that want the disk tier set EngineConfig::cache_dir explicitly.
[[maybe_unused]] const bool kEnvScrubbed = [] {
  unsetenv("NSF_CACHE_DIR");
  unsetenv("NSF_CACHE_MAX_BYTES");
  return true;
}();

// Fresh private directory for one disk-cache test; removed by the guard.
struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("nsf-engine-test-" + tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

engine::EngineConfig DiskConfig(const std::string& dir, uint64_t max_bytes = 0) {
  engine::EngineConfig config;
  config.cache_dir = dir;
  config.disk_cache_max_bytes = max_bytes;
  return config;
}

// sum_squares(n): the quickstart kernel — small, pure, deterministic.
Module SumSquaresModule(int32_t bias = 0) {
  ModuleBuilder mb("sum_squares");
  auto& f = mb.AddFunction("sum_squares", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(bias).LocalSet(acc);
  f.ForI32Dyn(i, 1, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).LocalGet(i).I32Mul().I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  return mb.Build();
}

// main(): creates /msg.txt and writes a fixed string into it.
Module WriterModule(const std::string& text) {
  ModuleBuilder mb("writer");
  mb.AddMemory(16);
  WasmLib lib = AddWasmLib(&mb, 1 << 20);
  mb.AddData(256, std::string("/msg.txt"));
  mb.AddData(320, text);
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t fd = f.AddLocal(ValType::kI32);
  f.I32Const(256).I32Const(kO_WRONLY | kO_CREAT | kO_TRUNC).Call(lib.sys.open).LocalSet(fd);
  f.LocalGet(fd).I32Const(320).Call(lib.write_cstr);
  f.LocalGet(fd).Call(lib.sys.close).Drop();
  f.I32Const(0);
  return mb.Build();
}

// main(): opens /msg.txt and returns its size, or -1 when absent.
Module ReaderModule() {
  ModuleBuilder mb("reader");
  mb.AddMemory(16);
  WasmLib lib = AddWasmLib(&mb, 1 << 20);
  mb.AddData(256, std::string("/msg.txt"));
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t fd = f.AddLocal(ValType::kI32);
  uint32_t n = f.AddLocal(ValType::kI32);
  f.I32Const(256).I32Const(kO_RDONLY).Call(lib.sys.open).LocalSet(fd);
  f.LocalGet(fd).I32Const(0).I32LtS();
  f.If([&] { f.I32Const(-1).Return(); });
  f.LocalGet(fd).Call(lib.sys.fsize).LocalSet(n);
  f.LocalGet(fd).Call(lib.sys.close).Drop();
  f.LocalGet(n);
  return mb.Build();
}

std::string ProgramListing(const MProgram& program) {
  std::string out;
  for (const MFunction& f : program.funcs) {
    out += MFunctionToString(f);
  }
  return out;
}

TEST(CodeCache, SameModuleSameOptionsIsAHit) {
  const telemetry::Histogram& compile_ns =
      *telemetry::MetricsRegistry::Global().GetHistogram("engine.compile_ns");
  engine::Engine eng;
  Module m = SumSquaresModule();
  const uint64_t compiles_before = compile_ns.count();
  engine::CompiledModuleRef a = eng.Compile(m, CodegenOptions::ChromeV8());
  ASSERT_TRUE(a->ok) << a->error;
  EXPECT_EQ(compile_ns.count(), compiles_before + 1);  // the compile's latency
  engine::CompiledModuleRef b = eng.Compile(m, CodegenOptions::ChromeV8());
  EXPECT_EQ(compile_ns.count(), compiles_before + 1);  // a hit records none
  // The hit returns the very same compiled module — trivially byte-identical.
  EXPECT_EQ(a.get(), b.get());
  engine::EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GE(stats.compile_seconds_saved, 0.0);
  EXPECT_EQ(eng.CacheSize(), 1u);
}

TEST(CodeCache, IndependentEnginesProduceByteIdenticalPrograms) {
  // Compilation is deterministic, so the cache could even be shared across
  // processes: two engines given the same content emit the same program.
  engine::Engine eng1;
  engine::Engine eng2;
  Module m = SumSquaresModule();
  engine::CompiledModuleRef a = eng1.Compile(m, CodegenOptions::FirefoxSM());
  engine::CompiledModuleRef b = eng2.Compile(m, CodegenOptions::FirefoxSM());
  ASSERT_TRUE(a->ok && b->ok);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->module_hash(), b->module_hash());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  EXPECT_EQ(a->program().total_code_bytes, b->program().total_code_bytes);
  EXPECT_EQ(ProgramListing(a->program()), ProgramListing(b->program()));
}

TEST(CodeCache, DifferingOptionsOrModuleBytesMiss) {
  engine::Engine eng;
  Module m = SumSquaresModule();
  engine::CompiledModuleRef chrome = eng.Compile(m, CodegenOptions::ChromeV8());
  engine::CompiledModuleRef firefox = eng.Compile(m, CodegenOptions::FirefoxSM());
  EXPECT_NE(chrome.get(), firefox.get());
  EXPECT_NE(chrome->fingerprint(), firefox->fingerprint());
  // A module whose encoded bytes differ (different constant) also misses.
  engine::CompiledModuleRef biased = eng.Compile(SumSquaresModule(7), CodegenOptions::ChromeV8());
  EXPECT_NE(biased.get(), chrome.get());
  EXPECT_NE(biased->module_hash(), chrome->module_hash());
  EXPECT_EQ(eng.Stats().cache_hits, 0u);
  EXPECT_EQ(eng.Stats().compiles, 3u);
}

TEST(CodeCache, FingerprintIsContentAddressedNotNameAddressed) {
  CodegenOptions a = CodegenOptions::ChromeV8();
  CodegenOptions b = CodegenOptions::ChromeV8();
  b.profile_name = "chrome-renamed";  // cosmetic only
  b.verify_ir = !b.verify_ir;         // checks generated code, never changes it
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // Every field Fingerprint() serializes, changed alone from ChromeV8's value.
  const std::vector<std::pair<const char*, void (*)(CodegenOptions*)>> flips = {
      {"regalloc", [](CodegenOptions* o) { o->regalloc = RegAllocKind::kGraphColor; }},
      {"fuse_addressing", [](CodegenOptions* o) { o->fuse_addressing = true; }},
      {"heap_base_in_disp", [](CodegenOptions* o) { o->heap_base_in_disp = true; }},
      {"heap_base_reg", [](CodegenOptions* o) { o->heap_base_reg = Gpr::kR15; }},
      {"reserved_gprs", [](CodegenOptions* o) { o->reserved_gprs.push_back(Gpr::kRsi); }},
      {"reserved_xmms", [](CodegenOptions* o) { o->reserved_xmms.push_back(Xmm::kXmm12); }},
      {"rotate_loops", [](CodegenOptions* o) { o->rotate_loops = true; }},
      {"loop_entry_jump", [](CodegenOptions* o) { o->loop_entry_jump = false; }},
      {"stack_check", [](CodegenOptions* o) { o->stack_check = false; }},
      {"indirect_check", [](CodegenOptions* o) { o->indirect_check = false; }},
      {"asmjs_coercions", [](CodegenOptions* o) { o->asmjs_coercions = true; }},
  };
  for (const auto& [field, flip] : flips) {
    CodegenOptions changed = a;
    flip(&changed);
    EXPECT_NE(changed.Fingerprint(), a.Fingerprint()) << field;
  }

  // Two engines' worth of proof at the cache level: a rename still hits.
  engine::Engine eng;
  Module m = SumSquaresModule();
  engine::CompiledModuleRef first = eng.Compile(m, a);
  CodegenOptions renamed = CodegenOptions::ChromeV8();
  renamed.profile_name = "same-codegen-different-label";
  engine::CompiledModuleRef second = eng.Compile(m, renamed);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(eng.Stats().cache_hits, 1u);
}

TEST(CodeCache, ProfileContentsFeedTheFingerprint) {
  Module m = SumSquaresModule();
  Profile hot = Profile::ForModule(m);
  hot.func(0).instrs_retired = 100000;
  Profile cold = Profile::ForModule(m);

  CodegenOptions base = CodegenOptions::ChromeV8();
  CodegenOptions with_hot = base;
  with_hot.profile = &hot;
  with_hot.pgo_layout = true;
  CodegenOptions with_cold = base;
  with_cold.profile = &cold;
  with_cold.pgo_layout = true;
  EXPECT_NE(with_hot.Fingerprint(), with_cold.Fingerprint());
  EXPECT_NE(with_hot.Fingerprint(), base.Fingerprint());

  // A profile nothing consumes (no pgo flag set) must not perturb caching.
  CodegenOptions inert = base;
  inert.profile = &hot;
  EXPECT_EQ(inert.Fingerprint(), base.Fingerprint());
}

TEST(CodeCache, FailedCompilesAreNotCached) {
  engine::Engine eng;
  // An invalid module: body leaves the wrong result type (no body at all).
  Module broken;
  broken.types.push_back(FuncType{{}, {ValType::kI32}});
  Function f;
  f.type_index = 0;
  broken.functions.push_back(f);
  engine::CompiledModuleRef r = eng.Compile(broken, CodegenOptions::ChromeV8());
  EXPECT_FALSE(r->ok);
  EXPECT_NE(r->error.find("module invalid"), std::string::npos) << r->error;
  EXPECT_EQ(eng.CacheSize(), 0u);
}

TEST(Session, InstancesShareTheVfs) {
  engine::Engine eng;
  const std::string text = "hello from instance A";
  engine::CompiledModuleRef writer = eng.Compile(WriterModule(text), CodegenOptions::ChromeV8());
  engine::CompiledModuleRef reader = eng.Compile(ReaderModule(), CodegenOptions::FirefoxSM());
  ASSERT_TRUE(writer->ok) << writer->error;
  ASSERT_TRUE(reader->ok) << reader->error;

  engine::Session session(&eng);
  std::string err;
  auto wi = session.Instantiate(writer, {}, &err);
  ASSERT_NE(wi, nullptr) << err;
  auto ri = session.Instantiate(reader, {}, &err);
  ASSERT_NE(ri, nullptr) << err;

  engine::RunOutcome w = wi->Run();
  ASSERT_TRUE(w.ok) << w.error;
  // Instance B sees the file instance A wrote — one filesystem per session.
  engine::RunOutcome r = ri->Run();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(static_cast<int32_t>(r.exit_code), static_cast<int32_t>(text.size()));
  EXPECT_EQ(session.fs().ReadFileString("/msg.txt"), text);
}

TEST(Session, ResetDropsStagedFiles) {
  engine::Engine eng;
  engine::CompiledModuleRef reader = eng.Compile(ReaderModule(), CodegenOptions::ChromeV8());
  ASSERT_TRUE(reader->ok) << reader->error;

  engine::Session session(&eng);
  session.fs().WriteFile("/msg.txt", "workload A input");
  std::string err;
  auto instance = session.Instantiate(reader, {}, &err);
  ASSERT_NE(instance, nullptr) << err;
  engine::RunOutcome before = instance->Run();
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(static_cast<int32_t>(before.exit_code), 16);

  session.Reset();
  // Workload A's staged input is gone; the instance keeps working against
  // the fresh kernel.
  engine::RunOutcome after = instance->Run();
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(static_cast<int32_t>(after.exit_code), -1);
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(session.fs().ReadFile("/msg.txt", &bytes));
}

TEST(Session, InstantiateRejectsMissingEntry) {
  engine::Engine eng;
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(), CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok);
  engine::Session session(&eng);
  std::string err;
  engine::InstanceOptions opts;
  opts.entry = "nonexistent";
  EXPECT_EQ(session.Instantiate(code, opts, &err), nullptr);
  EXPECT_EQ(err, "no entry export nonexistent");
}

TEST(Instance, RepeatedRunsAreDeterministicAndCountRuns) {
  engine::Engine eng;
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(), CodegenOptions::NativeClang());
  ASSERT_TRUE(code->ok);
  engine::Session session(&eng);
  engine::InstanceOptions opts;
  opts.entry = "sum_squares";
  std::string err;
  auto instance = session.Instantiate(code, opts, &err);
  ASSERT_NE(instance, nullptr) << err;
  engine::RunOutcome a = instance->RunExport("sum_squares", {11});
  engine::RunOutcome b = instance->RunExport("sum_squares", {11});
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.exit_code & 0xffffffffull, 385u);  // 1^2 + ... + 10^2
  EXPECT_EQ(a.counters.cycles(), b.counters.cycles());
  EXPECT_EQ(instance->runs(), 2u);
  // One compile total, no matter how many runs.
  EXPECT_EQ(eng.Stats().compiles, 1u);
}

TEST(Artifact, SerializeDeserializeRoundTrip) {
  engine::Engine eng;
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(3), CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok) << code->error;

  std::vector<uint8_t> bytes = SerializeArtifact(code->artifact);
  ASSERT_FALSE(bytes.empty());
  CompiledArtifact restored;
  std::string error;
  ASSERT_TRUE(DeserializeArtifact(bytes, &restored, &error)) << error;

  // The cache key and profile name survive.
  EXPECT_EQ(restored.module_hash, code->module_hash());
  EXPECT_EQ(restored.options_fingerprint, code->fingerprint());
  EXPECT_EQ(restored.profile_name, code->profile_name());
  EXPECT_TRUE(restored.ok());

  // So does the interface: no imports, one function export.
  EXPECT_TRUE(restored.compiled.import_names.empty());
  ASSERT_EQ(restored.compiled.exports, (std::vector<FuncExport>{{"sum_squares", 0}}));

  // The program relinks to the identical listing, addresses included.
  EXPECT_EQ(restored.compiled.program.total_code_bytes, code->program().total_code_bytes);
  EXPECT_EQ(ProgramListing(restored.compiled.program), ProgramListing(code->program()));
  EXPECT_DOUBLE_EQ(restored.stats().seconds, code->stats().seconds);

  // Serialization is a fixed point: encode(decode(encode(a))) == encode(a).
  EXPECT_EQ(SerializeArtifact(restored), bytes);

  // And the deserialized code RUNS identically to the compiled original.
  auto wrapped = std::make_shared<engine::CompiledModule>();
  wrapped->ok = true;
  wrapped->artifact = std::move(restored);
  engine::Session session(&eng);
  engine::InstanceOptions opts;
  opts.entry = "sum_squares";
  std::string err;
  auto original = session.Instantiate(code, opts, &err);
  ASSERT_NE(original, nullptr) << err;
  auto reloaded = session.Instantiate(wrapped, opts, &err);
  ASSERT_NE(reloaded, nullptr) << err;
  engine::RunOutcome a = original->RunExport("sum_squares", {11});
  engine::RunOutcome b = reloaded->RunExport("sum_squares", {11});
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.counters.cycles(), b.counters.cycles());
  EXPECT_EQ(a.counters.instructions_retired, b.counters.instructions_retired);
}

// A tiered artifact records its profile only through its key: the options
// fingerprint hashes the profile's bytes (CodeCache.ProfileContentsFeedTheFingerprint).
TEST(Artifact, TieredArtifactIsKeyedByItsProfileAndRoundTrips) {
  Module m = SumSquaresModule();
  Profile profile = Profile::ForModule(m);
  profile.func(0).entry_count = 1;
  profile.func(0).instrs_retired = 12345;
  CodegenOptions tiered = CodegenOptions::ChromeV8();
  tiered.profile = &profile;
  tiered.pgo_layout = true;

  engine::Engine eng;
  engine::CompiledModuleRef code = eng.Compile(m, tiered);
  ASSERT_TRUE(code->ok) << code->error;
  EXPECT_EQ(code->fingerprint(), tiered.Fingerprint());
  EXPECT_NE(code->fingerprint(), CodegenOptions::ChromeV8().Fingerprint());
  EXPECT_FALSE(code->program().layout_order.empty());

  std::vector<uint8_t> bytes = SerializeArtifact(code->artifact);
  CompiledArtifact restored;
  std::string error;
  ASSERT_TRUE(DeserializeArtifact(bytes, &restored, &error)) << error;
  EXPECT_EQ(restored.options_fingerprint, tiered.Fingerprint());
  EXPECT_EQ(restored.profile_name, code->profile_name());
  EXPECT_EQ(restored.compiled.program.layout_order, code->program().layout_order);
  EXPECT_EQ(SerializeArtifact(restored), bytes);
}

TEST(Artifact, RejectsCorruptTruncatedAndVersionMismatchedBytes) {
  engine::Engine eng;
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(), CodegenOptions::FirefoxSM());
  ASSERT_TRUE(code->ok);
  std::vector<uint8_t> good = SerializeArtifact(code->artifact);
  CompiledArtifact out;
  std::string error;

  // Empty and short-header inputs.
  EXPECT_FALSE(DeserializeArtifact({}, &out, &error));
  EXPECT_FALSE(DeserializeArtifact({'N', 'S', 'F'}, &out, &error));

  // Bad magic.
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DeserializeArtifact(bad_magic, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  // Version drift: the version field sits right after the magic.
  std::vector<uint8_t> bad_version = good;
  bad_version[4] = static_cast<uint8_t>(kArtifactFormatVersion + 1);
  EXPECT_FALSE(DeserializeArtifact(bad_version, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Source-fingerprint drift (an artifact written by a binary built from
  // different compiler sources): the u64 after the version field.
  std::vector<uint8_t> other_build = good;
  other_build[8] ^= 0x01;
  EXPECT_FALSE(DeserializeArtifact(other_build, &out, &error));
  EXPECT_NE(error.find("different compiler sources"), std::string::npos) << error;

  // Truncation at every region: header, early payload, mid-program.
  for (size_t keep : {size_t{10}, size_t{40}, good.size() / 2, good.size() - 1}) {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + keep);
    EXPECT_FALSE(DeserializeArtifact(truncated, &out, &error)) << "kept " << keep;
  }

  // Single-byte payload corruption: caught by the checksum.
  std::vector<uint8_t> flipped = good;
  flipped[good.size() / 2] ^= 0x40;
  EXPECT_FALSE(DeserializeArtifact(flipped, &out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;

  // Trailing garbage is rejected too (the checksum covers it).
  std::vector<uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(DeserializeArtifact(padded, &out, &error));

  // The pristine bytes still decode after all that.
  EXPECT_TRUE(DeserializeArtifact(good, &out, &error)) << error;
}

TEST(Artifact, EveryOneByteChangeAndEveryTruncationIsRejected) {
  engine::Engine eng;
  engine::CompiledModuleRef code = eng.Compile(SumSquaresModule(), CodegenOptions::FirefoxSM());
  ASSERT_TRUE(code->ok);
  const std::vector<uint8_t> good = SerializeArtifact(code->artifact);
  CompiledArtifact out;
  std::string error;
  for (size_t offset = 0; offset < good.size(); offset++) {
    for (uint8_t delta : {0x01, 0x80, 0xff}) {
      std::vector<uint8_t> changed = good;
      changed[offset] ^= delta;
      EXPECT_FALSE(DeserializeArtifact(changed, &out, &error))
          << "byte " << offset << " of " << good.size() << " xor " << int{delta};
    }
  }
  for (size_t keep = 0; keep < good.size(); keep++) {
    std::vector<uint8_t> truncated(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(DeserializeArtifact(truncated, &out, &error)) << "kept " << keep;
  }
  EXPECT_TRUE(DeserializeArtifact(good, &out, &error)) << error;
}

TEST(Artifact, ReserializingIsTheIdentityUnderEachPaperProfile) {
  Module m = PolybenchSpec(PolybenchKernelNames().front()).build();
  for (const CodegenOptions& opts :
       {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()}) {
    engine::Engine eng;
    engine::CompiledModuleRef code = eng.Compile(m, opts);
    ASSERT_TRUE(code->ok) << opts.profile_name << ": " << code->error;
    std::vector<uint8_t> bytes = SerializeArtifact(code->artifact);
    CompiledArtifact restored;
    std::string error;
    ASSERT_TRUE(DeserializeArtifact(bytes, &restored, &error)) << opts.profile_name << ": " << error;
    EXPECT_EQ(SerializeArtifact(restored), bytes) << opts.profile_name;
    // The bsx imports and the exports come back in order.
    EXPECT_FALSE(restored.compiled.import_names.empty()) << opts.profile_name;
    EXPECT_EQ(restored.compiled.import_names, code->compiled().import_names) << opts.profile_name;
    EXPECT_EQ(restored.compiled.exports, code->compiled().exports) << opts.profile_name;
  }
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  for (int c = fgetc(f); c != EOF; c = fgetc(f)) {
    bytes.push_back(static_cast<uint8_t>(c));
  }
  fclose(f);
  return bytes;
}

// A file of an older format is a load failure: the engine deletes it,
// recompiles once, and stores a current-format file in its place. Each case
// rewrites a current file's header: the version field, and for format 1 the
// byte-serial FNV-1a checksum that format used (format 2 used today's). The
// version field alone rejects the file before any payload byte is read, so
// the payload's layout does not matter.
TEST(DiskCache, VersionOneFileIsDeletedAndRecompiledOnce) {
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("format " + std::to_string(version));
    TempCacheDir dir("v" + std::to_string(version));
    Module m = SumSquaresModule(7);
    const CodegenOptions options = CodegenOptions::ChromeV8();
    std::string path;
    {
      engine::Engine writer(DiskConfig(dir.path));
      ASSERT_TRUE(writer.Compile(m, options)->ok);
      path = writer.cache().disk().PathForKey(HashModule(m), options.Fingerprint());
    }
    constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;  // magic, version, source fp, checksum
    std::vector<uint8_t> old = ReadFileBytes(path);
    ASSERT_GT(old.size(), kHeaderSize);
    for (int i = 0; i < 4; i++) {
      old[4 + i] = static_cast<uint8_t>(version >> (8 * i));
    }
    if (version == 1) {
      const uint64_t fnv = Fnv1a(old.data() + kHeaderSize, old.size() - kHeaderSize);
      for (int i = 0; i < 8; i++) {
        old[16 + i] = static_cast<uint8_t>(fnv >> (8 * i));
      }
    }
    {
      FILE* f = fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(fwrite(old.data(), 1, old.size(), f), old.size());
      fclose(f);
    }

    engine::Engine reader(DiskConfig(dir.path));
    engine::CompiledModuleRef a = reader.Compile(m, options);
    ASSERT_TRUE(a->ok) << a->error;
    EXPECT_FALSE(a->from_disk);
    engine::EngineStats rs = reader.Stats();
    EXPECT_EQ(rs.disk_load_failures, 1u);
    EXPECT_EQ(rs.disk_hits, 0u);
    EXPECT_EQ(rs.compiles, 1u);
    EXPECT_EQ(rs.disk_stores, 1u);
    std::vector<uint8_t> replaced = ReadFileBytes(path);
    ASSERT_GT(replaced.size(), kHeaderSize);
    EXPECT_EQ(replaced[4], kArtifactFormatVersion);

    engine::Engine again(DiskConfig(dir.path));
    engine::CompiledModuleRef b = again.Compile(m, options);
    ASSERT_TRUE(b->ok);
    EXPECT_TRUE(b->from_disk);
    EXPECT_EQ(again.Stats().disk_load_failures, 0u);
    EXPECT_EQ(again.Stats().compiles, 0u);
  }
}

TEST(DiskCache, SecondEngineLoadsArtifactInsteadOfCompiling) {
  TempCacheDir dir("reload");
  Module m = SumSquaresModule(5);

  engine::Engine first(DiskConfig(dir.path));
  engine::CompiledModuleRef a = first.Compile(m, CodegenOptions::ChromeV8());
  ASSERT_TRUE(a->ok) << a->error;
  EXPECT_FALSE(a->from_disk);
  engine::EngineStats fs = first.Stats();
  EXPECT_EQ(fs.compiles, 1u);
  EXPECT_EQ(fs.disk_misses, 1u);  // cold probe before the compile
  EXPECT_EQ(fs.disk_stores, 1u);

  // A second engine (fresh memory tier — a new process, morally) must serve
  // the key from disk: zero backend compiles, and the call counts as a hit.
  engine::Engine second(DiskConfig(dir.path));
  engine::CompileInfo info;
  engine::CompiledModuleRef b = second.Compile(m, CodegenOptions::ChromeV8(), &info);
  ASSERT_TRUE(b->ok) << b->error;
  EXPECT_TRUE(info.hit);
  EXPECT_TRUE(b->from_disk);
  engine::EngineStats ss = second.Stats();
  EXPECT_EQ(ss.compiles, 0u);
  EXPECT_EQ(ss.disk_hits, 1u);
  EXPECT_GT(ss.deserialize_seconds, 0.0);
  EXPECT_EQ(ss.cache_hits, 1u);  // the disk tier is still "the cache"

  // Byte-identical program either way.
  EXPECT_EQ(ProgramListing(a->program()), ProgramListing(b->program()));
  EXPECT_EQ(a->program().total_code_bytes, b->program().total_code_bytes);

  // Within the second engine, the next request is a MEMORY hit (no new disk
  // traffic): level 1 fronts level 2.
  engine::CompiledModuleRef c = second.Compile(m, CodegenOptions::ChromeV8());
  EXPECT_EQ(c.get(), b.get());
  EXPECT_EQ(second.Stats().disk_hits, 1u);
}

TEST(DiskCache, CorruptAndTruncatedFilesRecompileCleanly) {
  TempCacheDir dir("corrupt");
  Module m = SumSquaresModule(9);
  std::string path;
  {
    engine::Engine writer(DiskConfig(dir.path));
    ASSERT_TRUE(writer.Compile(m, CodegenOptions::ChromeV8())->ok);
    path = writer.cache().disk().PathForKey(HashModule(m),
                                            CodegenOptions::ChromeV8().Fingerprint());
    ASSERT_TRUE(std::filesystem::exists(path));
  }

  // Flip a payload byte on disk: the next engine must reject the file,
  // recompile, and leave a healthy entry behind.
  {
    FILE* f = fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 64, SEEK_SET);
    int byte = fgetc(f);
    fseek(f, 64, SEEK_SET);
    fputc(byte ^ 0xff, f);
    fclose(f);
  }
  engine::Engine after_corruption(DiskConfig(dir.path));
  engine::CompiledModuleRef a = after_corruption.Compile(m, CodegenOptions::ChromeV8());
  ASSERT_TRUE(a->ok) << a->error;
  EXPECT_FALSE(a->from_disk);
  engine::EngineStats cs = after_corruption.Stats();
  EXPECT_EQ(cs.disk_load_failures, 1u);
  EXPECT_EQ(cs.compiles, 1u);
  EXPECT_EQ(cs.disk_stores, 1u);  // repopulated

  // Truncate the repopulated file: same story.
  std::filesystem::resize_file(path, 16);
  engine::Engine after_truncation(DiskConfig(dir.path));
  engine::CompiledModuleRef b = after_truncation.Compile(m, CodegenOptions::ChromeV8());
  ASSERT_TRUE(b->ok) << b->error;
  EXPECT_EQ(after_truncation.Stats().disk_load_failures, 1u);
  EXPECT_EQ(after_truncation.Stats().compiles, 1u);

  // And a third engine now loads the twice-repaired entry from disk.
  engine::Engine healthy(DiskConfig(dir.path));
  engine::CompiledModuleRef c = healthy.Compile(m, CodegenOptions::ChromeV8());
  ASSERT_TRUE(c->ok);
  EXPECT_TRUE(c->from_disk);
  EXPECT_EQ(ProgramListing(a->program()), ProgramListing(c->program()));
}

TEST(DiskCache, EvictionRespectsSizeBoundLruFirst) {
  TempCacheDir dir("evict");
  // Measure one artifact's footprint, then budget for about three of them.
  uint64_t one_artifact_bytes = 0;
  {
    TempCacheDir probe_dir("evict-probe");
    engine::Engine probe(DiskConfig(probe_dir.path));
    ASSERT_TRUE(probe.Compile(SumSquaresModule(0), CodegenOptions::ChromeV8())->ok);
    one_artifact_bytes = probe.cache().disk().DirSizeBytes();
    ASSERT_GT(one_artifact_bytes, 0u);
  }
  const uint64_t budget = one_artifact_bytes * 3 + one_artifact_bytes / 2;
  engine::Engine eng(DiskConfig(dir.path, budget));
  const int kModules = 8;
  for (int i = 0; i < kModules; i++) {
    ASSERT_TRUE(eng.Compile(SumSquaresModule(i), CodegenOptions::ChromeV8())->ok);
    // The bound holds after EVERY store, not just at the end.
    EXPECT_LE(eng.cache().disk().DirSizeBytes(), budget) << "after module " << i;
  }
  engine::EngineStats s = eng.Stats();
  EXPECT_GT(s.disk_evictions, 0u);
  EXPECT_EQ(s.disk_stores, static_cast<uint64_t>(kModules));

  // LRU: the newest keys survive, the oldest were evicted. Probe with fresh
  // engines so the memory tier can't answer.
  engine::Engine probe_new(DiskConfig(dir.path, budget));
  engine::CompiledModuleRef newest =
      probe_new.Compile(SumSquaresModule(kModules - 1), CodegenOptions::ChromeV8());
  ASSERT_TRUE(newest->ok);
  EXPECT_TRUE(newest->from_disk) << "most recently stored artifact was evicted";

  engine::Engine probe_old(DiskConfig(dir.path, budget));
  engine::CompiledModuleRef oldest =
      probe_old.Compile(SumSquaresModule(0), CodegenOptions::ChromeV8());
  ASSERT_TRUE(oldest->ok);
  EXPECT_FALSE(oldest->from_disk) << "least recently used artifact should have been evicted";

  // A fresh instance seeds its counter from one walk that counts published
  // artifacts only: profiles, the run history, in-flight tmp files and the
  // `.bin.lock` files older builds left sitting next to them are not
  // artifact bytes.
  for (const char* name : {"nsfp-0123456789abcdef.bin", "run_history",
                           "nsfa-0-0.bin.tmp.1.0", "nsfa-0-0.bin.lock"}) {
    FILE* f = fopen((dir.path + "/" + name).c_str(), "w");
    ASSERT_NE(f, nullptr) << name;
    fputs("not an artifact\n", f);
    fclose(f);
  }
  uint64_t artifact_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("nsfa-", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".bin") == 0) {
      artifact_bytes += entry.file_size();
    }
  }
  ASSERT_GT(artifact_bytes, 0u);
  engine::DiskCodeCache fresh(dir.path, budget);
  EXPECT_EQ(fresh.DirSizeBytes(), artifact_bytes);
}

TEST(DiskCache, LoadRefreshesLruRecency) {
  TempCacheDir dir("lru-touch");
  uint64_t one_artifact_bytes = 0;
  {
    engine::Engine probe(DiskConfig(dir.path));
    ASSERT_TRUE(probe.Compile(SumSquaresModule(100), CodegenOptions::ChromeV8())->ok);
    one_artifact_bytes = probe.cache().disk().DirSizeBytes();
    std::filesystem::remove_all(dir.path);
  }
  const uint64_t budget = one_artifact_bytes * 2 + one_artifact_bytes / 2;  // fits 2

  engine::Engine eng(DiskConfig(dir.path, budget));
  ASSERT_TRUE(eng.Compile(SumSquaresModule(100), CodegenOptions::ChromeV8())->ok);
  ASSERT_TRUE(eng.Compile(SumSquaresModule(101), CodegenOptions::ChromeV8())->ok);
  // Touch key 100 from a fresh engine: its mtime becomes the newest.
  {
    engine::Engine toucher(DiskConfig(dir.path, budget));
    engine::CompiledModuleRef r =
        toucher.Compile(SumSquaresModule(100), CodegenOptions::ChromeV8());
    ASSERT_TRUE(r->ok);
    ASSERT_TRUE(r->from_disk);
  }
  // A third store must now evict 101 (least recently used), not 100.
  ASSERT_TRUE(eng.Compile(SumSquaresModule(102), CodegenOptions::ChromeV8())->ok);
  engine::Engine probe100(DiskConfig(dir.path, budget));
  EXPECT_TRUE(probe100.Compile(SumSquaresModule(100), CodegenOptions::ChromeV8())->from_disk);
  engine::Engine probe101(DiskConfig(dir.path, budget));
  EXPECT_FALSE(probe101.Compile(SumSquaresModule(101), CodegenOptions::ChromeV8())->from_disk);
}

TEST(DiskCache, MiskeyedFileIsRejected) {
  TempCacheDir dir("miskey");
  Module m1 = SumSquaresModule(1);
  Module m2 = SumSquaresModule(2);
  engine::Engine writer(DiskConfig(dir.path));
  ASSERT_TRUE(writer.Compile(m1, CodegenOptions::ChromeV8())->ok);
  // Rename m1's artifact over m2's key: a filename/content key disagreement,
  // as a stray copy or collision would produce.
  uint64_t fp = CodegenOptions::ChromeV8().Fingerprint();
  std::filesystem::rename(writer.cache().disk().PathForKey(HashModule(m1), fp),
                          writer.cache().disk().PathForKey(HashModule(m2), fp));
  engine::Engine reader(DiskConfig(dir.path));
  engine::CompiledModuleRef r = reader.Compile(m2, CodegenOptions::ChromeV8());
  ASSERT_TRUE(r->ok);
  EXPECT_FALSE(r->from_disk);  // rejected the mis-keyed file, recompiled
  EXPECT_EQ(reader.Stats().disk_load_failures, 1u);
}

// NSF_CACHE_MAX_BYTES is a byte count or nothing: a suffix, a sign, an empty
// value or one past 2^64-1 must fall back to the default budget rather than
// read as a tiny bound, as "unbounded" or as 2^64-1.
TEST(DiskCache, MaxBytesEnvAcceptsOnlyDecimalDigits) {
  const uint64_t kDefault = 256ull << 20;
  const struct {
    const char* value;
    uint64_t bytes;
  } kCases[] = {
      {"1048576", 1048576},
      {"0", 0},  // unbounded
      {"18446744073709551615", UINT64_MAX},
      {"256M", kDefault},
      {"abc", kDefault},
      {"", kDefault},
      {"-1", kDefault},
      {"+5", kDefault},
      {" 5", kDefault},
      {"18446744073709551616", kDefault},
  };
  for (const auto& c : kCases) {
    ASSERT_EQ(setenv("NSF_CACHE_MAX_BYTES", c.value, 1), 0);
    EXPECT_EQ(engine::DefaultDiskCacheMaxBytes(), c.bytes) << "\"" << c.value << "\"";
  }
  unsetenv("NSF_CACHE_MAX_BYTES");
  EXPECT_EQ(engine::DefaultDiskCacheMaxBytes(), kDefault);
}

TEST(RunHistory, PersistsAcrossEnginesViaCacheDir) {
  TempCacheDir dir("runhistory");
  {
    engine::Engine eng(DiskConfig(dir.path));
    eng.history().RecordRun("trisolv", 2.0);
    eng.history().RecordRun("trisolv", 4.0);
    eng.history().RecordRun("atax", 1.0);
    // Destructor flushes cache_dir/run_history.
  }
  engine::Engine fresh(DiskConfig(dir.path));
  uint64_t observed = 0;
  EXPECT_DOUBLE_EQ(fresh.history().ObservedSeconds("trisolv", &observed), 3.0);
  EXPECT_EQ(observed, 2u);
  EXPECT_EQ(fresh.history().ObservedRuns("atax"), 1u);
}

TEST(RunHistory, LoadMergesAndResavesAccumulatedTotals) {
  TempCacheDir dir("runhistory-merge");
  {
    engine::Engine first(DiskConfig(dir.path));
    first.history().RecordRun("gemm", 1.0);
  }
  {
    // Second process: starts from the saved table, adds its own runs, and
    // saves the merged totals on destruction.
    engine::Engine second(DiskConfig(dir.path));
    EXPECT_EQ(second.history().ObservedRuns("gemm"), 1u);
    second.history().RecordRun("gemm", 3.0);
  }
  engine::Engine third(DiskConfig(dir.path));
  EXPECT_EQ(third.history().ObservedRuns("gemm"), 2u);
  EXPECT_DOUBLE_EQ(third.history().ObservedSeconds("gemm"), 2.0);
}

TEST(RunHistory, ExplicitSaveAndNamesWithSpacesRoundTrip) {
  TempCacheDir dir("runhistory-names");
  engine::Engine eng(DiskConfig(dir.path));
  eng.history().RecordRun("name with spaces", 0.5);
  ASSERT_TRUE(eng.SaveRunHistory());
  engine::RunHistory fresh;
  ASSERT_TRUE(fresh.Load(eng.RunHistoryPath()));
  EXPECT_EQ(fresh.ObservedRuns("name with spaces"), 1u);
  EXPECT_DOUBLE_EQ(fresh.ObservedSeconds("name with spaces"), 0.5);
}

TEST(RunHistory, UnparsableLinesAreSkippedNeverFatal) {
  TempCacheDir dir("runhistory-corrupt");
  std::filesystem::create_directories(dir.path);
  std::string path = dir.path + "/run_history";
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("not a number at all\n", f);
  fputs("3 0.75 lu\n", f);           // the one valid line
  fputs("12\n", f);                  // truncated
  fputs("0 1.0 zero-runs-key\n", f); // zero runs: skipped
  fputs("5 nan-ish\n", f);           // no name field
  // A run count with a sign, and seconds that are not a finite number >= 0:
  // each would reach the LPT sort and the DRR costs as a bogus mean.
  fputs("-1 5.0 x\n", f);
  fputs("+3 1.0 x\n", f);
  fputs("1 nan x\n", f);
  fputs("1 inf x\n", f);
  fputs("1 -2.5 x\n", f);
  fclose(f);
  engine::RunHistory history;
  EXPECT_TRUE(history.Load(path));
  EXPECT_EQ(history.size(), 1u);
  EXPECT_EQ(history.ObservedRuns("lu"), 3u);
  EXPECT_DOUBLE_EQ(history.ObservedSeconds("lu"), 0.25);
  EXPECT_EQ(history.ObservedRuns("x"), 0u);
}

TEST(RunHistory, DisabledWithoutCacheDir) {
  engine::Engine eng;  // NSF_CACHE_DIR scrubbed above: no disk tier
  eng.history().RecordRun("trisolv", 1.0);
  EXPECT_EQ(eng.RunHistoryPath(), "");
  EXPECT_FALSE(eng.SaveRunHistory());
}

TEST(RunHistory, EmptyTableLeavesPreviousFileUntouched) {
  TempCacheDir dir("runhistory-empty");
  {
    engine::Engine eng(DiskConfig(dir.path));
    eng.history().RecordRun("trisolv", 2.0);
  }
  {
    engine::Engine idle(DiskConfig(dir.path));
    // An idle engine records nothing, so its destructor writes nothing; and
    // a RunHistory that never observed anything must not clobber a file.
    engine::RunHistory empty;
    EXPECT_FALSE(empty.Save(idle.RunHistoryPath()));
  }
  engine::Engine check(DiskConfig(dir.path));
  EXPECT_EQ(check.history().ObservedRuns("trisolv"), 1u);
}

TEST(RunHistory, IdleEngineDoesNotOverwriteNewerHistory) {
  // An engine that recorded nothing must not write back the table it loaded
  // at construction: another process may have flushed newer runs since.
  TempCacheDir dir("runhistory-idle");
  {
    engine::Engine first(DiskConfig(dir.path));
    first.history().RecordRun("gemm", 1.0);
  }
  {
    engine::Engine idle(DiskConfig(dir.path));
    engine::Engine busy(DiskConfig(dir.path));
    busy.history().RecordRun("gemm", 3.0);
    ASSERT_TRUE(busy.FlushRunHistory());  // the file now holds 2 runs
    // `busy` is destroyed first (clean, writes nothing), then `idle`.
  }
  engine::Engine fresh(DiskConfig(dir.path));
  EXPECT_EQ(fresh.history().ObservedRuns("gemm"), 2u);
}

TEST(BatchReport, FinalizeCountsOnlyOkRunsIntoTotalsAndMakespan) {
  // A trapped run carries the partial simulated time it burned before the
  // trap; folding that into sim_seconds_total or a worker's makespan would
  // credit work whose results were discarded.
  engine::BatchReport report;
  report.workers = 2;
  engine::BatchRunResult ok0;
  ok0.ok = true;
  ok0.worker = 0;
  ok0.outcome.seconds = 2.0;
  engine::BatchRunResult ok1;
  ok1.ok = true;
  ok1.worker = 1;
  ok1.outcome.seconds = 3.0;
  engine::BatchRunResult trapped;
  trapped.ok = false;
  trapped.worker = 0;
  trapped.outcome.seconds = 5.0;  // partial sim time up to the trap
  report.runs = {ok0, ok1, trapped};
  engine::FinalizeBatchReport(&report);
  EXPECT_EQ(report.ok_runs, 2u);
  EXPECT_EQ(report.failed_runs, 1u);
  EXPECT_DOUBLE_EQ(report.sim_seconds_total, 5.0);
  EXPECT_DOUBLE_EQ(report.failed_sim_seconds, 5.0);
  ASSERT_EQ(report.worker_sim_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(report.worker_sim_seconds[0], 2.0);  // not 7.0
  EXPECT_DOUBLE_EQ(report.worker_sim_seconds[1], 3.0);
  EXPECT_DOUBLE_EQ(report.sim_makespan_seconds, 3.0);
  EXPECT_FALSE(report.all_ok());
}

// main(): a counting loop of `iters` additions.
Module CountModule(int iters) {
  ModuleBuilder mb("count");
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.ForI32(i, 0, iters, 1, [&] { f.LocalGet(acc).I32Const(1).I32Add().LocalSet(acc); });
  f.LocalGet(acc);
  return mb.Build();
}

// main(): traps immediately on an integer division by zero.
Module DivByZeroModule() {
  ModuleBuilder mb("trap");
  auto& f = mb.AddFunction("main", {}, {ValType::kI32});
  f.I32Const(1).I32Const(0).I32DivS();
  return mb.Build();
}

TEST(BatchReport, MixedBatchSplitsFailedSimTimeAndRecordsFailedLatency) {
  // Request-latency telemetry must cover EVERY outcome: the _ns histogram
  // holds all requests, the _ok/_failed pair splits the population. Failed
  // requests used to vanish from the histogram entirely, biasing its
  // percentiles toward the successes.
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Histogram* all_ns = registry.GetHistogram("executor.request_ns");
  telemetry::Histogram* ok_ns = registry.GetHistogram("executor.request_ok_ns");
  telemetry::Histogram* failed_ns = registry.GetHistogram("executor.request_failed_ns");
  uint64_t all_before = all_ns->count();
  uint64_t ok_before = ok_ns->count();
  uint64_t failed_before = failed_ns->count();

  engine::Engine eng;
  engine::RunRequest good;
  good.spec.name = "report_ok";
  good.spec.build = [] { return CountModule(1000); };
  good.collect_outputs = false;
  engine::RunRequest bad;
  bad.spec.name = "report_trap";
  bad.spec.build = [] { return DivByZeroModule(); };
  bad.collect_outputs = false;
  engine::BatchReport report = engine::ExecutorPool(&eng, 1).Run({good, bad});

  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_TRUE(report.runs[0].ok) << report.runs[0].error;
  EXPECT_FALSE(report.runs[1].ok);
  EXPECT_EQ(report.ok_runs, 1u);
  EXPECT_EQ(report.failed_runs, 1u);
  EXPECT_DOUBLE_EQ(report.sim_seconds_total, report.runs[0].outcome.seconds);
  EXPECT_DOUBLE_EQ(report.failed_sim_seconds, report.runs[1].outcome.seconds);
  EXPECT_EQ(all_ns->count(), all_before + 2);
  EXPECT_EQ(ok_ns->count(), ok_before + 1);
  EXPECT_EQ(failed_ns->count(), failed_before + 1);
}

TEST(RunHistory, ExplicitFlushPersistsWithoutDestruction) {
  // ~Engine used to be the only save point, so a crashed process lost every
  // observed run. FlushRunHistory makes the table durable mid-flight and is
  // a cheap no-op while clean (the dirty counter gates the write).
  TempCacheDir dir("runhistory-flush");
  engine::Engine eng(DiskConfig(dir.path));
  EXPECT_EQ(eng.history().dirty(), 0u);
  EXPECT_FALSE(eng.FlushRunHistory());  // clean: nothing to write
  eng.history().RecordRun("lu", 0.5);
  eng.history().RecordRun("lu", 1.5);
  EXPECT_EQ(eng.history().dirty(), 2u);
  EXPECT_TRUE(eng.FlushRunHistory());
  EXPECT_EQ(eng.history().dirty(), 0u);
  EXPECT_FALSE(eng.FlushRunHistory());  // clean again
  // The file is already readable while the engine lives.
  engine::RunHistory fresh;
  EXPECT_TRUE(fresh.Load(eng.RunHistoryPath()));
  EXPECT_EQ(fresh.ObservedRuns("lu"), 2u);
  EXPECT_DOUBLE_EQ(fresh.ObservedSeconds("lu"), 1.0);
}

TEST(ExecuteRequest, CountersPopulated) {
  engine::Engine eng;
  engine::Session session(&eng);
  engine::BatchRunResult r = engine::ExecuteRequest(
      &session, {PolybenchSpec("gemm"), CodegenOptions::ChromeV8()}, 0, 0, 0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.outcome.counters.instructions_retired, 0u);
  EXPECT_GT(r.outcome.counters.cycles(), 0u);
  EXPECT_GT(r.outcome.counters.loads_retired, 0u);
  EXPECT_GT(r.outcome.counters.stores_retired, 0u);
  EXPECT_GT(r.outcome.counters.branches_retired, 0u);
  EXPECT_GT(r.outcome.counters.cond_branches_retired, 0u);
  EXPECT_GT(r.outcome.seconds, 0.0);
  EXPECT_GT(r.compile.minstrs, 0u);
  EXPECT_GT(r.compile.code_bytes, 0u);
}

TEST(Engine, PolybenchWorkloadEndToEnd) {
  // ExecuteRequest's path, hand-rolled at the embedder level: compile a real
  // workload once, instantiate in a session, run, inspect outputs.
  engine::Engine eng;
  WorkloadSpec spec = PolybenchSpec("trisolv");
  engine::CompiledModuleRef code = eng.CompileWorkload(spec, CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok) << code->error;
  engine::Session session(&eng);
  if (spec.setup) {
    spec.setup(session.kernel());
  }
  engine::InstanceOptions opts;
  opts.argv = spec.argv;
  opts.entry = spec.entry;
  std::string err;
  auto instance = session.Instantiate(code, opts, &err);
  ASSERT_NE(instance, nullptr) << err;
  engine::RunOutcome out = instance->Run();
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_GT(out.counters.instructions_retired, 0u);
  for (const std::string& path : spec.output_files) {
    std::vector<uint8_t> bytes;
    EXPECT_TRUE(session.fs().ReadFile(path, &bytes)) << path;
    EXPECT_FALSE(bytes.empty()) << path;
  }
}

}  // namespace
}  // namespace nsf
