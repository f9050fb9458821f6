#include "src/codegen/codegen.h"

#include <algorithm>
#include <chrono>

#include "src/codegen/emit.h"
#include "src/codegen/opt.h"
#include "src/codegen/regalloc.h"
#include "src/codegen/verify.h"
#include "src/profile/profile.h"
#include "src/support/str.h"
#include "src/telemetry/metrics.h"

namespace nsf {

uint64_t CodegenOptions::Fingerprint() const {
  // Canonical byte serialization of every semantic field, hashed with
  // FNV-1a. Fields are length-prefixed or fixed-width so no two distinct
  // option values can serialize to the same byte string.
  std::vector<uint8_t> bytes;
  auto put8 = [&bytes](uint8_t v) { bytes.push_back(v); };
  auto put32 = [&bytes](uint32_t v) {
    for (int i = 0; i < 4; i++) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put8(static_cast<uint8_t>(regalloc));
  put8(fuse_addressing);
  put8(heap_base_in_disp);
  put8(static_cast<uint8_t>(heap_base_reg));
  put32(static_cast<uint32_t>(reserved_gprs.size()));
  for (Gpr r : reserved_gprs) {
    put8(static_cast<uint8_t>(r));
  }
  put32(static_cast<uint32_t>(reserved_xmms.size()));
  for (Xmm r : reserved_xmms) {
    put8(static_cast<uint8_t>(r));
  }
  put8(rotate_loops);
  put8(loop_entry_jump);
  put8(stack_check);
  put8(indirect_check);
  put8(asmjs_coercions);
  // PGO flags only matter when a profile is attached, and the profile only
  // matters when a flag consumes it — hash the *effective* configuration.
  bool pgo_active =
      profile != nullptr && (pgo_layout || pgo_rotate_hot_loops || devirtualize_monomorphic);
  put8(pgo_active);
  if (pgo_active) {
    put8(pgo_layout);
    put8(pgo_rotate_hot_loops);
    put8(devirtualize_monomorphic);
    std::vector<uint8_t> pbytes = profile->SerializeBinary();
    put32(static_cast<uint32_t>(pbytes.size()));
    bytes.insert(bytes.end(), pbytes.begin(), pbytes.end());
  }
  return Fnv1a(bytes.data(), bytes.size());
}

CodegenOptions CodegenOptions::NativeClang() {
  CodegenOptions o;
  o.profile_name = "native-clang";
  o.regalloc = RegAllocKind::kGraphColor;
  o.fuse_addressing = true;
  o.heap_base_in_disp = true;
  o.rotate_loops = true;
  o.stack_check = false;
  o.indirect_check = false;
  return o;
}

CodegenOptions CodegenOptions::ChromeV8() {
  CodegenOptions o;
  o.profile_name = "chrome-v8";
  o.regalloc = RegAllocKind::kLinearScan;
  o.fuse_addressing = false;
  o.heap_base_in_disp = false;
  o.heap_base_reg = Gpr::kRbx;        // V8 keeps the memory start in a register
  o.reserved_gprs = {Gpr::kR13};      // GC root array (paper §6.1.1)
  o.reserved_xmms = {Xmm::kXmm13};    // V8 FP scratch
  o.rotate_loops = false;
  o.loop_entry_jump = true;           // §5.1.3 extra jumps
  o.stack_check = true;
  o.indirect_check = true;
  return o;
}

CodegenOptions CodegenOptions::FirefoxSM() {
  CodegenOptions o;
  o.profile_name = "firefox-spidermonkey";
  o.regalloc = RegAllocKind::kLinearScan;
  o.fuse_addressing = false;
  o.heap_base_in_disp = false;
  o.heap_base_reg = Gpr::kR15;        // SpiderMonkey heap pointer (§6.1.1)
  o.reserved_gprs = {};               // r11/xmm15 (SM scratch) already universal
  o.reserved_xmms = {};
  o.rotate_loops = false;
  o.loop_entry_jump = false;
  o.stack_check = true;
  o.indirect_check = true;
  return o;
}

CodegenOptions CodegenOptions::ChromeAsmJs() {
  CodegenOptions o = ChromeV8();
  o.profile_name = "chrome-asmjs";
  o.asmjs_coercions = true;
  o.reserved_gprs.push_back(Gpr::kRsi);  // JS context register
  return o;
}

CodegenOptions CodegenOptions::FirefoxAsmJs() {
  CodegenOptions o = FirefoxSM();
  o.profile_name = "firefox-asmjs";
  o.asmjs_coercions = true;
  o.reserved_gprs.push_back(Gpr::kRsi);
  return o;
}

CodegenOptions CodegenOptions::ChromeV8_2017() {
  CodegenOptions o = ChromeV8();
  o.profile_name = "chrome-v8-2017";
  // The 2017-era tier: more redundant moves survive and one more register is
  // burned on engine bookkeeping.
  o.asmjs_coercions = true;
  o.reserved_gprs.push_back(Gpr::kRdi);
  return o;
}

CodegenOptions CodegenOptions::ChromeV8_2018() {
  CodegenOptions o = ChromeV8();
  o.profile_name = "chrome-v8-2018";
  o.reserved_gprs.push_back(Gpr::kRdi);
  return o;
}

namespace {

// Builds the stub MFunction for imported function `import_index` with `sig`:
// marshal up to 6 stack arguments into registers, then invoke the host hook.
MFunction BuildImportStub(uint32_t import_index, const FuncType& sig, const std::string& name) {
  MFunction f;
  f.name = "import:" + name;
  static const Gpr kArgRegs[6] = {Gpr::kRdi, Gpr::kRsi, Gpr::kRdx,
                                  Gpr::kRcx, Gpr::kR8,  Gpr::kR9};
  uint32_t n = std::min<uint32_t>(static_cast<uint32_t>(sig.params.size()), 6);
  // The arg registers are allocatable (callee-saved) in caller code, so the
  // stub preserves them around the host call.
  for (uint32_t i = 0; i < n; i++) {
    MInstr push;
    push.op = MOp::kPush;
    push.dst = Operand::R(kArgRegs[i]);
    f.code.push_back(push);
  }
  for (uint32_t i = 0; i < n; i++) {
    // Args sit above the return address and the saves:
    // [rsp + 8*n_saves + 8 + 8*i].
    f.code.push_back(MInstr::RM(MOp::kLoad, kArgRegs[i],
                                MemRef::BaseDisp(Gpr::kRsp, 8 * (int)n + 8 + 8 * (int)i), 8));
  }
  MInstr call;
  call.op = MOp::kCallHost;
  call.func = import_index;
  f.code.push_back(call);
  for (uint32_t i = n; i > 0; i--) {
    MInstr pop;
    pop.op = MOp::kPop;
    pop.dst = Operand::R(kArgRegs[i - 1]);
    f.code.push_back(pop);
  }
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  return f;
}

}  // namespace

const FuncExport* CompileResult::FindExport(const std::string& name) const {
  for (const FuncExport& e : exports) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

CompileResult CompileModule(const Module& module, const CodegenOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  CompileResult result;
  MProgram& prog = result.program;

  EmitEnv env;
  if (!module.tables.empty()) {
    env.table_size = module.tables[0].limits.min;
  }
  for (uint32_t t = 0; t < module.types.size(); t++) {
    env.sig_ids[t] = t;
  }

  uint32_t imported = module.NumImportedFuncs();
  // Import stubs occupy the first `imported` MProgram slots, so MProgram
  // function indices equal joint Wasm function indices.
  uint32_t import_seen = 0;
  for (const Import& imp : module.imports) {
    if (imp.kind != ExternalKind::kFunc) {
      continue;
    }
    prog.funcs.push_back(
        BuildImportStub(import_seen, module.types[imp.type_index], imp.module + "." + imp.name));
    result.import_names.push_back(imp.name);
    import_seen++;
  }

  // Table image, built before the function loop so PGO devirtualization can
  // resolve profiled table elements to direct call targets.
  if (!module.tables.empty()) {
    prog.table.assign(env.table_size, MProgram::TableEntry{});
    for (const ElementSegment& seg : module.elements) {
      uint32_t offset = static_cast<uint32_t>(seg.offset.imm);
      for (size_t i = 0; i < seg.func_indices.size(); i++) {
        uint32_t fi = seg.func_indices[i];
        if (offset + i < prog.table.size()) {
          uint32_t type_index;
          if (fi < imported) {
            type_index = module.FuncImportOf(fi).type_index;
          } else {
            type_index = module.functions[fi - imported].type_index;
          }
          prog.table[offset + i] = MProgram::TableEntry{type_index, fi};
        }
      }
    }
  }
  auto resolve_elem = [&prog, &env](uint32_t elem, uint32_t sig) -> int64_t {
    if (elem >= prog.table.size()) {
      return -1;
    }
    const MProgram::TableEntry& e = prog.table[elem];
    auto it = env.sig_ids.find(sig);
    if (e.func_index == UINT32_MAX || it == env.sig_ids.end() || e.sig_id != it->second) {
      return -1;
    }
    return e.func_index;
  };

  // Back-edge count above which a profiled loop is worth rotating.
  constexpr uint64_t kHotLoopMinTrips = 64;

  CompileStats& stats = result.stats;
  // Pass-boundary IR verification (CodegenOptions::verify_ir): `verify_after`
  // runs the verifier after the named pass and turns the first violation into
  // a failed compile. Timing feeds the codegen.verify_ir_ns histogram; the
  // total is accumulated across functions and passes.
  uint64_t verify_ns = 0;
  VFunc* verify_vf = nullptr;
  auto verify_after = [&](const char* pass) -> bool {
    if (!options.verify_ir) {
      return true;
    }
    auto v0 = std::chrono::steady_clock::now();
    std::string diag = VerifyIR(*verify_vf, module);
    verify_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             v0)
            .count());
    if (!diag.empty()) {
      result.ok = false;
      result.error = StrFormat("IR verify failed after pass '%s': %s", pass, diag.c_str());
      return false;
    }
    return true;
  };
  for (uint32_t d = 0; d < module.functions.size(); d++) {
    const uint64_t func_verify_start = verify_ns;
    const FuncProfile* fprof = nullptr;
    if (options.profile != nullptr && imported + d < options.profile->num_funcs()) {
      fprof = &options.profile->func(imported + d);
    }
    VFunc vf = LowerFunction(module, d, options);
    verify_vf = &vf;
    stats.vops += vf.ops.size();
    if (!verify_after("lower")) {
      return result;
    }
    // Devirtualization first: it matches kCallInd sites by their profile
    // ordinal, which later passes are free to shuffle.
    if (options.devirtualize_monomorphic && fprof != nullptr) {
      PgoDevirtualize(&vf, *fprof, resolve_elem);
      if (!verify_after("pgo_devirtualize")) {
        return result;
      }
    }
    // Copy propagation models the move coalescing a graph-coloring allocator
    // performs; the linear-scan JIT profiles keep their moves (§6.1.2).
    if (options.regalloc == RegAllocKind::kGraphColor) {
      CopyPropagate(&vf);
      if (!verify_after("copy_propagate")) {
        return result;
      }
    }
    if (options.rotate_loops) {
      RotateLoops(&vf);
      if (!verify_after("rotate_loops")) {
        return result;
      }
    } else if (options.pgo_rotate_hot_loops && fprof != nullptr) {
      RotateLoopsIf(&vf, [&vf, fprof](uint32_t header) {
        for (size_t i = 0; i < vf.loop_headers.size(); i++) {
          if (vf.loop_headers[i] == header) {
            return i < fprof->loop_trips.size() &&
                   fprof->loop_trips[i] >= kHotLoopMinTrips;
          }
        }
        return false;
      });
      if (!verify_after("pgo_rotate_hot_loops")) {
        return result;
      }
    }
    if (options.pgo_layout && fprof != nullptr) {
      PgoSinkColdBlocks(&vf, *fprof);
      if (!verify_after("pgo_sink_cold_blocks")) {
        return result;
      }
    }
    if (options.fuse_addressing) {
      FuseAddressing(&vf);
      FuseAluMem(&vf);
      if (!verify_after("fuse_addressing")) {
        return result;
      }
    }
    Allocation alloc = AllocateRegisters(vf, options);
    stats.spill_slots += alloc.num_slots;
    prog.funcs.push_back(EmitFunction(vf, alloc, options, env));
    stats.minstrs += prog.funcs.back().code.size();
    // Recorded PER FUNCTION (all pass boundaries of this function summed),
    // not per module: the CI budget alarm bounds this histogram's p99
    // against a per-function budget, which a module total would dilute or
    // blow purely on function count.
    if (options.verify_ir && verify_ns > func_verify_start) {
      telemetry::MetricsRegistry::Global()
          .GetHistogram("codegen.verify_ir_ns")
          ->Record(verify_ns - func_verify_start);
    }
  }

  // PGO code layout: place functions hottest-first so the hot working set
  // shares L1i lines (extends the Figure 10 experiment with the fix). A
  // profile collected for a different module shape (size mismatch) keeps
  // the identity layout.
  if (options.pgo_layout && options.profile != nullptr &&
      options.profile->num_funcs() == prog.funcs.size()) {
    prog.layout_order = options.profile->FunctionsByHotness();
  }

  // Memory + data.
  for (const MemorySec& m : module.memories) {
    prog.memory_pages = m.limits.min;
    prog.max_memory_pages = m.limits.max.value_or(kMaxMemoryPages);
  }
  for (const Import& imp : module.imports) {
    if (imp.kind == ExternalKind::kMemory) {
      prog.memory_pages = imp.limits.min;
      prog.max_memory_pages = imp.limits.max.value_or(kMaxMemoryPages);
    }
  }
  for (const DataSegment& seg : module.data) {
    prog.data_segments.push_back({static_cast<uint32_t>(seg.offset.imm), seg.bytes});
  }

  // Globals: slot 0 is the stack limit; Wasm global g lives in slot 1+g.
  prog.num_globals = module.NumTotalGlobals() + 1;
  uint32_t gbase = module.NumImportedGlobals();
  for (uint32_t g = 0; g < module.globals.size(); g++) {
    const Global& gl = module.globals[g];
    uint64_t bits = 0;
    switch (gl.init.op) {
      case Opcode::kI32Const:
        bits = static_cast<uint32_t>(gl.init.imm);
        break;
      case Opcode::kI64Const:
      case Opcode::kF64Const:
      case Opcode::kF32Const:
        bits = gl.init.imm;
        break;
      default:
        break;  // global.get of import: left zero; embedder initializes
    }
    prog.global_inits.push_back({1 + gbase + g, bits});
  }

  prog.Link();
  stats.code_bytes = prog.total_code_bytes;

  // Whole-program machine verification after linking: emission and layout
  // are pass boundaries too.
  if (options.verify_ir) {
    auto v0 = std::chrono::steady_clock::now();
    std::string diag = VerifyMachine(prog);
    telemetry::MetricsRegistry::Global()
        .GetHistogram("codegen.verify_machine_ns")
        ->Record(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - v0)
                                           .count()));
    if (!diag.empty()) {
      result.ok = false;
      result.error = StrFormat("machine verify failed after 'emit+link': %s", diag.c_str());
      return result;
    }
  }

  for (const Export& e : module.exports) {
    if (e.kind == ExternalKind::kFunc) {
      result.exports.push_back({e.name, e.index});
    }
  }

  auto t1 = std::chrono::steady_clock::now();
  stats.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.ok = true;
  return result;
}

}  // namespace nsf
