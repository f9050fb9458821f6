// Wasm -> simulated-x64 compiler. A CodegenOptions value selects which of
// the paper's code-generation behaviours are active; the named profiles
// correspond to the toolchains the paper measures:
//
//   NativeClang(): offline-compiler quality — graph-coloring register
//     allocation, full addressing-mode fusion (incl. register-memory ALU
//     forms), loop rotation (single conditional branch per iteration), heap
//     base folded into displacements, no sandbox checks.
//   ChromeV8(): linear-scan allocation, reserved registers (r13 GC root,
//     r10 scratch, rbx heap base, xmm13 scratch), no addressing fusion,
//     top-test loops with an extra loop-entry jump (§5.1.3), per-function
//     stack-overflow checks, indirect-call checks.
//   FirefoxSM(): linear-scan allocation, reserved registers (r15 heap base,
//     r11 scratch, xmm15 scratch), no addressing fusion, top-test loops,
//     stack checks, indirect-call checks.
//   ChromeAsmJs()/FirefoxAsmJs(): the JIT profiles plus asm.js overheads
//     (coercion moves after arithmetic, fewer allocatable registers).
#ifndef SRC_CODEGEN_CODEGEN_H_
#define SRC_CODEGEN_CODEGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/codegen/ir.h"
#include "src/wasm/module.h"
#include "src/x64/insts.h"

namespace nsf {

class Profile;

enum class RegAllocKind : uint8_t { kLinearScan, kGraphColor };

struct CodegenOptions {
  std::string profile_name = "custom";
  RegAllocKind regalloc = RegAllocKind::kGraphColor;
  // Fold add/shl address arithmetic into [base+index*scale+disp] operands and
  // use register-memory ALU forms (add [mem], reg).
  bool fuse_addressing = true;
  // Heap base as a constant displacement (native) instead of a reserved
  // base register (JIT profiles reserve one; see reserved_gprs).
  bool heap_base_in_disp = true;
  Gpr heap_base_reg = Gpr::kRbx;  // used when !heap_base_in_disp
  // Registers withheld from allocation (beyond the universal rsp/rbp/rax/
  // rdx/rcx/scratch exclusions).
  std::vector<Gpr> reserved_gprs;
  std::vector<Xmm> reserved_xmms;
  // Rotate top-test loops into bottom-test form (1 branch/iteration).
  bool rotate_loops = true;
  // Emit an extra unconditional jump at loop entry (V8 codegen shape, §5.1.3).
  bool loop_entry_jump = false;
  // Per-function stack-overflow check (§6.2.2).
  bool stack_check = false;
  // call_indirect bounds + signature checks (§6.2.3).
  bool indirect_check = false;
  // asm.js-style coercions: an extra move after every arithmetic result
  // (models JavaScript |0 / +x coercion traffic surviving codegen).
  bool asmjs_coercions = false;

  // --- Profile-guided optimization (src/profile/) ---
  // Execution profile from a warm-up run (not owned; must outlive the
  // compile). Null disables every pgo_* flag below.
  const Profile* profile = nullptr;
  // Hotness-ordered function layout (hot code packed first, cutting L1i
  // misses) plus cold if-arm sinking with branch inversion.
  bool pgo_layout = false;
  // Rotate profiled-hot loops into bottom-test form even when rotate_loops
  // is off — recovers the §5.1.3 extra-branch cost for the JIT profiles
  // without paying rotation's code growth on cold loops.
  bool pgo_rotate_hot_loops = false;
  // Guarded direct calls for monomorphic indirect-call sites, skipping the
  // bounds/null/signature checks (§6.2.3) on the hot path.
  bool devirtualize_monomorphic = false;

  // Run the IR verifier (src/codegen/verify.h) after lowering and between
  // every optimization pass, and the MProgram verifier after linking. A
  // failure aborts the compile with result.error naming the offending pass,
  // function, and instruction. On by default in Debug builds; force on
  // anywhere with -DNSF_VERIFY_IR=ON. Deliberately EXCLUDED from
  // Fingerprint() below — verification never changes generated code, so a
  // cache entry produced with it off is still valid with it on.
#if defined(NSF_VERIFY_IR) || !defined(NDEBUG)
  bool verify_ir = true;
#else
  bool verify_ir = false;
#endif

  // Content fingerprint over every field that affects generated code,
  // including the attached profile's serialized contents. `profile_name` is
  // cosmetic and deliberately excluded: two options values that generate
  // identical code fingerprint equal, which is what a content-addressed
  // code cache wants. Unused PGO state (a profile attached with every pgo
  // flag off, or flags set with no profile) does not perturb the result.
  uint64_t Fingerprint() const;

  static CodegenOptions NativeClang();
  static CodegenOptions ChromeV8();
  static CodegenOptions FirefoxSM();
  static CodegenOptions ChromeAsmJs();
  static CodegenOptions FirefoxAsmJs();
  // Era profiles for the Figure 1 history experiment: progressively weaker
  // versions of ChromeV8 (2017 lacks several optimizations).
  static CodegenOptions ChromeV8_2017();
  static CodegenOptions ChromeV8_2018();
};

struct CompileStats {
  double seconds = 0;           // wall-clock compile time
  uint64_t vops = 0;            // IR size after lowering
  uint64_t minstrs = 0;         // emitted machine instructions
  uint64_t spill_slots = 0;     // total spill slots across functions
  uint64_t code_bytes = 0;
};

// A function export. MProgram function indices equal joint Wasm function
// indices, so `func_index` is also the function to run.
struct FuncExport {
  std::string name;
  uint32_t func_index = 0;
  bool operator==(const FuncExport&) const = default;
};

struct CompileResult {
  bool ok = false;
  std::string error;
  MProgram program;
  CompileStats stats;
  // The module's interface, all an embedder needs besides the program: the
  // field name of each function import, in import order (import i calls
  // host hook i), and the function exports, in module order.
  std::vector<std::string> import_names;
  std::vector<FuncExport> exports;

  // The function exported as `name`, or null.
  const FuncExport* FindExport(const std::string& name) const;
};

// Compiles a validated module. Imported functions become stub MFunctions
// that marshal stack arguments into registers and invoke host hook `i` (the
// i-th function import). The caller registers matching hooks on the machine.
CompileResult CompileModule(const Module& module, const CodegenOptions& options);

// Lowers a single function to IR (exposed for tests and the case study).
VFunc LowerFunction(const Module& module, uint32_t defined_index, const CodegenOptions& options);

}  // namespace nsf

#endif  // SRC_CODEGEN_CODEGEN_H_
