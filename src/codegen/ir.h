// Virtual-register IR sitting between Wasm bytecode and the simulated x64
// target. The lowering pass abstract-interprets the Wasm operand stack into
// three-address VOps; optimization passes rewrite them; register allocation
// assigns physical registers; emission produces MInstrs.
#ifndef SRC_CODEGEN_IR_H_
#define SRC_CODEGEN_IR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/wasm/module.h"
#include "src/x64/insts.h"

namespace nsf {

inline constexpr uint32_t kNoVReg = UINT32_MAX;

// Value class of a virtual register.
struct VRegInfo {
  bool is_fp = false;
  uint8_t width = 4;  // 4 or 8
};

struct VOp {
  enum class K : uint8_t {
    kParam,     // d <- incoming argument `imm` (stack slot read at emission)
    kConst,     // d <- imm (int, width)
    kConstF,    // d <- imm bit pattern (fp, width 4/8)
    kMove,      // d <- a (same class)
    kUn,        // d <- wop(a)
    kBin,       // d <- wop(a, b)
    kCmp,       // d <- (a `cond` b) as 0/1; fp_cmp when is_fp
    kSelect,    // d <- c != 0 ? a : b
    kLoad,      // d <- heap[a + offset], width/sign/is_fp
                //   after fusion, may carry base/index/scale in a/b/imm
    kStore,     // heap[a + offset] <- b
    kGlobalGet, // d <- globals[imm]
    kGlobalSet, // globals[imm] <- a
    kLabel,     // label `label`
    kBr,        // jump label
    kBrIf,      // if (a != 0) jump label  (negate: if a == 0)
    kBrCmp,     // if (a `cond` b) jump label (fused compare+branch)
    kCall,      // d? <- call func(args)
    kCallInd,   // d? <- call_indirect a with sig `sig` (args)
    kMemSize,   // d <- memory.size
    kMemGrow,   // d <- memory.grow(a)
    kRet,       // return a (or nothing when a == kNoVReg)
    kTrap,      // unconditional trap (unreachable)
  };

  K k = K::kConst;
  Opcode wop = Opcode::kNop;  // semantic selector for kUn/kBin
  uint32_t d = kNoVReg;
  uint32_t a = kNoVReg;
  uint32_t b = kNoVReg;
  uint32_t c = kNoVReg;
  uint64_t imm = 0;
  int32_t offset = 0;
  uint32_t label = 0;
  uint32_t func = 0;
  uint32_t sig = 0;
  uint8_t width = 4;
  bool sign = false;
  bool is_fp = false;
  bool negate = false;
  Cond cond = Cond::kE;
  std::vector<uint32_t> args;

  // Fused addressing (filled by the addressing-mode pass, native profile):
  // when scale != 0, a kLoad address is a + b*scale + offset and a kStore
  // address is a + c*scale + offset.
  uint8_t fuse_scale = 0;
  // Profile-site ordinal (src/profile/): which Wasm-level branch site
  // (kBrIf/kBrCmp lowered from `if`/`br_if`) or indirect-call site this op
  // came from; UINT32_MAX when unprofiled (e.g. br_table compare chains).
  uint32_t psite = UINT32_MAX;
  // Register-memory ALU fusion (kStore only): when not kNop, the store is
  // actually `alu_op [addr], b` — a load-modify-store in one instruction.
  Opcode alu_op = Opcode::kNop;
};

// One function in IR form.
struct VFunc {
  std::string name;
  uint32_t wasm_index = 0;     // joint function index
  uint32_t num_params = 0;
  bool ret_fp = false;
  bool has_ret = false;
  std::vector<VRegInfo> vregs;
  std::vector<VOp> ops;
  uint32_t next_label = 0;
  // Labels of loop headers (for the profile-specific loop-entry jump).
  std::vector<uint32_t> loop_headers;

  uint32_t NewVReg(bool is_fp, uint8_t width) {
    vregs.push_back(VRegInfo{is_fp, width});
    return static_cast<uint32_t>(vregs.size()) - 1;
  }
  uint32_t NewLabel() { return next_label++; }
};

// Calls `fn(v)` for each vreg `op` reads (up to 3 plus args). A template so
// the per-use call inlines: every pass runs it on every op.
template <typename Fn>
void ForEachUse(const VOp& op, Fn&& fn) {
  auto visit = [&fn](uint32_t v) {
    if (v != kNoVReg) {
      fn(v);
    }
  };
  switch (op.k) {
    case VOp::K::kParam:
    case VOp::K::kConst:
    case VOp::K::kConstF:
    case VOp::K::kGlobalGet:
    case VOp::K::kLabel:
    case VOp::K::kBr:
    case VOp::K::kTrap:
    case VOp::K::kMemSize:
      break;
    case VOp::K::kMove:
    case VOp::K::kUn:
    case VOp::K::kGlobalSet:
    case VOp::K::kBrIf:
    case VOp::K::kMemGrow:
    case VOp::K::kRet:
      visit(op.a);
      break;
    case VOp::K::kBin:
    case VOp::K::kCmp:
    case VOp::K::kBrCmp:
      visit(op.a);
      visit(op.b);
      break;
    case VOp::K::kSelect:
      visit(op.a);
      visit(op.b);
      visit(op.c);
      break;
    case VOp::K::kLoad:
      visit(op.a);
      if (op.fuse_scale != 0) {
        visit(op.b);
      }
      break;
    case VOp::K::kStore:
      visit(op.a);
      visit(op.b);
      if (op.fuse_scale != 0) {
        visit(op.c);
      }
      break;
    case VOp::K::kCall:
      for (uint32_t v : op.args) {
        visit(v);
      }
      break;
    case VOp::K::kCallInd:
      visit(op.a);
      for (uint32_t v : op.args) {
        visit(v);
      }
      break;
  }
}

// Returns the vreg defined by `op`, or kNoVReg.
uint32_t DefOf(const VOp& op);
// True if the op has no side effects and its result being dead makes it
// removable.
bool IsPure(const VOp& op);

std::string VOpToString(const VOp& op);

}  // namespace nsf

#endif  // SRC_CODEGEN_IR_H_
