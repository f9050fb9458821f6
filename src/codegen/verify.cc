// Pipeline verifiers. See verify.h for what each one guarantees.
//
// Both verifiers share the same skeleton: structural checks first (indices,
// labels, operand shapes — anything checkable per-instruction), then a
// forward dataflow with INTERSECTION meet over predecessors, so "defined"
// means defined on every path from entry. Unreachable blocks start from the
// top element (everything defined) and therefore never produce false
// positives; real engines' verifiers (LLVM's MachineVerifier) make the same
// choice.
#include "src/codegen/verify.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/support/str.h"
#include "src/wasm/types.h"
#include "src/x64/regs.h"

namespace nsf {

namespace {

// ---------------------------------------------------------------------------
// Shared CFG machinery
// ---------------------------------------------------------------------------

// Basic blocks as [begin, end) instruction ranges with at most two successors
// (fallthrough + branch target). Works for both IRs here: each has a single
// conditional-branch shape and no indirect branches.
struct Block {
  size_t begin = 0;
  size_t end = 0;
  int succ[2] = {-1, -1};
  int nsucc = 0;
};

// Splits [0, n) into *blocks. `is_leader[i]` marks instruction i as a block
// start (entry, label/branch targets, fall-past-terminator points).
void BuildBlocks(const std::vector<bool>& is_leader, size_t n, std::vector<Block>* blocks) {
  blocks->clear();
  for (size_t i = 0; i < n; i++) {
    if (i == 0 || is_leader[i]) {
      blocks->push_back(Block{i, i + 1, {-1, -1}, 0});
    } else {
      blocks->back().end = i + 1;
    }
  }
}

int BlockOf(const std::vector<Block>& blocks, size_t instr) {
  // Blocks are sorted and disjoint; binary search by begin.
  size_t lo = 0;
  size_t hi = blocks.size();
  while (lo + 1 < hi) {
    size_t mid = (lo + hi) / 2;
    if (blocks[mid].begin <= instr) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo);
}

// ---------------------------------------------------------------------------
// IR verifier
// ---------------------------------------------------------------------------

bool IsIrBranch(const VOp& op) {
  return op.k == VOp::K::kBr || op.k == VOp::K::kBrIf || op.k == VOp::K::kBrCmp;
}

bool IsIrTerminator(const VOp& op) {
  return IsIrBranch(op) || op.k == VOp::K::kRet || op.k == VOp::K::kTrap;
}

// Growable bitset for vreg dataflow (functions can have thousands of vregs).
class VRegSet {
 public:
  explicit VRegSet(size_t n, bool all) : words_((n + 63) / 64, all ? ~0ull : 0) {}
  void Set(size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
  bool Get(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }
  void IntersectWith(const VRegSet& o) {
    for (size_t i = 0; i < words_.size(); i++) {
      words_[i] &= o.words_[i];
    }
  }
  bool operator==(const VRegSet& o) const { return words_ == o.words_; }

 private:
  std::vector<uint64_t> words_;
};

// Looks up the signature of joint function index `func`, or null with *err.
const FuncType* SigOfFunc(const Module& module, uint32_t func, std::string* err) {
  if (func >= module.NumTotalFuncs()) {
    *err = StrFormat("call target f%u out of range (%u functions)", func, module.NumTotalFuncs());
    return nullptr;
  }
  uint32_t type_index = module.IsImportedFunc(func) ? module.FuncImportOf(func).type_index
                                                    : module.DefinedFunc(func).type_index;
  if (type_index >= module.types.size()) {
    *err = StrFormat("call target f%u has type index %u out of range", func, type_index);
    return nullptr;
  }
  return &module.types[type_index];
}

// Class/width/signature consistency for one op. Returns "" when consistent.
// kUn and kGlobalGet/kGlobalSet value classes are intentionally unchecked:
// conversions legitimately mix classes and globals are raw 64-bit slots.
std::string CheckOpClasses(const VFunc& vf, const VOp& op, const Module& module) {
  auto fp = [&vf](uint32_t v) { return vf.vregs[v].is_fp; };
  auto want_int = [&](uint32_t v, const char* what) -> std::string {
    if (v != kNoVReg && fp(v)) {
      return StrFormat("%s v%u must be int-class, is fp", what, v);
    }
    return "";
  };
  auto want_class = [&](uint32_t v, bool want_fp, const char* what) -> std::string {
    if (v != kNoVReg && fp(v) != want_fp) {
      return StrFormat("%s v%u is %s-class, expected %s", what, v, fp(v) ? "fp" : "int",
                       want_fp ? "fp" : "int");
    }
    return "";
  };
  auto check_sig = [&](const FuncType& sig) -> std::string {
    if (op.args.size() != sig.params.size()) {
      return StrFormat("call passes %zu args, signature wants %zu params", op.args.size(),
                       sig.params.size());
    }
    for (size_t a = 0; a < op.args.size(); a++) {
      std::string e = want_class(op.args[a], IsFloat(sig.params[a]),
                                 StrFormat("call arg #%zu", a).c_str());
      if (!e.empty()) {
        return e;
      }
    }
    if (op.d != kNoVReg) {
      if (sig.results.empty()) {
        return StrFormat("call defines v%u but the signature has no result", op.d);
      }
      return want_class(op.d, IsFloat(sig.results[0]), "call result");
    }
    return "";
  };

  switch (op.k) {
    case VOp::K::kParam:
      if (op.imm >= vf.num_params) {
        return StrFormat("param index %llu out of range (%u params)",
                         static_cast<unsigned long long>(op.imm), vf.num_params);
      }
      return "";
    case VOp::K::kConst:
      return want_class(op.d, false, "const result");
    case VOp::K::kConstF:
      return want_class(op.d, true, "constf result");
    case VOp::K::kMove:
      if (fp(op.d) != fp(op.a)) {
        return StrFormat("move mixes classes: v%u is %s, v%u is %s", op.d,
                         fp(op.d) ? "fp" : "int", op.a, fp(op.a) ? "fp" : "int");
      }
      return want_class(op.d, op.is_fp, "move (op.is_fp disagrees with)");
    case VOp::K::kBin: {
      std::string e = want_class(op.d, op.is_fp, "bin result");
      if (e.empty()) e = want_class(op.a, op.is_fp, "bin lhs");
      if (e.empty()) e = want_class(op.b, op.is_fp, "bin rhs");
      return e;
    }
    case VOp::K::kCmp: {
      std::string e = want_int(op.d, "cmp result");
      if (e.empty()) e = want_class(op.a, op.is_fp, "cmp lhs");
      if (e.empty()) e = want_class(op.b, op.is_fp, "cmp rhs");
      return e;
    }
    case VOp::K::kSelect: {
      std::string e = want_int(op.c, "select condition");
      if (e.empty() && (fp(op.d) != fp(op.a) || fp(op.d) != fp(op.b))) {
        e = StrFormat("select mixes classes: d v%u=%s a v%u=%s b v%u=%s", op.d,
                      fp(op.d) ? "fp" : "int", op.a, fp(op.a) ? "fp" : "int", op.b,
                      fp(op.b) ? "fp" : "int");
      }
      return e;
    }
    case VOp::K::kLoad: {
      std::string e = want_class(op.d, op.is_fp, "load result");
      if (e.empty()) e = want_int(op.a, "load base");
      if (e.empty() && op.fuse_scale != 0) e = want_int(op.b, "load index");
      if (e.empty() && op.width != 1 && op.width != 2 && op.width != 4 && op.width != 8) {
        e = StrFormat("load width %u invalid", op.width);
      }
      if (e.empty() && op.is_fp && op.width < 4) {
        e = StrFormat("fp load width %u invalid", op.width);
      }
      return e;
    }
    case VOp::K::kStore: {
      std::string e = want_class(op.b, op.is_fp, "store value");
      if (e.empty()) e = want_int(op.a, "store base");
      if (e.empty() && op.fuse_scale != 0) e = want_int(op.c, "store index");
      if (e.empty() && op.width != 1 && op.width != 2 && op.width != 4 && op.width != 8) {
        e = StrFormat("store width %u invalid", op.width);
      }
      if (e.empty() && op.alu_op != Opcode::kNop && op.is_fp) {
        e = "register-memory ALU store must be int-class";
      }
      return e;
    }
    case VOp::K::kGlobalGet:
    case VOp::K::kGlobalSet:
      if (op.imm > module.NumTotalGlobals()) {  // slot space is [0, globals]
        return StrFormat("global slot %llu out of range (%u wasm globals + stack limit)",
                         static_cast<unsigned long long>(op.imm), module.NumTotalGlobals());
      }
      return "";
    case VOp::K::kBrIf:
      return want_int(op.a, "br_if condition");
    case VOp::K::kBrCmp: {
      std::string e = want_class(op.a, op.is_fp, "br_cmp lhs");
      if (e.empty()) e = want_class(op.b, op.is_fp, "br_cmp rhs");
      return e;
    }
    case VOp::K::kCall: {
      std::string e;
      const FuncType* sig = SigOfFunc(module, op.func, &e);
      return sig == nullptr ? e : check_sig(*sig);
    }
    case VOp::K::kCallInd: {
      if (op.sig >= module.types.size()) {
        return StrFormat("call_indirect signature %u out of range (%zu types)", op.sig,
                         module.types.size());
      }
      std::string e = want_int(op.a, "call_indirect table index");
      return e.empty() ? check_sig(module.types[op.sig]) : e;
    }
    case VOp::K::kMemSize:
      return want_int(op.d, "memory.size result");
    case VOp::K::kMemGrow: {
      std::string e = want_int(op.d, "memory.grow result");
      return e.empty() ? want_int(op.a, "memory.grow pages") : e;
    }
    case VOp::K::kRet:
      if (op.a != kNoVReg) {
        if (!vf.has_ret) {
          return StrFormat("ret v%u in a function with no result", op.a);
        }
        return want_class(op.a, vf.ret_fp, "ret value");
      }
      return "";
    case VOp::K::kUn:
    case VOp::K::kLabel:
    case VOp::K::kBr:
    case VOp::K::kTrap:
      return "";
  }
  return "";
}

}  // namespace

std::string VerifyIR(const VFunc& vf, const Module& module) {
  const std::vector<VOp>& ops = vf.ops;
  const size_t n = ops.size();
  const size_t nv = vf.vregs.size();
  auto at = [&](size_t i, const std::string& msg) {
    return StrFormat("func '%s' (wasm #%u) op #%zu [%s]: %s", vf.name.c_str(), vf.wasm_index, i,
                     VOpToString(ops[i]).c_str(), msg.c_str());
  };

  for (size_t v = 0; v < nv; v++) {
    if (vf.vregs[v].width != 4 && vf.vregs[v].width != 8) {
      return StrFormat("func '%s' (wasm #%u): vreg v%zu has width %u (want 4 or 8)",
                       vf.name.c_str(), vf.wasm_index, v, vf.vregs[v].width);
    }
  }

  // Structural pass: vreg ids in range, labels unique and in range.
  std::unordered_map<uint32_t, size_t> label_at;
  for (size_t i = 0; i < n; i++) {
    const VOp& op = ops[i];
    uint32_t d = DefOf(op);
    if (d != kNoVReg && d >= nv) {
      return at(i, StrFormat("defines out-of-range vreg v%u (%zu vregs)", d, nv));
    }
    std::string bad;
    ForEachUse(op, [&bad, nv](uint32_t v) {
      if (bad.empty() && v >= nv) {
        bad = StrFormat("uses out-of-range vreg v%u (%zu vregs)", v, nv);
      }
    });
    if (!bad.empty()) {
      return at(i, bad);
    }
    if (op.k == VOp::K::kLabel) {
      if (op.label >= vf.next_label) {
        return at(i, StrFormat("label L%u >= next_label %u", op.label, vf.next_label));
      }
      auto inserted = label_at.emplace(op.label, i);
      if (!inserted.second) {
        return at(i, StrFormat("duplicate label L%u (first bound at op #%zu)", op.label,
                               inserted.first->second));
      }
    }
  }
  for (size_t i = 0; i < n; i++) {
    if (IsIrBranch(ops[i]) && label_at.find(ops[i].label) == label_at.end()) {
      return at(i, StrFormat("branch to undefined label L%u", ops[i].label));
    }
  }

  // Class / width / signature consistency.
  for (size_t i = 0; i < n; i++) {
    std::string e = CheckOpClasses(vf, ops[i], module);
    if (!e.empty()) {
      return at(i, e);
    }
  }

  // Forward def-before-use dataflow over vregs.
  std::vector<bool> leader(n, false);
  for (size_t i = 0; i < n; i++) {
    if (ops[i].k == VOp::K::kLabel) {
      leader[i] = true;
    }
    if (IsIrTerminator(ops[i]) && i + 1 < n) {
      leader[i + 1] = true;
    }
  }
  std::vector<Block> blocks;
  BuildBlocks(leader, n, &blocks);
  if (blocks.empty()) {
    return "";
  }
  for (size_t b = 0; b < blocks.size(); b++) {
    Block& blk = blocks[b];
    const VOp& last = ops[blk.end - 1];
    if (IsIrBranch(last)) {
      blk.succ[blk.nsucc++] = BlockOf(blocks, label_at[last.label]);
    }
    bool falls = last.k != VOp::K::kBr && last.k != VOp::K::kRet && last.k != VOp::K::kTrap;
    if (falls && blk.end < n) {
      blk.succ[blk.nsucc++] = static_cast<int>(b) + 1;
    }
  }
  std::vector<std::vector<int>> preds(blocks.size());
  for (size_t b = 0; b < blocks.size(); b++) {
    for (int s = 0; s < blocks[b].nsucc; s++) {
      preds[blocks[b].succ[s]].push_back(static_cast<int>(b));
    }
  }

  auto block_in = [&](size_t b, const std::vector<VRegSet>& outs) {
    // Entry meets a virtual empty predecessor (nothing defined at entry);
    // unreachable blocks keep the top element and never report.
    VRegSet in(nv, b != 0);
    if (b != 0) {
      bool first = true;
      for (int p : preds[b]) {
        if (first) {
          in = outs[p];
          first = false;
        } else {
          in.IntersectWith(outs[p]);
        }
      }
    } else {
      // still meet real predecessors (a loop back to op #0): intersection
      // with the empty entry set stays empty, which is exactly right.
    }
    return in;
  };

  std::vector<VRegSet> outs(blocks.size(), VRegSet(nv, true));
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = 0; b < blocks.size(); b++) {
      VRegSet cur = block_in(b, outs);
      for (size_t i = blocks[b].begin; i < blocks[b].end; i++) {
        uint32_t d = DefOf(ops[i]);
        if (d != kNoVReg) {
          cur.Set(d);
        }
      }
      if (!(cur == outs[b])) {
        outs[b] = cur;
        changed = true;
      }
    }
  }
  for (size_t b = 0; b < blocks.size(); b++) {
    VRegSet cur = block_in(b, outs);
    for (size_t i = blocks[b].begin; i < blocks[b].end; i++) {
      uint32_t bad_use = kNoVReg;
      ForEachUse(ops[i], [&bad_use, &cur](uint32_t v) {
        if (bad_use == kNoVReg && !cur.Get(v)) {
          bad_use = v;
        }
      });
      if (bad_use != kNoVReg) {
        return at(i, StrFormat("use of v%u before definition (not defined on every path "
                               "reaching this op)",
                               bad_use));
      }
      uint32_t d = DefOf(ops[i]);
      if (d != kNoVReg) {
        cur.Set(d);
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// MProgram verifier
// ---------------------------------------------------------------------------

namespace {

// Register-state mask for the machine dataflow (see verify.h).
constexpr int kXmmBase = kNumGprs;
constexpr int kFlagsBit = kXmmBase + kNumXmms;
inline uint64_t GprMask(Gpr g) { return 1ull << static_cast<int>(g); }
inline uint64_t XmmMask(Xmm x) { return 1ull << (kXmmBase + static_cast<int>(x)); }
constexpr uint64_t kFlagsMask = 1ull << kFlagsBit;

// Scratch registers the emitter never allocates; a call may clobber them
// (callees use them freely and do not save them), so they die at calls —
// along with the compare state, which no emitted code carries across a call.
constexpr uint64_t kCallClobbered =
    (1ull << static_cast<int>(Gpr::kR10)) | (1ull << static_cast<int>(Gpr::kR11)) |
    (1ull << (kXmmBase + static_cast<int>(Xmm::kXmm14))) |
    (1ull << (kXmmBase + static_cast<int>(Xmm::kXmm15))) | kFlagsMask;

bool IsRmwOp(MOp op) {
  switch (op) {
    case MOp::kAdd:
    case MOp::kSub:
    case MOp::kImul:
    case MOp::kAnd:
    case MOp::kOr:
    case MOp::kXor:
    case MOp::kNeg:
    case MOp::kNot:
    case MOp::kShl:
    case MOp::kShr:
    case MOp::kSar:
    case MOp::kRol:
    case MOp::kRor:
    case MOp::kAddsd:
    case MOp::kSubsd:
    case MOp::kMulsd:
    case MOp::kDivsd:
    case MOp::kMinsd:
    case MOp::kMaxsd:
    case MOp::kAndpd:
    case MOp::kXorpd:
    case MOp::kOrpd:
    case MOp::kAddss:
    case MOp::kSubss:
    case MOp::kMulss:
    case MOp::kDivss:
    case MOp::kMinss:
    case MOp::kMaxss:
      return true;
    default:
      return false;
  }
}

// Pure dst <- f(src) shapes: dst is written without being read.
bool IsPureDefOp(MOp op) {
  switch (op) {
    case MOp::kMov:
    case MOp::kMovImm64:
    case MOp::kLoad:
    case MOp::kStore:  // dst is the memory operand; handled as a store
    case MOp::kLea:
    case MOp::kLzcnt:
    case MOp::kTzcnt:
    case MOp::kPopcnt:
    case MOp::kMovsxd:
    case MOp::kMovsd:
    case MOp::kMovss:
    case MOp::kSqrtsd:
    case MOp::kSqrtss:
    case MOp::kCvtsi2sd:
    case MOp::kCvtsi2ss:
    case MOp::kCvttsd2si:
    case MOp::kCvttss2si:
    case MOp::kCvtss2sd:
    case MOp::kCvtsd2ss:
    case MOp::kRoundsd:
    case MOp::kRoundss:
    case MOp::kMovqToXmm:
    case MOp::kMovqFromXmm:
      return true;
    default:
      return false;
  }
}

// The one per-op classifier of the machine dataflow. Hands every register
// or compare-state bit `in` reads to `on_read`, in operand order, and returns
// the bits it kills and defines: the defined mask after `in` is
// (live & ~kill) | def. All of an instruction's reads see the mask from
// before it.
struct MachineEffect {
  uint64_t kill = 0;
  uint64_t def = 0;
};

template <typename OnRead>
MachineEffect ClassifyMachineInstr(const MInstr& in, OnRead&& on_read) {
  MachineEffect e;
  auto read_gpr = [&](Gpr g) { on_read(static_cast<int>(g)); };
  auto read_mem = [&](const MemRef& m) {
    if (m.base.has_value()) {
      read_gpr(*m.base);
    }
    if (m.index.has_value()) {
      read_gpr(*m.index);
    }
  };
  auto read_op = [&](const Operand& o) {
    switch (o.kind) {
      case OperandKind::kGpr:
        read_gpr(o.gpr);
        break;
      case OperandKind::kXmm:
        on_read(kXmmBase + static_cast<int>(o.xmm));
        break;
      case OperandKind::kMem:
        read_mem(o.mem);
        break;
      case OperandKind::kImm:
      case OperandKind::kNone:
        break;
    }
  };
  auto def_op = [&](const Operand& o) {
    if (o.kind == OperandKind::kGpr) {
      e.def |= GprMask(o.gpr);
    } else if (o.kind == OperandKind::kXmm) {
      e.def |= XmmMask(o.xmm);
    }
  };
  auto call_effects = [&]() {
    e.kill = kCallClobbered;
    e.def = GprMask(Gpr::kRax) | XmmMask(Xmm::kXmm0);
  };
  // The prologue's callee-saves (and the import stubs' pushes) legitimately
  // read registers that still hold the CALLER's values: a push, or a
  // register store into the frame's save area, is a save — the source needs
  // no prior definition.
  auto is_frame_save = [&]() {
    return in.dst.is_mem() && in.dst.mem.base.has_value() && *in.dst.mem.base == Gpr::kRbp &&
           in.dst.mem.disp < 0 && (in.src.is_reg() || in.src.is_xmm());
  };

  switch (in.op) {
    case MOp::kPush:
      return e;  // a save: the pushed register needs no prior definition
    case MOp::kPop:
      def_op(in.dst);
      return e;
    case MOp::kXchg:
      read_op(in.dst);
      read_op(in.src);
      return e;
    case MOp::kCmp:
    case MOp::kTest:
    case MOp::kUcomisd:
    case MOp::kUcomiss:
      read_op(in.dst);
      read_op(in.src);
      e.def = kFlagsMask;
      return e;
    case MOp::kSetcc:
      on_read(kFlagsBit);
      def_op(in.dst);
      return e;
    case MOp::kJcc:
      on_read(kFlagsBit);
      return e;
    case MOp::kJmp:
    case MOp::kRet:
    case MOp::kNop:
      return e;
    case MOp::kCdq:
      read_gpr(Gpr::kRax);
      e.def = GprMask(Gpr::kRdx);
      return e;
    case MOp::kIdiv:
    case MOp::kDiv:
      read_gpr(Gpr::kRax);
      read_gpr(Gpr::kRdx);
      read_op(in.dst);
      read_op(in.src);
      e.def = GprMask(Gpr::kRax) | GprMask(Gpr::kRdx);
      return e;
    case MOp::kCall:
    case MOp::kCallHost:
      call_effects();
      return e;
    case MOp::kCallReg:
      read_op(in.dst);
      call_effects();
      return e;
    default:
      break;
  }

  if (IsRmwOp(in.op)) {
    // xor r, r / xorpd x, x zero an undefined register by idiom: def only.
    bool zero_idiom =
        (in.op == MOp::kXor && in.dst.is_reg() && in.src.is_reg() && in.dst.gpr == in.src.gpr) ||
        (in.op == MOp::kXorpd && in.dst.is_xmm() && in.src.is_xmm() && in.dst.xmm == in.src.xmm);
    if (!zero_idiom) {
      read_op(in.dst);
      read_op(in.src);
      read_op(in.src2);  // shift counts in rcx
    }
    if (in.dst.is_mem()) {
      read_mem(in.dst.mem);
    } else {
      def_op(in.dst);
    }
    return e;
  }
  if (IsPureDefOp(in.op)) {
    if (in.dst.is_mem()) {
      read_mem(in.dst.mem);
      if (!is_frame_save()) {
        read_op(in.src);
      }
    } else {
      read_op(in.src);
      read_op(in.src2);
      def_op(in.dst);
    }
    return e;
  }
  // Any MOp not classified above gets no dataflow modeling; structural
  // checks still apply. (Currently unreachable: the switch + classes cover
  // the whole enum.)
  return e;
}

// One instruction's (use, kill, def) masks: every bit it reads, and its
// effect on the defined mask.
struct InstrMasks {
  uint64_t use = 0;
  uint64_t kill = 0;
  uint64_t def = 0;
};

InstrMasks MasksOf(const MInstr& in) {
  InstrMasks m;
  MachineEffect e = ClassifyMachineInstr(in, [&m](int bit) { m.use |= 1ull << bit; });
  m.kill = e.kill;
  m.def = e.def;
  return m;
}

}  // namespace

std::string StepMachineInstr(const MInstr& in, uint64_t* live) {
  std::string err;
  MachineEffect e = ClassifyMachineInstr(in, [&](int bit) {
    if (!err.empty() || ((*live >> bit) & 1) != 0) {
      return;
    }
    if (bit == kFlagsBit) {
      // Only jcc and setcc read the compare state.
      err = StrFormat("%s with no compare state produced on this path",
                      in.op == MOp::kSetcc ? "setcc" : "jcc");
    } else {
      err = StrFormat("reads %s before any definition on this path",
                      bit < kXmmBase ? GprName(static_cast<Gpr>(bit))
                                     : XmmName(static_cast<Xmm>(bit - kXmmBase)));
    }
  });
  *live = (*live & ~e.kill) | e.def;
  return err;
}

namespace {

// The machine dataflow's working storage. VerifyMachine reuses one across a
// program's functions, so checking a function allocates nothing once the
// buffers have grown.
struct MachineScratch {
  std::vector<InstrMasks> masks;  // per instruction
  std::vector<bool> leader;       // per instruction: starts a block
  std::vector<Block> blocks;
  std::vector<uint64_t> gen, kill, ins, outs;  // per block
};

std::string CheckMachineFunction(const MProgram& prog, size_t func_index, MachineScratch* s) {
  const MFunction& f = prog.funcs[func_index];
  const std::vector<MInstr>& code = f.code;
  const size_t n = code.size();
  auto at = [&](size_t i, const std::string& msg) {
    return StrFormat("machine func '%s' (#%zu) instr #%zu [%s]: %s", f.name.c_str(), func_index,
                     i, MInstrToString(code[i]).c_str(), msg.c_str());
  };

  // One pass: structural checks (branch/call targets and rbp frame
  // discipline, reported before any dataflow finding), each instruction's
  // (use, kill, def) masks, and block leaders.
  s->masks.resize(n);
  s->leader.assign(n, false);
  for (size_t i = 0; i < n; i++) {
    const MInstr& in = code[i];
    if ((in.op == MOp::kJmp || in.op == MOp::kJcc) && in.label >= n) {
      return at(i, StrFormat("branch target %u out of range (%zu instructions)", in.label, n));
    }
    if (in.op == MOp::kCall && in.func >= prog.funcs.size()) {
      return at(i, StrFormat("call target f%u out of range (%zu functions)", in.func,
                             prog.funcs.size()));
    }
    const Operand* operands[] = {&in.dst, &in.src, &in.src2};
    for (const Operand* o : operands) {
      if (!o->is_mem() || !o->mem.base.has_value() || *o->mem.base != Gpr::kRbp) {
        continue;
      }
      const MemRef& m = o->mem;
      if (m.index.has_value()) {
        return at(i, "indexed rbp addressing (frame accesses are [rbp + disp] only)");
      }
      if (m.disp % 8 != 0) {
        return at(i, StrFormat("misaligned frame access [rbp%+d]", m.disp));
      }
      if (m.disp < 0) {
        if (-(static_cast<int64_t>(m.disp)) / 8 > f.frame_slots) {
          return at(i, StrFormat("frame access [rbp%+d] outside the %u-slot frame", m.disp,
                                 f.frame_slots));
        }
      } else if (m.disp < 16) {
        return at(i, StrFormat("frame access [rbp%+d] hits the saved-rbp/return slots", m.disp));
      }
    }
    s->masks[i] = MasksOf(in);
    if (in.op == MOp::kJmp || in.op == MOp::kJcc) {
      s->leader[in.label] = true;
      if (i + 1 < n) {
        s->leader[i + 1] = true;
      }
    } else if (in.op == MOp::kRet && i + 1 < n) {
      s->leader[i + 1] = true;
    }
  }
  if (n == 0) {
    return "";
  }

  // Register + compare-state def-before-use dataflow. Each block folds its
  // instructions into one summary, out = (in & ~kill) | gen, so the
  // fixpoint iterates over blocks only.
  BuildBlocks(s->leader, n, &s->blocks);
  const size_t nb = s->blocks.size();
  s->gen.assign(nb, 0);
  s->kill.assign(nb, 0);
  for (size_t b = 0; b < nb; b++) {
    Block& blk = s->blocks[b];
    const MInstr& last = code[blk.end - 1];
    if (last.op == MOp::kJmp || last.op == MOp::kJcc) {
      blk.succ[blk.nsucc++] = BlockOf(s->blocks, last.label);
    }
    if (last.op != MOp::kJmp && last.op != MOp::kRet && blk.end < n) {
      blk.succ[blk.nsucc++] = static_cast<int>(b) + 1;
    }
    for (size_t i = blk.begin; i < blk.end; i++) {
      s->gen[b] = (s->gen[b] & ~s->masks[i].kill) | s->masks[i].def;
      s->kill[b] |= s->masks[i].kill;
    }
  }
  // Greatest fixpoint from the top element. A block's in is the
  // intersection of its predecessors' outs, kept up to date by pushing each
  // new out into the successors (outs only shrink); the entry block's in is
  // the entry convention alone, and unreachable blocks keep the top element.
  constexpr uint64_t kAll = ~0ull;
  s->ins.assign(nb, kAll);
  s->ins[0] = kMachineEntryLive;
  s->outs.assign(nb, kAll);
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t b = 0; b < nb; b++) {
      uint64_t out = (s->ins[b] & ~s->kill[b]) | s->gen[b];
      if (out == s->outs[b]) {
        continue;
      }
      s->outs[b] = out;
      changed = true;
      const Block& blk = s->blocks[b];
      for (int k = 0; k < blk.nsucc; k++) {
        if (blk.succ[k] != 0) {
          s->ins[blk.succ[k]] &= out;
        }
      }
    }
  }
  // Reporting pass: the first instruction that reads a bit not defined on
  // every path is worded by the classifier's own step.
  for (size_t b = 0; b < nb; b++) {
    uint64_t cur = s->ins[b];
    for (size_t i = s->blocks[b].begin; i < s->blocks[b].end; i++) {
      const InstrMasks& m = s->masks[i];
      if ((m.use & ~cur) != 0) {
        return at(i, StepMachineInstr(code[i], &cur));
      }
      cur = (cur & ~m.kill) | m.def;
    }
  }
  return "";
}

}  // namespace

std::string VerifyMachineFunction(const MProgram& prog, size_t func_index) {
  MachineScratch scratch;
  return CheckMachineFunction(prog, func_index, &scratch);
}

std::string VerifyMachine(const MProgram& prog) {
  if (!prog.layout_order.empty()) {
    if (prog.layout_order.size() != prog.funcs.size()) {
      return StrFormat("layout_order has %zu entries for %zu functions",
                       prog.layout_order.size(), prog.funcs.size());
    }
    std::vector<bool> seen(prog.funcs.size(), false);
    for (uint32_t v : prog.layout_order) {
      if (v >= prog.funcs.size() || seen[v]) {
        return StrFormat("layout_order is not a permutation of [0, %zu): entry %u %s",
                         prog.funcs.size(), v, v >= prog.funcs.size() ? "out of range" : "repeated");
      }
      seen[v] = true;
    }
  }
  for (size_t t = 0; t < prog.table.size(); t++) {
    const MProgram::TableEntry& e = prog.table[t];
    if (e.func_index != UINT32_MAX && e.func_index >= prog.funcs.size()) {
      return StrFormat("table[%zu] targets f%u out of range (%zu functions)", t, e.func_index,
                       prog.funcs.size());
    }
    if (e.func_index != UINT32_MAX && e.sig_id == UINT32_MAX) {
      return StrFormat("table[%zu] has a target f%u but a null signature", t, e.func_index);
    }
  }
  for (const auto& gi : prog.global_inits) {
    if (gi.first >= prog.num_globals) {
      return StrFormat("global init slot %u out of range (%u slots)", gi.first,
                       prog.num_globals);
    }
  }
  const uint64_t memory_bytes = static_cast<uint64_t>(prog.memory_pages) * 65536;
  for (const auto& seg : prog.data_segments) {
    if (static_cast<uint64_t>(seg.first) + seg.second.size() > memory_bytes) {
      return StrFormat("data segment [%u, %u+%zu) outside initial memory (%llu bytes)",
                       seg.first, seg.first, seg.second.size(),
                       static_cast<unsigned long long>(memory_bytes));
    }
  }
  MachineScratch scratch;
  for (size_t i = 0; i < prog.funcs.size(); i++) {
    std::string e = CheckMachineFunction(prog, i, &scratch);
    if (!e.empty()) {
      return e;
    }
  }
  return "";
}

}  // namespace nsf
