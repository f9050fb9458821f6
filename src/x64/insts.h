// Instruction set of the simulated x86-64 target.
//
// This is not a byte-exact x86 encoder: instructions are kept in structured
// form and executed directly by the machine. What *is* modeled faithfully:
//   - the register file (incl. rsp-based stack, rax/rdx division convention,
//     cl shift-count convention),
//   - full [base + index*scale + disp] addressing modes, with optional
//     memory operands on ALU instructions (register-memory forms),
//   - per-instruction encoded byte sizes (driving the L1i cache model),
//   - flags via compare-and-branch condition codes.
// These are exactly the properties the paper's analysis depends on (§5, §6).
#ifndef SRC_X64_INSTS_H_
#define SRC_X64_INSTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/x64/regs.h"

namespace nsf {

// Condition codes for Jcc / Setcc.
enum class Cond : uint8_t {
  kE,   // equal / zero
  kNe,
  kL,   // signed <
  kLe,
  kG,
  kGe,
  kB,   // unsigned <
  kBe,
  kA,
  kAe,
  kS,   // sign
  kNs,
  kP,   // parity (FP unordered)
  kNp,
};

const char* CondName(Cond c);
Cond NegateCond(Cond c);

// Memory operand: [base + index*scale + disp32].
struct MemRef {
  std::optional<Gpr> base;
  std::optional<Gpr> index;
  uint8_t scale = 1;  // 1/2/4/8
  int32_t disp = 0;

  static MemRef BaseDisp(Gpr base, int32_t disp = 0) {
    MemRef m;
    m.base = base;
    m.disp = disp;
    return m;
  }
  static MemRef BaseIndex(Gpr base, Gpr index, uint8_t scale, int32_t disp = 0) {
    MemRef m;
    m.base = base;
    m.index = index;
    m.scale = scale;
    m.disp = disp;
    return m;
  }
  static MemRef Abs(int32_t disp) {
    MemRef m;
    m.disp = disp;
    return m;
  }
};

enum class OperandKind : uint8_t { kNone, kGpr, kXmm, kImm, kMem };

struct Operand {
  OperandKind kind = OperandKind::kNone;
  Gpr gpr = Gpr::kRax;
  Xmm xmm = Xmm::kXmm0;
  int64_t imm = 0;
  MemRef mem;

  static Operand R(Gpr r) {
    Operand o;
    o.kind = OperandKind::kGpr;
    o.gpr = r;
    return o;
  }
  static Operand X(Xmm r) {
    Operand o;
    o.kind = OperandKind::kXmm;
    o.xmm = r;
    return o;
  }
  static Operand Imm(int64_t v) {
    Operand o;
    o.kind = OperandKind::kImm;
    o.imm = v;
    return o;
  }
  static Operand M(MemRef m) {
    Operand o;
    o.kind = OperandKind::kMem;
    o.mem = m;
    return o;
  }
  bool is_reg() const { return kind == OperandKind::kGpr; }
  bool is_mem() const { return kind == OperandKind::kMem; }
  bool is_imm() const { return kind == OperandKind::kImm; }
  bool is_xmm() const { return kind == OperandKind::kXmm; }
};

// Machine opcodes. Integer ops use `width` (4 or 8 bytes) like the 32/64-bit
// forms of the real ISA; loads additionally honor `width` 1/2 with
// `sign_extend`.
enum class MOp : uint8_t {
  // Data movement.
  kMov,     // dst <- src (reg/imm/mem; one side must not be mem for both)
  kMovImm64,  // dst reg <- 64-bit immediate (10-byte form)
  kLoad,    // dst reg <- [mem], width 1/2/4/8, sign_extend for sub-word
  kStore,   // [mem] <- src (reg or imm), width 1/2/4/8
  kLea,     // dst reg <- address of mem operand
  kPush,    // push reg
  kPop,     // pop reg
  kXchg,

  // Integer ALU (dst: reg or mem; src: reg, imm, or mem — not both mem).
  kAdd,
  kSub,
  kImul,    // dst reg <- dst * src (two-operand form)
  kAnd,
  kOr,
  kXor,
  kNeg,
  kNot,
  kShl,     // count: imm or rcx (cl)
  kShr,
  kSar,
  kRol,
  kRor,
  kCmp,
  kTest,
  kCdq,     // sign-extend rax into rdx (width 4) / cqo (width 8)
  kIdiv,    // signed divide rdx:rax by src; quotient rax, remainder rdx
  kDiv,     // unsigned divide
  kSetcc,   // dst reg (byte) <- cond
  kLzcnt,
  kTzcnt,
  kPopcnt,
  kMovsxd,  // dst64 <- sign-extended src32

  // Control flow.
  kJmp,     // target: label index
  kJcc,     // cond + label index
  kCall,    // direct call, target function index
  kCallReg, // indirect call, target function id in gpr
  kCallHost,// call host hook `imm`
  kRet,

  // SSE scalar double.
  kMovsd,     // xmm<->xmm / xmm<->mem
  kAddsd,
  kSubsd,
  kMulsd,
  kDivsd,
  kSqrtsd,
  kMinsd,     // Wasm min/max semantics (engines emit branchy sequences;
  kMaxsd,     // modeled as one slower instruction)
  kAndpd,     // used for abs (mask constant via imm)
  kXorpd,     // used for neg
  kOrpd,      // used for copysign
  kUcomisd,   // sets ZF/CF/PF like the real instruction
  kCvtsi2sd,  // int (width 4/8, signedness via sign_extend) -> f64
  kCvttsd2si, // f64 -> int truncating; traps on overflow/NaN like Wasm
  kRoundsd,   // imm: 0 nearest, 1 floor, 2 ceil, 3 trunc

  // SSE scalar float.
  kMovss,
  kAddss,
  kSubss,
  kMulss,
  kDivss,
  kSqrtss,
  kMinss,
  kMaxss,
  kUcomiss,
  kCvtss2sd,
  kCvtsd2ss,
  kCvtsi2ss,
  kCvttss2si,
  kRoundss,

  // GPR <-> XMM bit moves.
  kMovqToXmm,   // xmm <- gpr bits
  kMovqFromXmm, // gpr <- xmm bits

  kNop,
};

const char* MOpName(MOp op);

struct MInstr {
  MOp op = MOp::kNop;
  Operand dst;
  Operand src;
  Operand src2;           // shift counts / roundsd immediates
  uint8_t width = 8;      // operation width in bytes (1/2/4/8)
  bool sign_extend = false;
  Cond cond = Cond::kE;   // kJcc / kSetcc
  uint32_t label = 0;     // branch target: instruction index within function
  uint32_t func = 0;      // kCall target / kCallHost hook index
  std::string comment;    // printed by the lister; no semantic effect

  // --- Constructors for common shapes ---
  static MInstr RR(MOp op, Gpr dst, Gpr src, uint8_t width = 8);
  static MInstr RI(MOp op, Gpr dst, int64_t imm, uint8_t width = 8);
  static MInstr RM(MOp op, Gpr dst, MemRef mem, uint8_t width = 8);
  static MInstr MR(MOp op, MemRef mem, Gpr src, uint8_t width = 8);
  static MInstr Jump(uint32_t label);
  static MInstr JumpCc(Cond cond, uint32_t label);
};

// Estimated encoded size in bytes of `instr` (drives instruction addresses
// for the L1i model). Deterministic and roughly faithful to x86-64 sizes.
uint32_t EncodedSize(const MInstr& instr);

// One compiled function.
struct MFunction {
  std::string name;
  std::vector<MInstr> code;
  uint32_t frame_slots = 0;     // spill slots (8 bytes each) below rbp
  uint64_t code_base = 0;       // byte address of the function (assigned at link)
  std::vector<uint32_t> instr_offsets;  // byte offset of each instruction
};

// A linked program: functions plus the indirect-call table image.
struct MProgram {
  std::vector<MFunction> funcs;
  // Indirect-call table: pairs (sig_id, func_index); written into machine
  // memory at kTableBase so the checking sequence performs real loads.
  struct TableEntry {
    uint32_t sig_id = UINT32_MAX;
    uint32_t func_index = UINT32_MAX;
  };
  std::vector<TableEntry> table;
  uint64_t total_code_bytes = 0;
  // Code-layout order: function indices in the order their code is placed in
  // memory (PGO packs hot functions first to cut L1i misses). Must be a
  // permutation of [0, funcs.size()); empty = identity. Function *indices*
  // (call targets) are unaffected — only code_base assignment changes.
  std::vector<uint32_t> layout_order;
  uint32_t memory_pages = 0;          // initial wasm memory size
  uint32_t max_memory_pages = 65536;
  std::vector<std::pair<uint32_t, std::vector<uint8_t>>> data_segments;
  uint32_t num_globals = 0;
  std::vector<std::pair<uint32_t, uint64_t>> global_inits;  // slot -> bits
  // Stack-limit global slot used by JIT-profile stack checks.
  static constexpr uint32_t kStackLimitSlot = 0;

  // Assigns code_base / instr_offsets / total_code_bytes.
  void Link();
};

// Renders one instruction in Intel-ish syntax.
std::string MInstrToString(const MInstr& instr);
// Renders a whole function listing.
std::string MFunctionToString(const MFunction& func);

}  // namespace nsf

#endif  // SRC_X64_INSTS_H_
