#include "src/machine/machine.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/machine/bits.h"
#include "src/machine/decode.h"
#include "src/profile/sampled.h"
#include "src/support/str.h"
#include "src/telemetry/trace.h"

namespace nsf {

PerfCounters PerfCounters::operator-(const PerfCounters& other) const {
  PerfCounters r = *this;
  r.instructions_retired -= other.instructions_retired;
  r.micro_cycles -= other.micro_cycles;
  r.loads_retired -= other.loads_retired;
  r.stores_retired -= other.stores_retired;
  r.branches_retired -= other.branches_retired;
  r.cond_branches_retired -= other.cond_branches_retired;
  r.taken_branches -= other.taken_branches;
  r.calls -= other.calls;
  r.l1i_misses -= other.l1i_misses;
  r.l1d_misses -= other.l1d_misses;
  r.l2_misses -= other.l2_misses;
  return r;
}

PerfCounters& PerfCounters::operator+=(const PerfCounters& other) {
  instructions_retired += other.instructions_retired;
  micro_cycles += other.micro_cycles;
  loads_retired += other.loads_retired;
  stores_retired += other.stores_retired;
  branches_retired += other.branches_retired;
  cond_branches_retired += other.cond_branches_retired;
  taken_branches += other.taken_branches;
  calls += other.calls;
  l1i_misses += other.l1i_misses;
  l1d_misses += other.l1d_misses;
  l2_misses += other.l2_misses;
  return *this;
}

SimMachine::SimMachine(const MProgram* program, CostModel cost)
    : SimMachine(program, nullptr, nullptr, cost) {}

SimMachine::SimMachine(const MProgram* program, const DecodedProgram* decoded,
                       SimBufferPool* pool, CostModel cost)
    : program_(program), decoded_(decoded), pool_(pool), cost_(cost) {
  InitMemory(pool);
}

void SimMachine::InitMemory(SimBufferPool* pool) {
  if (pool != nullptr) {
    pool->acquires_++;
    if (pool->has_buffers_) {
      // Recycled buffers are scrubbed back to all-zero on release, so after
      // the resizes below they are indistinguishable from fresh allocations —
      // minus the page faults.
      pool->reuses_++;
      stack_ = std::move(pool->stack_);
      heap_ = std::move(pool->heap_);
      table_image_ = std::move(pool->table_);
      globals_ = std::move(pool->globals_);
      pool->has_buffers_ = false;
    }
  }
  stack_.resize(kStackSize);
  heap_.resize(size_t{program_->memory_pages} * 65536);
  max_heap_pages_ = program_->max_memory_pages;
  globals_.assign(program_->num_globals + 8, 0);  // slot 0 reserved: stack limit
  globals_[MProgram::kStackLimitSlot] = kStackBase + 4096;  // red zone
  for (const auto& [slot, bits] : program_->global_inits) {
    globals_[slot] = bits;
  }
  table_image_.resize(program_->table.size() * 8);
  for (size_t i = 0; i < program_->table.size(); i++) {
    uint32_t sig = program_->table[i].sig_id;
    uint32_t fn = program_->table[i].func_index;
    std::memcpy(&table_image_[i * 8], &sig, 4);
    std::memcpy(&table_image_[i * 8 + 4], &fn, 4);
  }
  for (const auto& [offset, bytes] : program_->data_segments) {
    if (size_t{offset} + bytes.size() <= heap_.size()) {
      std::memcpy(heap_.data() + offset, bytes.data(), bytes.size());
      if (offset < heap_dirty_lo_) {
        heap_dirty_lo_ = offset;
      }
      if (offset + bytes.size() > heap_dirty_hi_) {
        heap_dirty_hi_ = offset + bytes.size();
      }
    }
  }
}

SimMachine::~SimMachine() {
#ifdef NSF_DISPATCH_STATS
  static_assert(sizeof(dispatch_retires_) / sizeof(dispatch_retires_[0]) == kMaxDispatchHandlers,
                "machine.h's array size must mirror decode.h's kMaxDispatchHandlers");
  AccumulateDispatchStats(dispatch_retires_);
  AccumulateDispatchPairs(dispatch_pairs_);
#endif
  if (sample_sink_ != nullptr && !sample_entries_.empty()) {
    sample_sink_->Fold(sample_entries_.data(), sample_backedges_.data(),
                       static_cast<uint32_t>(sample_entries_.size()));
  }
  ReleaseBuffers();
}

void SimMachine::set_sampler(SampledProfile* sink, uint32_t period) {
  sample_sink_ = sink;
  sample_period_ = sink == nullptr ? 0 : period;
  sample_tick_ = sample_period_;
  if (sample_period_ != 0) {
    sample_entries_.assign(program_->funcs.size(), 0);
    sample_backedges_.assign(program_->funcs.size(), 0);
  }
}

void SimMachine::RecordSample(uint32_t func, bool backedge) {
  sample_tick_ = sample_period_;
  if (func < sample_entries_.size()) {
    (backedge ? sample_backedges_ : sample_entries_)[func]++;
  }
}

void SimMachine::ReleaseBuffers() {
  if (pool_ == nullptr) {
    return;
  }
  telemetry::Span span("pool.scrub", "machine");
  // Restore the all-zero invariant over exactly the ranges this run dirtied.
  if (stack_dirty_lo_ < stack_.size()) {
    std::memset(stack_.data() + stack_dirty_lo_, 0, stack_.size() - stack_dirty_lo_);
  }
  uint64_t heap_hi = heap_exposed_ ? heap_.size()
                                   : (heap_dirty_hi_ < heap_.size() ? heap_dirty_hi_
                                                                    : heap_.size());
  uint64_t heap_lo = heap_exposed_ ? 0 : heap_dirty_lo_;
  if (heap_lo < heap_hi) {
    std::memset(heap_.data() + heap_lo, 0, heap_hi - heap_lo);
  }
  if (span.active()) {
    span.arg("stack_bytes", stack_dirty_lo_ < stack_.size() ? stack_.size() - stack_dirty_lo_ : 0);
    span.arg("heap_bytes", heap_lo < heap_hi ? heap_hi - heap_lo : 0);
  }
  std::fill(globals_.begin(), globals_.end(), 0);
  // The table image is fully overwritten at construction, so it needs no
  // scrub; vector::resize zero-fills any growth on the next acquire.
  pool_->stack_ = std::move(stack_);
  pool_->heap_ = std::move(heap_);
  pool_->table_ = std::move(table_image_);
  pool_->globals_ = std::move(globals_);
  pool_->has_buffers_ = true;
}

void SimMachine::RegisterHost(uint32_t idx, HostHook hook) {
  if (hooks_.size() <= idx) {
    hooks_.resize(idx + 1);
  }
  hooks_[idx] = std::move(hook);
}

double SimMachine::xmm_f64(Xmm r) const { return BitsToF64(xmms_[static_cast<uint8_t>(r)]); }
void SimMachine::set_xmm_f64(Xmm r, double v) { xmms_[static_cast<uint8_t>(r)] = F64ToBits(v); }

bool SimMachine::HeapRead(uint32_t addr, void* out, uint32_t size) const {
  if (uint64_t{addr} + size > heap_.size()) {
    return false;
  }
  std::memcpy(out, heap_.data() + addr, size);
  return true;
}

bool SimMachine::HeapWrite(uint32_t addr, const void* data, uint32_t size) {
  if (uint64_t{addr} + size > heap_.size()) {
    return false;
  }
  std::memcpy(heap_.data() + addr, data, size);
  NoteStore(kHeapBase + addr, size);
  return true;
}

void SimMachine::ResetCounters() {
  counters_ = PerfCounters{};
  host_micro_cycles_ = 0;
  l1i_.Reset();
  l1d_.Reset();
  l2_.Reset();
}

void SimMachine::ChargeHostCycles(uint64_t cycles) {
  counters_.micro_cycles += cycles * 4;
  host_micro_cycles_ += cycles * 4;
}

uint64_t SimMachine::EffectiveAddr(const MemRef& m) const {
  uint64_t addr = static_cast<uint64_t>(static_cast<int64_t>(m.disp));
  if (m.base.has_value()) {
    addr += gpr(*m.base);
  }
  if (m.index.has_value()) {
    addr += gpr(*m.index) * m.scale;
  }
  return addr;
}

bool SimMachine::EvalCond(Cond c) const {
  if (cmp_kind_ == CmpKind::kFloat) {
    // ucomisd semantics: unordered sets ZF, PF, CF.
    bool zf = fp_equal_ || fp_unordered_;
    bool cf = fp_less_ || fp_unordered_;
    bool pf = fp_unordered_;
    switch (c) {
      case Cond::kE: return zf;
      case Cond::kNe: return !zf;
      case Cond::kB: return cf;
      case Cond::kBe: return cf || zf;
      case Cond::kA: return !cf && !zf;
      case Cond::kAe: return !cf;
      case Cond::kP: return pf;
      case Cond::kNp: return !pf;
      default: return false;  // signed conds unused after FP compare
    }
  }
  if (cmp_kind_ == CmpKind::kTest) {
    bool zf = cmp_test_ == 0;
    bool sf = cmp_test_sign_;
    switch (c) {
      case Cond::kE: return zf;
      case Cond::kNe: return !zf;
      case Cond::kS: return sf;
      case Cond::kNs: return !sf;
      case Cond::kL: return sf;        // OF=0 after test
      case Cond::kGe: return !sf;
      case Cond::kLe: return zf || sf;
      case Cond::kG: return !zf && !sf;
      default: return false;
    }
  }
  switch (c) {
    case Cond::kE: return cmp_ua_ == cmp_ub_;
    case Cond::kNe: return cmp_ua_ != cmp_ub_;
    case Cond::kL: return cmp_sa_ < cmp_sb_;
    case Cond::kLe: return cmp_sa_ <= cmp_sb_;
    case Cond::kG: return cmp_sa_ > cmp_sb_;
    case Cond::kGe: return cmp_sa_ >= cmp_sb_;
    case Cond::kB: return cmp_ua_ < cmp_ub_;
    case Cond::kBe: return cmp_ua_ <= cmp_ub_;
    case Cond::kA: return cmp_ua_ > cmp_ub_;
    case Cond::kAe: return cmp_ua_ >= cmp_ub_;
    case Cond::kS: return cmp_sa_ - cmp_sb_ < 0;
    case Cond::kNs: return cmp_sa_ - cmp_sb_ >= 0;
    default: return false;
  }
}

void SimMachine::WriteStack(uint64_t addr, uint64_t bits) {
  uint8_t* p = MemPtr(addr, 8);
  if (p != nullptr) {
    std::memcpy(p, &bits, 8);
    NoteStore(addr, 8);
  }
}

void SimMachine::FetchL1i(uint64_t addr, uint32_t size) {
  uint32_t imiss = l1i_.AccessRange(addr, size);
  if (imiss > 0) {
    counters_.l1i_misses += imiss;
    counters_.micro_cycles += cost_.l1_miss * imiss;
    // Known modelling quirk, kept because every committed figure includes
    // it: the k-th *missed* line probes L2 at addr + k*64, not at its own
    // address. A two-line fetch that hits its first line and misses its
    // second probes L2 with the first line's address.
    for (uint32_t k = 0; k < imiss; k++) {
      if (!l2_.Access(addr + uint64_t{k} * 64)) {
        counters_.l2_misses++;
        counters_.micro_cycles += cost_.l2_miss;
      }
    }
  }
}

void SimMachine::EnsureDecoded() {
  if (decoded_ == nullptr) {
    owned_decoded_ = std::make_unique<DecodedProgram>(Predecode(*program_));
    decoded_ = owned_decoded_.get();
  }
}

MachineResult SimMachine::RunAt(uint32_t func_index, uint64_t args_base) {
  MachineResult result;
  if (func_index >= program_->funcs.size()) {
    result.error = "function index out of range";
    result.trap = TrapKind::kHostError;
    return result;
  }
  set_gpr(Gpr::kRsp, args_base - 8);
  set_gpr(Gpr::kRbx, kHeapBase);
  set_gpr(Gpr::kR15, kHeapBase);
  frames_.clear();
  cur_func_ = func_index;
  pc_ = 0;
  pending_trap_ = TrapKind::kNone;
  trap_msg_.clear();
  TrapKind trap;
  if (dispatch_ == SimDispatch::kLegacy) {
    trap = ExecLegacy();
  } else {
    EnsureDecoded();
    trap = ExecDecoded();
  }
  if (trap != TrapKind::kNone) {
    result.ok = false;
    result.trap = trap;
    result.error = trap_msg_.empty() ? TrapKindName(trap) : trap_msg_;
    return result;
  }
  result.ok = true;
  result.ret_i = gpr(Gpr::kRax);
  result.ret_f = xmm_f64(Xmm::kXmm0);
  return result;
}

MachineResult SimMachine::Run(uint32_t func_index, const std::vector<uint64_t>& int_args) {
  MachineResult result;
  if (func_index >= program_->funcs.size()) {
    result.error = "function index out of range";
    result.trap = TrapKind::kHostError;
    return result;
  }
  static const Gpr kArgRegs[6] = {Gpr::kRdi, Gpr::kRsi, Gpr::kRdx,
                                  Gpr::kRcx, Gpr::kR8,  Gpr::kR9};
  for (size_t i = 0; i < int_args.size() && i < 6; i++) {
    set_gpr(kArgRegs[i], int_args[i]);
  }
  set_gpr(Gpr::kRsp, kStackBase + kStackSize);
  set_gpr(Gpr::kRbx, kHeapBase);   // heap base for JIT-profile code
  set_gpr(Gpr::kR15, kHeapBase);   // heap base for Firefox-profile code
  frames_.clear();
  cur_func_ = func_index;
  pc_ = 0;
  pending_trap_ = TrapKind::kNone;
  trap_msg_.clear();

  TrapKind trap;
  if (dispatch_ == SimDispatch::kLegacy) {
    trap = ExecLegacy();
  } else {
    EnsureDecoded();
    trap = ExecDecoded();
  }
  if (trap != TrapKind::kNone) {
    result.ok = false;
    result.trap = trap;
    result.error = trap_msg_.empty() ? TrapKindName(trap) : trap_msg_;
    return result;
  }
  result.ok = true;
  result.ret_i = gpr(Gpr::kRax);
  result.ret_f = xmm_f64(Xmm::kXmm0);
  return result;
}

// --- Operand accessors (legacy/generic bodies) ---

// Reads an integer operand value (width-truncated, optionally sign-extended
// by the caller). Returns false on memory trap.
bool SimMachine::ReadInt(const Operand& o, uint8_t width, uint64_t* out) {
  switch (o.kind) {
    case OperandKind::kGpr:
      *out = TruncToWidth(gpr(o.gpr), width);
      return true;
    case OperandKind::kImm:
      *out = TruncToWidth(static_cast<uint64_t>(o.imm), width);
      return true;
    case OperandKind::kMem: {
      uint8_t* p;
      if (!DataAccess(EffectiveAddr(o.mem), width, false, &p)) {
        return false;
      }
      uint64_t v = 0;
      std::memcpy(&v, p, width);
      *out = v;
      return true;
    }
    default:
      pending_trap_ = TrapKind::kHostError;
      trap_msg_ = "bad int operand";
      return false;
  }
}

// Writes an integer result. Width-4 register writes zero the upper half
// (x86 semantics); widths 1/2 to registers write the full value zero-based
// (we only use them via explicit Load/Setcc).
bool SimMachine::WriteInt(const Operand& o, uint8_t width, uint64_t v) {
  switch (o.kind) {
    case OperandKind::kGpr:
      set_gpr(o.gpr, width == 8 ? v : TruncToWidth(v, width));
      return true;
    case OperandKind::kMem: {
      uint8_t* p;
      if (!DataAccess(EffectiveAddr(o.mem), width, true, &p)) {
        return false;
      }
      uint64_t t = TruncToWidth(v, width);
      std::memcpy(p, &t, width);
      return true;
    }
    default:
      pending_trap_ = TrapKind::kHostError;
      trap_msg_ = "bad int dest";
      return false;
  }
}

bool SimMachine::ReadFpBits(const Operand& o, uint8_t width, uint64_t* out) {
  switch (o.kind) {
    case OperandKind::kXmm:
      *out = xmms_[static_cast<uint8_t>(o.xmm)];
      return true;
    case OperandKind::kImm:
      *out = static_cast<uint64_t>(o.imm);
      return true;
    case OperandKind::kGpr:
      *out = gpr(o.gpr);
      return true;
    case OperandKind::kMem: {
      uint8_t* p;
      if (!DataAccess(EffectiveAddr(o.mem), width, false, &p)) {
        return false;
      }
      uint64_t v = 0;
      std::memcpy(&v, p, width);
      *out = v;
      return true;
    }
    default:
      pending_trap_ = TrapKind::kHostError;
      trap_msg_ = "bad fp operand";
      return false;
  }
}

bool SimMachine::WriteFpBits(const Operand& o, uint8_t width, uint64_t v) {
  switch (o.kind) {
    case OperandKind::kXmm:
      xmms_[static_cast<uint8_t>(o.xmm)] = width == 4 ? (v & 0xffffffffull) : v;
      return true;
    case OperandKind::kMem: {
      uint8_t* p;
      if (!DataAccess(EffectiveAddr(o.mem), width, true, &p)) {
        return false;
      }
      std::memcpy(p, &v, width);
      return true;
    }
    default:
      pending_trap_ = TrapKind::kHostError;
      trap_msg_ = "bad fp dest";
      return false;
  }
}

bool SimMachine::DivOp(bool is_signed, uint8_t width, uint64_t divisor) {
  if (divisor == 0) {
    pending_trap_ = TrapKind::kDivByZero;
    trap_msg_ = "division by zero";
    return false;
  }
  if (width == 4) {
    uint64_t dividend =
        (TruncToWidth(gpr(Gpr::kRdx), 4) << 32) | TruncToWidth(gpr(Gpr::kRax), 4);
    if (is_signed) {
      int64_t sdividend = static_cast<int64_t>(dividend);
      int64_t sdiv = SignExtend(divisor, 4);
      int64_t q = sdividend / sdiv;
      if (q > INT32_MAX || q < INT32_MIN) {
        pending_trap_ = TrapKind::kIntegerOverflow;
        trap_msg_ = "idiv overflow";
        return false;
      }
      set_gpr(Gpr::kRax, TruncToWidth(static_cast<uint64_t>(q), 4));
      set_gpr(Gpr::kRdx, TruncToWidth(static_cast<uint64_t>(sdividend % sdiv), 4));
    } else {
      uint64_t q = dividend / divisor;
      if (q > UINT32_MAX) {
        pending_trap_ = TrapKind::kIntegerOverflow;
        trap_msg_ = "div overflow";
        return false;
      }
      set_gpr(Gpr::kRax, q);
      set_gpr(Gpr::kRdx, dividend % divisor);
    }
  } else {
    // 64-bit: model the common cqo+idiv pair (dividend = rax).
    if (is_signed) {
      int64_t sdividend = static_cast<int64_t>(gpr(Gpr::kRax));
      int64_t sdiv = static_cast<int64_t>(divisor);
      if (sdividend == INT64_MIN && sdiv == -1) {
        pending_trap_ = TrapKind::kIntegerOverflow;
        trap_msg_ = "idiv overflow";
        return false;
      }
      set_gpr(Gpr::kRax, static_cast<uint64_t>(sdividend / sdiv));
      set_gpr(Gpr::kRdx, static_cast<uint64_t>(sdividend % sdiv));
    } else {
      uint64_t dividend = gpr(Gpr::kRax);
      set_gpr(Gpr::kRax, dividend / divisor);
      set_gpr(Gpr::kRdx, dividend % divisor);
    }
  }
  return true;
}

bool SimMachine::TruncFloatToInt(double v, uint8_t width, bool sign_extend, uint64_t* out) {
  if (std::isnan(v)) {
    pending_trap_ = TrapKind::kInvalidConversion;
    trap_msg_ = "NaN to integer";
    return false;
  }
  double t = std::trunc(v);
  bool ok;
  uint64_t r = 0;
  if (width == 4) {
    if (sign_extend) {
      ok = t >= -2147483648.0 && t <= 2147483647.0;
      if (ok) {
        r = TruncToWidth(static_cast<uint64_t>(static_cast<int64_t>(t)), 4);
      }
    } else {
      ok = t >= 0.0 && t <= 4294967295.0;
      if (ok) {
        r = static_cast<uint64_t>(t);
      }
    }
  } else {
    if (sign_extend) {
      ok = t >= -9223372036854775808.0 && t < 9223372036854775808.0;
      if (ok) {
        r = static_cast<uint64_t>(static_cast<int64_t>(t));
      }
    } else {
      ok = t >= 0.0 && t < 18446744073709551616.0;
      if (ok) {
        r = static_cast<uint64_t>(t);
      }
    }
  }
  if (!ok) {
    pending_trap_ = TrapKind::kIntegerOverflow;
    trap_msg_ = "float to int overflow";
    return false;
  }
  *out = r;
  return true;
}

// One non-control-flow instruction's legacy body: cycle-cost charge plus
// semantics, exactly as the pre-predecode interpreter executed it. Fetch,
// retirement, and the fuel check belong to the caller. Returns false on trap.
bool SimMachine::ExecGenericOp(const MInstr& instr) {
  switch (instr.op) {
    case MOp::kNop:
      counters_.micro_cycles += cost_.simple;
      return true;

    case MOp::kMov:
    case MOp::kMovImm64: {
      counters_.micro_cycles += cost_.simple;
      uint64_t v;
      if (!ReadInt(instr.src, instr.width, &v)) {
        return false;
      }
      return WriteInt(instr.dst, instr.width, v);
    }

    case MOp::kLoad: {
      counters_.micro_cycles += cost_.simple;  // load cost added in DataAccess
      uint8_t* p;
      if (!DataAccess(EffectiveAddr(instr.src.mem), instr.width, false, &p)) {
        return false;
      }
      uint64_t v = 0;
      std::memcpy(&v, p, instr.width);
      if (instr.sign_extend) {
        v = static_cast<uint64_t>(SignExtend(v, instr.width));
      }
      set_gpr(instr.dst.gpr, instr.sign_extend ? v : TruncToWidth(v, instr.width));
      return true;
    }

    case MOp::kStore: {
      counters_.micro_cycles += cost_.simple;
      uint64_t v;
      if (!ReadInt(instr.src, instr.width, &v)) {
        return false;
      }
      uint8_t* p;
      if (!DataAccess(EffectiveAddr(instr.dst.mem), instr.width, true, &p)) {
        return false;
      }
      std::memcpy(p, &v, instr.width);
      return true;
    }

    case MOp::kLea: {
      counters_.micro_cycles += cost_.simple;
      set_gpr(instr.dst.gpr,
              instr.width == 8 ? EffectiveAddr(instr.src.mem)
                               : TruncToWidth(EffectiveAddr(instr.src.mem), 4));
      return true;
    }

    case MOp::kPush: {
      counters_.micro_cycles += cost_.simple;
      set_gpr(Gpr::kRsp, gpr(Gpr::kRsp) - 8);
      uint8_t* p;
      if (!DataAccess(gpr(Gpr::kRsp), 8, true, &p)) {
        return false;
      }
      uint64_t v = gpr(instr.dst.gpr);
      std::memcpy(p, &v, 8);
      return true;
    }

    case MOp::kPop: {
      counters_.micro_cycles += cost_.simple;
      uint8_t* p;
      if (!DataAccess(gpr(Gpr::kRsp), 8, false, &p)) {
        return false;
      }
      uint64_t v;
      std::memcpy(&v, p, 8);
      set_gpr(instr.dst.gpr, v);
      set_gpr(Gpr::kRsp, gpr(Gpr::kRsp) + 8);
      return true;
    }

    case MOp::kXchg: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a = gpr(instr.dst.gpr);
      set_gpr(instr.dst.gpr, gpr(instr.src.gpr));
      set_gpr(instr.src.gpr, a);
      return true;
    }

    case MOp::kAdd:
    case MOp::kSub:
    case MOp::kAnd:
    case MOp::kOr:
    case MOp::kXor: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      uint64_t b;
      if (!ReadInt(instr.dst, instr.width, &a) || !ReadInt(instr.src, instr.width, &b)) {
        return false;
      }
      uint64_t r = 0;
      switch (instr.op) {
        case MOp::kAdd: r = a + b; break;
        case MOp::kSub: r = a - b; break;
        case MOp::kAnd: r = a & b; break;
        case MOp::kOr: r = a | b; break;
        default: r = a ^ b; break;
      }
      return WriteInt(instr.dst, instr.width, r);
    }

    case MOp::kImul: {
      counters_.micro_cycles += cost_.imul;
      uint64_t a;
      uint64_t b;
      if (!ReadInt(instr.dst, instr.width, &a) || !ReadInt(instr.src, instr.width, &b)) {
        return false;
      }
      return WriteInt(instr.dst, instr.width, a * b);
    }

    case MOp::kNeg: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      if (!ReadInt(instr.dst, instr.width, &a)) {
        return false;
      }
      return WriteInt(instr.dst, instr.width, 0 - a);
    }

    case MOp::kNot: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      if (!ReadInt(instr.dst, instr.width, &a)) {
        return false;
      }
      return WriteInt(instr.dst, instr.width, ~a);
    }

    case MOp::kShl:
    case MOp::kShr:
    case MOp::kSar:
    case MOp::kRol:
    case MOp::kRor: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      if (!ReadInt(instr.dst, instr.width, &a)) {
        return false;
      }
      uint64_t count;
      if (instr.src2.is_imm()) {
        count = static_cast<uint64_t>(instr.src2.imm);
      } else {
        count = gpr(Gpr::kRcx);  // cl convention
      }
      uint32_t bits = instr.width * 8;
      count &= bits - 1;
      uint64_t r = 0;
      switch (instr.op) {
        case MOp::kShl:
          r = a << count;
          break;
        case MOp::kShr:
          r = a >> count;
          break;
        case MOp::kSar:
          r = static_cast<uint64_t>(SignExtend(a, instr.width) >> count);
          break;
        case MOp::kRol:
          r = count == 0 ? a : (a << count) | (a >> (bits - count));
          break;
        default:
          r = count == 0 ? a : (a >> count) | (a << (bits - count));
          break;
      }
      return WriteInt(instr.dst, instr.width, r);
    }

    case MOp::kCmp: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      uint64_t b;
      if (!ReadInt(instr.dst, instr.width, &a) || !ReadInt(instr.src, instr.width, &b)) {
        return false;
      }
      cmp_kind_ = CmpKind::kInt;
      cmp_ua_ = a;
      cmp_ub_ = b;
      cmp_sa_ = SignExtend(a, instr.width);
      cmp_sb_ = SignExtend(b, instr.width);
      return true;
    }

    case MOp::kTest: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      uint64_t b;
      if (!ReadInt(instr.dst, instr.width, &a) || !ReadInt(instr.src, instr.width, &b)) {
        return false;
      }
      cmp_kind_ = CmpKind::kTest;
      cmp_test_ = a & b;
      cmp_test_sign_ = SignExtend(cmp_test_, instr.width) < 0;
      return true;
    }

    case MOp::kCdq: {
      counters_.micro_cycles += cost_.simple;
      if (instr.width == 8) {
        set_gpr(Gpr::kRdx,
                static_cast<int64_t>(gpr(Gpr::kRax)) < 0 ? ~uint64_t{0} : 0);
      } else {
        uint32_t eax = static_cast<uint32_t>(gpr(Gpr::kRax));
        set_gpr(Gpr::kRdx, static_cast<int32_t>(eax) < 0 ? 0xffffffffull : 0);
      }
      return true;
    }

    case MOp::kIdiv:
    case MOp::kDiv: {
      counters_.micro_cycles += cost_.idiv;
      uint64_t divisor;
      if (!ReadInt(instr.src, instr.width, &divisor)) {
        return false;
      }
      return DivOp(instr.op == MOp::kIdiv, instr.width, divisor);
    }

    case MOp::kSetcc: {
      counters_.micro_cycles += cost_.simple;
      set_gpr(instr.dst.gpr, EvalCond(instr.cond) ? 1 : 0);
      return true;
    }

    case MOp::kLzcnt: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      if (!ReadInt(instr.src, instr.width, &a)) {
        return false;
      }
      uint64_t r = instr.width == 8 ? static_cast<uint64_t>(std::countl_zero(a))
                                    : std::countl_zero(static_cast<uint32_t>(a));
      set_gpr(instr.dst.gpr, r);
      return true;
    }

    case MOp::kTzcnt: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      if (!ReadInt(instr.src, instr.width, &a)) {
        return false;
      }
      uint64_t r = instr.width == 8 ? static_cast<uint64_t>(std::countr_zero(a))
                                    : std::countr_zero(static_cast<uint32_t>(a));
      set_gpr(instr.dst.gpr, r);
      return true;
    }

    case MOp::kPopcnt: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      if (!ReadInt(instr.src, instr.width, &a)) {
        return false;
      }
      set_gpr(instr.dst.gpr, static_cast<uint64_t>(std::popcount(a)));
      return true;
    }

    case MOp::kMovsxd: {
      counters_.micro_cycles += cost_.simple;
      uint64_t a;
      if (!ReadInt(instr.src, 4, &a)) {
        return false;
      }
      set_gpr(instr.dst.gpr,
              static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(a))));
      return true;
    }

    // ---------------- SSE double ----------------
    case MOp::kMovsd:
    case MOp::kMovss: {
      uint8_t w = instr.op == MOp::kMovss ? 4 : 8;
      counters_.micro_cycles += cost_.fp_mov;
      uint64_t v;
      if (!ReadFpBits(instr.src, w, &v)) {
        return false;
      }
      return WriteFpBits(instr.dst, w, v);
    }

    case MOp::kAddsd:
    case MOp::kSubsd:
    case MOp::kMulsd:
    case MOp::kDivsd:
    case MOp::kMinsd:
    case MOp::kMaxsd: {
      counters_.micro_cycles += instr.op == MOp::kDivsd ? cost_.fp_div : cost_.fp_simple;
      uint64_t ab;
      uint64_t bb;
      if (!ReadFpBits(instr.dst, 8, &ab) || !ReadFpBits(instr.src, 8, &bb)) {
        return false;
      }
      double a = BitsToF64(ab);
      double b = BitsToF64(bb);
      double r = 0;
      switch (instr.op) {
        case MOp::kAddsd: r = a + b; break;
        case MOp::kSubsd: r = a - b; break;
        case MOp::kMulsd: r = a * b; break;
        case MOp::kDivsd: r = a / b; break;
        case MOp::kMinsd: r = CanonMin(a, b); break;
        default: r = CanonMax(a, b); break;
      }
      // The pre-predecode interpreter ignored this write's trap status
      // (arith destinations are registers in practice); preserved verbatim.
      WriteFpBits(instr.dst, 8, F64ToBits(r));
      return true;
    }

    case MOp::kSqrtsd: {
      counters_.micro_cycles += cost_.fp_sqrt;
      uint64_t bb;
      if (!ReadFpBits(instr.src, 8, &bb)) {
        return false;
      }
      WriteFpBits(instr.dst, 8, F64ToBits(std::sqrt(BitsToF64(bb))));
      return true;
    }

    case MOp::kAndpd:
    case MOp::kXorpd:
    case MOp::kOrpd: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t ab;
      uint64_t bb;
      if (!ReadFpBits(instr.dst, 8, &ab) || !ReadFpBits(instr.src, 8, &bb)) {
        return false;
      }
      uint64_t r = instr.op == MOp::kAndpd ? (ab & bb)
                   : instr.op == MOp::kOrpd ? (ab | bb)
                                            : (ab ^ bb);
      WriteFpBits(instr.dst, 8, r);
      return true;
    }

    case MOp::kUcomisd:
    case MOp::kUcomiss: {
      counters_.micro_cycles += cost_.fp_simple / 2;
      uint8_t w = instr.op == MOp::kUcomiss ? 4 : 8;
      uint64_t ab;
      uint64_t bb;
      if (!ReadFpBits(instr.dst, w, &ab) || !ReadFpBits(instr.src, w, &bb)) {
        return false;
      }
      double a = w == 4 ? BitsToF32(ab) : BitsToF64(ab);
      double b = w == 4 ? BitsToF32(bb) : BitsToF64(bb);
      cmp_kind_ = CmpKind::kFloat;
      fp_unordered_ = std::isnan(a) || std::isnan(b);
      fp_equal_ = a == b;
      fp_less_ = a < b;
      return true;
    }

    case MOp::kCvtsi2sd: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t v;
      if (!ReadInt(instr.src, instr.width, &v)) {
        return false;
      }
      double r;
      if (instr.sign_extend) {
        r = static_cast<double>(SignExtend(v, instr.width));
      } else {
        r = static_cast<double>(v);
      }
      WriteFpBits(instr.dst, 8, F64ToBits(r));
      return true;
    }

    case MOp::kCvtsi2ss: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t v;
      if (!ReadInt(instr.src, instr.width, &v)) {
        return false;
      }
      float r = instr.sign_extend ? static_cast<float>(SignExtend(v, instr.width))
                                  : static_cast<float>(v);
      WriteFpBits(instr.dst, 4, F32ToBits(r));
      return true;
    }

    case MOp::kCvttsd2si:
    case MOp::kCvttss2si: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t bb;
      uint8_t srcw = instr.op == MOp::kCvttss2si ? 4 : 8;
      if (!ReadFpBits(instr.src, srcw, &bb)) {
        return false;
      }
      double v = srcw == 4 ? static_cast<double>(BitsToF32(bb)) : BitsToF64(bb);
      uint64_t r;
      if (!TruncFloatToInt(v, instr.width, instr.sign_extend, &r)) {
        return false;
      }
      set_gpr(instr.dst.gpr, r);
      return true;
    }

    case MOp::kRoundsd: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t bb;
      if (!ReadFpBits(instr.src, 8, &bb)) {
        return false;
      }
      WriteFpBits(instr.dst, 8,
                  F64ToBits(ApplyRounding(BitsToF64(bb), static_cast<int>(instr.src2.imm))));
      return true;
    }

    case MOp::kRoundss: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t bb;
      if (!ReadFpBits(instr.src, 4, &bb)) {
        return false;
      }
      float r = static_cast<float>(
          ApplyRounding(static_cast<double>(BitsToF32(bb)), static_cast<int>(instr.src2.imm)));
      WriteFpBits(instr.dst, 4, F32ToBits(r));
      return true;
    }

    case MOp::kAddss:
    case MOp::kSubss:
    case MOp::kMulss:
    case MOp::kDivss:
    case MOp::kMinss:
    case MOp::kMaxss: {
      counters_.micro_cycles += instr.op == MOp::kDivss ? cost_.fp_div : cost_.fp_simple;
      uint64_t ab;
      uint64_t bb;
      if (!ReadFpBits(instr.dst, 4, &ab) || !ReadFpBits(instr.src, 4, &bb)) {
        return false;
      }
      float a = BitsToF32(ab);
      float b = BitsToF32(bb);
      float r = 0;
      switch (instr.op) {
        case MOp::kAddss: r = a + b; break;
        case MOp::kSubss: r = a - b; break;
        case MOp::kMulss: r = a * b; break;
        case MOp::kDivss: r = a / b; break;
        case MOp::kMinss: r = static_cast<float>(CanonMin(a, b)); break;
        default: r = static_cast<float>(CanonMax(a, b)); break;
      }
      WriteFpBits(instr.dst, 4, F32ToBits(r));
      return true;
    }

    case MOp::kSqrtss: {
      counters_.micro_cycles += cost_.fp_sqrt;
      uint64_t bb;
      if (!ReadFpBits(instr.src, 4, &bb)) {
        return false;
      }
      WriteFpBits(instr.dst, 4, F32ToBits(std::sqrt(BitsToF32(bb))));
      return true;
    }

    case MOp::kCvtss2sd: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t bb;
      if (!ReadFpBits(instr.src, 4, &bb)) {
        return false;
      }
      WriteFpBits(instr.dst, 8, F64ToBits(static_cast<double>(BitsToF32(bb))));
      return true;
    }

    case MOp::kCvtsd2ss: {
      counters_.micro_cycles += cost_.fp_simple;
      uint64_t bb;
      if (!ReadFpBits(instr.src, 8, &bb)) {
        return false;
      }
      WriteFpBits(instr.dst, 4, F32ToBits(static_cast<float>(BitsToF64(bb))));
      return true;
    }

    case MOp::kMovqToXmm: {
      counters_.micro_cycles += cost_.fp_mov;
      xmms_[static_cast<uint8_t>(instr.dst.xmm)] = gpr(instr.src.gpr);
      return true;
    }

    case MOp::kMovqFromXmm: {
      counters_.micro_cycles += cost_.fp_mov;
      set_gpr(instr.dst.gpr, xmms_[static_cast<uint8_t>(instr.src.xmm)]);
      return true;
    }

    // Control flow never reaches the generic body: the legacy loop handles it
    // inline and predecode always emits dedicated handlers for it.
    case MOp::kJmp:
    case MOp::kJcc:
    case MOp::kCall:
    case MOp::kCallReg:
    case MOp::kCallHost:
    case MOp::kRet:
      break;
  }
  pending_trap_ = TrapKind::kHostError;
  trap_msg_ = "control-flow op in generic body";
  return false;
}

// The pre-predecode interpreter: fetch/decode/execute over raw MInstrs with
// a switch per instruction. Kept as the reference semantics (differential
// suite) and the perf baseline (bench/sim_throughput) — ExecDecoded must
// match its PerfCounters bit for bit.
TrapKind SimMachine::ExecLegacy() {
  uint64_t fuel = fuel_ != 0 ? fuel_ : kSimDefaultFuel;

  while (true) {
    const MFunction& func = program_->funcs[cur_func_];
    if (pc_ >= func.code.size()) {
      pending_trap_ = TrapKind::kHostError;
      trap_msg_ = StrFormat("pc out of range in %s", func.name.c_str());
      return pending_trap_;
    }
    const MInstr& instr = func.code[pc_];

    // Instruction fetch through the L1i model.
    uint64_t fetch_addr = func.code_base + func.instr_offsets[pc_];
    FetchL1i(fetch_addr, EncodedSize(instr));

    counters_.instructions_retired++;
    if (counters_.instructions_retired > fuel) {
      pending_trap_ = TrapKind::kFuelExhausted;
      trap_msg_ = "instruction budget exceeded";
      return pending_trap_;
    }

    uint32_t next_pc = pc_ + 1;

    switch (instr.op) {
      case MOp::kJmp: {
        counters_.micro_cycles += cost_.branch + cost_.branch_taken_extra;
        counters_.branches_retired++;
        counters_.taken_branches++;
        next_pc = instr.label;
        break;
      }

      case MOp::kJcc: {
        counters_.micro_cycles += cost_.branch;
        counters_.branches_retired++;
        counters_.cond_branches_retired++;
        if (EvalCond(instr.cond)) {
          counters_.taken_branches++;
          counters_.micro_cycles += cost_.branch_taken_extra;
          next_pc = instr.label;
        }
        break;
      }

      case MOp::kCall: {
        counters_.micro_cycles += cost_.call;
        counters_.branches_retired++;
        counters_.calls++;
        // Return-address push (architecturally a store).
        set_gpr(Gpr::kRsp, gpr(Gpr::kRsp) - 8);
        uint8_t* p;
        if (!DataAccess(gpr(Gpr::kRsp), 8, true, &p)) {
          return pending_trap_;
        }
        if (frames_.size() >= 4096) {
          pending_trap_ = TrapKind::kCallStackExhausted;
          return pending_trap_;
        }
        frames_.push_back(Frame{cur_func_, pc_ + 1});
        cur_func_ = instr.func;
        next_pc = 0;
        break;
      }

      case MOp::kCallReg: {
        counters_.micro_cycles += cost_.call;
        counters_.branches_retired++;
        counters_.calls++;
        uint64_t target = gpr(instr.dst.gpr);
        if (target >= program_->funcs.size()) {
          pending_trap_ = TrapKind::kIndirectCallOutOfBounds;
          trap_msg_ = "bad indirect target";
          return pending_trap_;
        }
        set_gpr(Gpr::kRsp, gpr(Gpr::kRsp) - 8);
        uint8_t* p;
        if (!DataAccess(gpr(Gpr::kRsp), 8, true, &p)) {
          return pending_trap_;
        }
        if (frames_.size() >= 4096) {
          pending_trap_ = TrapKind::kCallStackExhausted;
          return pending_trap_;
        }
        frames_.push_back(Frame{cur_func_, pc_ + 1});
        cur_func_ = static_cast<uint32_t>(target);
        next_pc = 0;
        break;
      }

      case MOp::kCallHost: {
        counters_.micro_cycles += cost_.host_call;
        counters_.branches_retired++;
        counters_.calls++;
        if (instr.func == kBuiltinTrapUnreachable || instr.func == kBuiltinTrapStack ||
            instr.func == kBuiltinTrapOob || instr.func == kBuiltinTrapNull ||
            instr.func == kBuiltinTrapSig) {
          switch (instr.func) {
            case kBuiltinTrapStack:
              pending_trap_ = TrapKind::kCallStackExhausted;
              break;
            case kBuiltinTrapOob:
              pending_trap_ = TrapKind::kIndirectCallOutOfBounds;
              break;
            case kBuiltinTrapNull:
              pending_trap_ = TrapKind::kIndirectCallNull;
              break;
            case kBuiltinTrapSig:
              pending_trap_ = TrapKind::kIndirectCallTypeMismatch;
              break;
            default:
              pending_trap_ = TrapKind::kUnreachable;
              break;
          }
          trap_msg_ = "trap stub";
          return pending_trap_;
        } else if (instr.func == kBuiltinMemorySize) {
          set_gpr(Gpr::kRax, heap_pages());
        } else if (instr.func == kBuiltinMemoryGrow) {
          uint64_t delta = TruncToWidth(gpr(Gpr::kRdi), 4);
          uint64_t old_pages = heap_pages();
          if (old_pages + delta > max_heap_pages_) {
            set_gpr(Gpr::kRax, TruncToWidth(~uint64_t{0}, 4));
          } else {
            heap_.resize((old_pages + delta) * 65536);
            set_gpr(Gpr::kRax, old_pages);
          }
        } else if (instr.func < hooks_.size() && hooks_[instr.func]) {
          hooks_[instr.func](*this);
          if (pending_trap_ != TrapKind::kNone) {
            return pending_trap_;
          }
        } else {
          pending_trap_ = TrapKind::kHostError;
          trap_msg_ = StrFormat("no host hook %u", instr.func);
          return pending_trap_;
        }
        break;
      }

      case MOp::kRet: {
        counters_.micro_cycles += cost_.ret;
        counters_.branches_retired++;
        if (frames_.empty()) {
          return TrapKind::kNone;  // outermost return: done
        }
        // Return-address pop (architecturally a load).
        uint8_t* p;
        if (!DataAccess(gpr(Gpr::kRsp), 8, false, &p)) {
          return pending_trap_;
        }
        set_gpr(Gpr::kRsp, gpr(Gpr::kRsp) + 8);
        Frame f = frames_.back();
        frames_.pop_back();
        cur_func_ = f.func;
        next_pc = f.ret_pc;
        break;
      }

      default:
        if (!ExecGenericOp(instr)) {
          return pending_trap_;
        }
        break;
    }

    pc_ = next_pc;
  }
}

}  // namespace nsf
