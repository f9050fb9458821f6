#include "src/codegen/ir.h"

#include "src/support/str.h"

namespace nsf {

uint32_t DefOf(const VOp& op) {
  switch (op.k) {
    case VOp::K::kStore:
    case VOp::K::kGlobalSet:
    case VOp::K::kLabel:
    case VOp::K::kBr:
    case VOp::K::kBrIf:
    case VOp::K::kBrCmp:
    case VOp::K::kRet:
    case VOp::K::kTrap:
      return kNoVReg;
    default:
      return op.d;
  }
}

bool IsPure(const VOp& op) {
  switch (op.k) {
    case VOp::K::kConst:
    case VOp::K::kConstF:
    case VOp::K::kMove:
    case VOp::K::kCmp:
    case VOp::K::kSelect:
      return true;
    case VOp::K::kUn:
    case VOp::K::kBin:
      // div/rem can trap; everything else is pure.
      switch (op.wop) {
        case Opcode::kI32DivS:
        case Opcode::kI32DivU:
        case Opcode::kI32RemS:
        case Opcode::kI32RemU:
        case Opcode::kI64DivS:
        case Opcode::kI64DivU:
        case Opcode::kI64RemS:
        case Opcode::kI64RemU:
        case Opcode::kI32TruncF32S:
        case Opcode::kI32TruncF32U:
        case Opcode::kI32TruncF64S:
        case Opcode::kI32TruncF64U:
        case Opcode::kI64TruncF32S:
        case Opcode::kI64TruncF32U:
        case Opcode::kI64TruncF64S:
        case Opcode::kI64TruncF64U:
          return false;
        default:
          return true;
      }
    default:
      return false;
  }
}

std::string VOpToString(const VOp& op) {
  switch (op.k) {
    case VOp::K::kParam:
      return StrFormat("v%u = param %llu", op.d, (unsigned long long)op.imm);
    case VOp::K::kConst:
      return StrFormat("v%u = const %lld", op.d, (long long)op.imm);
    case VOp::K::kConstF:
      return StrFormat("v%u = constf 0x%llx", op.d, (unsigned long long)op.imm);
    case VOp::K::kMove:
      return StrFormat("v%u = v%u", op.d, op.a);
    case VOp::K::kUn:
      return StrFormat("v%u = %s v%u", op.d, OpcodeName(op.wop), op.a);
    case VOp::K::kBin:
      return StrFormat("v%u = %s v%u, v%u", op.d, OpcodeName(op.wop), op.a, op.b);
    case VOp::K::kCmp:
      return StrFormat("v%u = cmp.%s v%u, v%u", op.d, CondName(op.cond), op.a, op.b);
    case VOp::K::kSelect:
      return StrFormat("v%u = select v%u ? v%u : v%u", op.d, op.c, op.a, op.b);
    case VOp::K::kLoad:
      if (op.fuse_scale != 0) {
        return StrFormat("v%u = load [v%u + v%u*%u + %d] w%u", op.d, op.a, op.b, op.fuse_scale,
                         op.offset, op.width);
      }
      return StrFormat("v%u = load [v%u + %d] w%u", op.d, op.a, op.offset, op.width);
    case VOp::K::kStore:
      if (op.fuse_scale != 0) {
        return StrFormat("store [v%u + v%u*%u + %d] = v%u w%u", op.a, op.c, op.fuse_scale,
                         op.offset, op.b, op.width);
      }
      return StrFormat("store [v%u + %d] = v%u w%u", op.a, op.offset, op.b, op.width);
    case VOp::K::kGlobalGet:
      return StrFormat("v%u = global[%llu]", op.d, (unsigned long long)op.imm);
    case VOp::K::kGlobalSet:
      return StrFormat("global[%llu] = v%u", (unsigned long long)op.imm, op.a);
    case VOp::K::kLabel:
      return StrFormat("L%u:", op.label);
    case VOp::K::kBr:
      return StrFormat("br L%u", op.label);
    case VOp::K::kBrIf:
      return StrFormat("br_if%s v%u, L%u", op.negate ? "_not" : "", op.a, op.label);
    case VOp::K::kBrCmp:
      return StrFormat("br_cmp.%s v%u, v%u, L%u", CondName(op.cond), op.a, op.b, op.label);
    case VOp::K::kCall:
      return StrFormat("v%u = call f%u (%zu args)", op.d, op.func, op.args.size());
    case VOp::K::kCallInd:
      return StrFormat("v%u = call_indirect [v%u] sig%u (%zu args)", op.d, op.a, op.sig,
                       op.args.size());
    case VOp::K::kMemSize:
      return StrFormat("v%u = memory.size", op.d);
    case VOp::K::kMemGrow:
      return StrFormat("v%u = memory.grow v%u", op.d, op.a);
    case VOp::K::kRet:
      return op.a == kNoVReg ? "ret" : StrFormat("ret v%u", op.a);
    case VOp::K::kTrap:
      return "trap";
  }
  return "?";
}

}  // namespace nsf
