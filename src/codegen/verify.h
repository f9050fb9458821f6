// Pipeline verifiers (the LLVM -verify-machineinstrs idea for this repo):
// machine-checkable invariants over the two compiler-owned representations,
// run between optimization passes (CodegenOptions::verify_ir) and over every
// artifact the engine is about to trust (disk-cache loads, always).
//
//   VerifyIR      — the VOp IR between LowerFunction and AllocateRegisters:
//                   CFG well-formedness (unique labels, every branch target
//                   exists), forward def-before-use dataflow over vregs
//                   (intersection meet across predecessors, so a value must
//                   be defined on EVERY path reaching a use), class/width
//                   consistency against VRegInfo, and call arity + argument
//                   classes against the module's signatures.
//   VerifyMachine — the emitted MProgram: branch targets inside the
//                   function, rbp frame discipline (spill/save slots within
//                   frame_slots, parameter slots at [rbp+16+8i]), physical-
//                   register def-before-use under the machine's entry
//                   convention (rsp, heap-base rbx/r15 and the six arg
//                   registers are live-in; callee-saves of untouched
//                   registers are recognized; calls clobber the scratch
//                   registers and the compare state), a flags dataflow
//                   (every jcc/setcc must see a cmp/test/ucomis on all
//                   paths — the MProgram-side half of fused-pair legality),
//                   layout_order being a permutation, and table/global/data
//                   bounds.
//
// Every checker returns "" when the input is valid, else one diagnostic
// naming the function, the instruction index, and the violated invariant.
// The caller prepends pass context (src/codegen/codegen.cc does).
#ifndef SRC_CODEGEN_VERIFY_H_
#define SRC_CODEGEN_VERIFY_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/codegen/ir.h"
#include "src/wasm/module.h"
#include "src/x64/insts.h"

namespace nsf {

// Verifies one function's IR against `module` (signatures for call arity and
// argument classes, global/function index bounds).
std::string VerifyIR(const VFunc& vf, const Module& module);

// Verifies one emitted function. `prog` provides call-target and table
// bounds; the function need not be linked (no code_base use).
std::string VerifyMachineFunction(const MProgram& prog, size_t func_index);

// Whole-program check: every function plus program-level invariants
// (layout_order permutation, table/global/data bounds).
std::string VerifyMachine(const MProgram& prog);

// The machine dataflow's register-state mask has one bit per GPR (bit g),
// one per XMM (bit kNumGprs + x) and one for the compare state. These are
// the registers the machine initializes before entering ANY function
// (SimMachine::Run/RunAt): the stack pointer, both heap-base conventions
// (rbx for the V8-profile codegen, r15 for the SpiderMonkey profile), and
// the six entry argument registers. Everything else must be defined before
// it is read, modulo the callee-save allowance for pushes and frame saves.
inline constexpr uint64_t kMachineEntryLive =
    (1ull << static_cast<int>(Gpr::kRsp)) | (1ull << static_cast<int>(Gpr::kRbx)) |
    (1ull << static_cast<int>(Gpr::kR15)) | (1ull << static_cast<int>(Gpr::kRdi)) |
    (1ull << static_cast<int>(Gpr::kRsi)) | (1ull << static_cast<int>(Gpr::kRdx)) |
    (1ull << static_cast<int>(Gpr::kRcx)) | (1ull << static_cast<int>(Gpr::kR8)) |
    (1ull << static_cast<int>(Gpr::kR9));

// One instruction's step of the machine dataflow: returns the diagnostic for
// its first read of a register or compare state whose bit is clear in *live
// (worded as VerifyMachine words it), or "", then applies the instruction's
// kills and defs to *live. VerifyMachineFunction calls it only to word a
// failing read; tests replay it per instruction as a reference.
std::string StepMachineInstr(const MInstr& in, uint64_t* live);

}  // namespace nsf

#endif  // SRC_CODEGEN_VERIFY_H_
