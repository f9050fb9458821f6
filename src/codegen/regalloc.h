// Register allocation over the VOp IR.
//
// Two allocators implement the paper's §6.1.2 contrast:
//   - LinearScan: the fast single-pass allocator browser JITs use
//     (Poletto/Sarkar style over whole-function intervals, no coalescing,
//     no lifetime holes) — cheap to run, produces more spills and moves.
//   - GraphColor: Chaitin/Briggs-style coloring with conservative move
//     coalescing — what offline compilers afford.
#ifndef SRC_CODEGEN_REGALLOC_H_
#define SRC_CODEGEN_REGALLOC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/codegen/ir.h"

namespace nsf {

// Location assignment per vreg.
struct Allocation {
  // loc[v]: >= 0  -> physical register id (Gpr or Xmm value, by class)
  //         == -1 -> never materialized (dead)
  //         <= -2 -> spill slot (-2 - loc == slot index)
  std::vector<int32_t> loc;
  uint32_t num_slots = 0;
  uint32_t num_spilled_vregs = 0;
  std::vector<Gpr> used_gprs;  // callee-save bookkeeping
  std::vector<Xmm> used_xmms;

  bool IsReg(uint32_t v) const { return loc[v] >= 0; }
  bool IsSpill(uint32_t v) const { return loc[v] <= -2; }
  uint32_t SlotOf(uint32_t v) const { return static_cast<uint32_t>(-2 - loc[v]); }
  Gpr GprOf(uint32_t v) const { return static_cast<Gpr>(loc[v]); }
  Xmm XmmOf(uint32_t v) const { return static_cast<Xmm>(loc[v]); }
};

// Per-op liveness: both allocators' input, exposed for codegen_test, which
// checks it against an op-level reference.
struct Liveness {
  uint32_t words = 0;  // words per bitset
  // n x words: op i's live-out bitset over vregs, packed 64 per word.
  std::vector<uint64_t> bits;

  const uint64_t* out(size_t i) const { return bits.data() + i * words; }
};

// Backward dataflow over basic blocks (a label starts one; a branch, return
// or trap ends one), iterated to its least fixpoint and then expanded to
// every op. Every branch target must be a label in `vf.ops` below
// `vf.next_label`.
Liveness ComputeLiveness(const VFunc& vf);

// Allocates registers for `vf` using pools derived from `options`.
Allocation AllocateRegisters(const VFunc& vf, const CodegenOptions& options);

// The register pools a profile allocates from (exposed for tests/benches).
std::vector<Gpr> AllocatableGprs(const CodegenOptions& options);
std::vector<Xmm> AllocatableXmms(const CodegenOptions& options);

}  // namespace nsf

#endif  // SRC_CODEGEN_REGALLOC_H_
