// Pipeline verifiers (src/codegen/verify.h, src/machine/verify_decoded.h):
// hand-built broken programs at each representation must be rejected with a
// precise diagnostic; every real pass pipeline must be verify-clean at every
// boundary; and a disk artifact whose bytes are valid (checksum patched) but
// whose program is not must be rejected by the semantic verifier, counted in
// EngineStats::verify_rejects, and recompiled — never executed.
#include "src/codegen/verify.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>

#include <gtest/gtest.h>

#include "src/builder/builder.h"
#include "src/codegen/codegen.h"
#include "src/engine/engine.h"
#include "src/machine/verify_decoded.h"
#include "src/polybench/polybench.h"
#include "src/support/str.h"
#include "src/wasm/artifact_codec.h"
#include "src/wasm/encoder.h"

namespace nsf {
namespace {

[[maybe_unused]] const bool kEnvScrubbed = [] {
  unsetenv("NSF_CACHE_DIR");
  unsetenv("NSF_CACHE_MAX_BYTES");
  return true;
}();

// --- IR verifier: hand-built broken functions -------------------------------

// A minimal function shell: one int param, int return.
VFunc Shell() {
  VFunc vf;
  vf.name = "broken";
  vf.wasm_index = 0;
  vf.num_params = 1;
  vf.has_ret = true;
  vf.ret_fp = false;
  return vf;
}

VOp Op(VOp::K k) {
  VOp op;
  op.k = k;
  return op;
}

TEST(VerifyIR, CleanFunctionPasses) {
  Module m;
  VFunc vf = Shell();
  uint32_t v = vf.NewVReg(false, 4);
  VOp c = Op(VOp::K::kConst);
  c.d = v;
  c.imm = 7;
  vf.ops.push_back(c);
  VOp r = Op(VOp::K::kRet);
  r.a = v;
  vf.ops.push_back(r);
  EXPECT_EQ(VerifyIR(vf, m), "");
}

TEST(VerifyIR, DanglingBranchTarget) {
  Module m;
  VFunc vf = Shell();
  vf.next_label = 4;
  VOp br = Op(VOp::K::kBr);
  br.label = 3;  // < next_label, but never bound by a kLabel
  vf.ops.push_back(br);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("undefined label L3"), std::string::npos) << diag;
  EXPECT_NE(diag.find("op #0"), std::string::npos) << diag;
}

TEST(VerifyIR, DuplicateLabel) {
  Module m;
  VFunc vf = Shell();
  vf.next_label = 1;
  VOp l = Op(VOp::K::kLabel);
  l.label = 0;
  vf.ops.push_back(l);
  vf.ops.push_back(l);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("duplicate label L0"), std::string::npos) << diag;
}

TEST(VerifyIR, UseBeforeDefOnSomePath) {
  Module m;
  VFunc vf = Shell();
  uint32_t v = vf.NewVReg(false, 4);
  uint32_t cond = vf.NewVReg(false, 4);
  uint32_t join = vf.NewLabel();
  // cond = param0; br_if cond -> join (skipping v's only def); ret v.
  VOp p = Op(VOp::K::kParam);
  p.d = cond;
  p.imm = 0;
  vf.ops.push_back(p);
  VOp brif = Op(VOp::K::kBrIf);
  brif.a = cond;
  brif.label = join;
  vf.ops.push_back(brif);
  VOp c = Op(VOp::K::kConst);
  c.d = v;
  c.imm = 1;
  vf.ops.push_back(c);
  VOp l = Op(VOp::K::kLabel);
  l.label = join;
  vf.ops.push_back(l);
  VOp r = Op(VOp::K::kRet);
  r.a = v;
  vf.ops.push_back(r);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("use of v0 before definition"), std::string::npos) << diag;
  // Defining v on both paths makes the same function clean.
  vf.ops.insert(vf.ops.begin(), c);
  EXPECT_EQ(VerifyIR(vf, m), "");
}

TEST(VerifyIR, FpIntClassMismatch) {
  Module m;
  VFunc vf = Shell();
  uint32_t fp = vf.NewVReg(true, 8);
  uint32_t i = vf.NewVReg(false, 4);
  VOp cf = Op(VOp::K::kConstF);
  cf.d = fp;
  vf.ops.push_back(cf);
  VOp ci = Op(VOp::K::kConst);
  ci.d = i;
  vf.ops.push_back(ci);
  VOp bin = Op(VOp::K::kBin);  // int-class add with one fp operand
  bin.wop = Opcode::kI32Add;
  bin.d = i;
  bin.a = i;
  bin.b = fp;
  bin.is_fp = false;
  vf.ops.push_back(bin);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("bin rhs"), std::string::npos) << diag;
  EXPECT_NE(diag.find("fp-class"), std::string::npos) << diag;
}

TEST(VerifyIR, OutOfRangeVReg) {
  Module m;
  VFunc vf = Shell();
  VOp r = Op(VOp::K::kRet);
  r.a = 17;  // no vregs exist
  vf.ops.push_back(r);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("out-of-range vreg v17"), std::string::npos) << diag;
}

TEST(VerifyIR, CallArityMismatch) {
  ModuleBuilder mb("callee");
  auto& f = mb.AddFunction("f", {ValType::kI32, ValType::kI32}, {ValType::kI32});
  f.I32Const(0);
  Module m = mb.Build();

  VFunc vf = Shell();
  uint32_t v = vf.NewVReg(false, 4);
  VOp c = Op(VOp::K::kConst);
  c.d = v;
  vf.ops.push_back(c);
  VOp call = Op(VOp::K::kCall);
  call.func = 0;
  call.d = v;
  call.args = {v};  // signature wants two
  vf.ops.push_back(call);
  std::string diag = VerifyIR(vf, m);
  EXPECT_NE(diag.find("1 args"), std::string::npos) << diag;
  EXPECT_NE(diag.find("2 params"), std::string::npos) << diag;
}

// --- MProgram verifier: hand-built broken machine code ----------------------

MInstr Plain(MOp op) {
  MInstr i;
  i.op = op;
  return i;
}

MInstr Reg1(MOp op, Gpr r) {
  MInstr i;
  i.op = op;
  i.dst = Operand::R(r);
  return i;
}

MProgram OneFunc(std::vector<MInstr> code, uint32_t frame_slots = 0) {
  MProgram prog;
  MFunction f;
  f.name = "broken";
  f.code = std::move(code);
  f.frame_slots = frame_slots;
  prog.funcs.push_back(std::move(f));
  prog.Link();
  return prog;
}

TEST(VerifyMachine, CleanFunctionPasses) {
  MProgram prog = OneFunc({
      MInstr::RI(MOp::kMov, Gpr::kRax, 42),
      Plain(MOp::kRet),
  });
  EXPECT_EQ(VerifyMachine(prog), "");
}

TEST(VerifyMachine, DanglingBranchTarget) {
  MProgram prog = OneFunc({
      MInstr::Jump(7),  // only 2 instructions
      Plain(MOp::kRet),
  });
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("branch target 7 out of range"), std::string::npos) << diag;
  EXPECT_NE(diag.find("instr #0"), std::string::npos) << diag;
}

TEST(VerifyMachine, OutOfRangeStackSlot) {
  // frame_slots = 1 permits [rbp-8] only; [rbp-24] is outside the frame.
  MProgram prog = OneFunc(
      {
          MInstr::MR(MOp::kMov, MemRef::BaseDisp(Gpr::kRbp, -24), Gpr::kRdi),
          Plain(MOp::kRet),
      },
      /*frame_slots=*/1);
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("[rbp-24]"), std::string::npos) << diag;
  EXPECT_NE(diag.find("1-slot frame"), std::string::npos) << diag;
}

TEST(VerifyMachine, JccWithoutCompare) {
  // A jcc whose path from entry carries no cmp/test/ucomis: the machine-level
  // half of fused-pair legality (the decoder may only fuse what is legal).
  MProgram prog = OneFunc({
      MInstr::JumpCc(Cond::kE, 1),
      Plain(MOp::kRet),
  });
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("jcc with no compare state"), std::string::npos) << diag;
}

TEST(VerifyMachine, PhysRegUseBeforeDef) {
  // r12 is not entry-live (only rsp, heap bases, and the six arg registers
  // are) and nothing defines it.
  MProgram prog = OneFunc({
      MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kR12),
      Plain(MOp::kRet),
  });
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("reads r12 before any definition"), std::string::npos) << diag;
}

TEST(VerifyMachine, CalleeSavePushIsNotAUse) {
  // The prologue/epilogue shape: saving an untouched callee-saved register is
  // legal even though r12 was never defined.
  MProgram prog = OneFunc({
      Reg1(MOp::kPush, Gpr::kR12),
      Reg1(MOp::kPop, Gpr::kR12),
      Plain(MOp::kRet),
  });
  EXPECT_EQ(VerifyMachine(prog), "");
}

TEST(VerifyMachine, LayoutOrderMustBePermutation) {
  MProgram prog = OneFunc({Plain(MOp::kRet)});
  prog.layout_order = {0, 0};
  std::string diag = VerifyMachine(prog);
  EXPECT_NE(diag.find("layout_order"), std::string::npos) << diag;
}

// --- The block-summary machine verifier against a per-instruction reference --

// VerifyMachineFunction as it was before it folded blocks into (gen, kill)
// summaries: the same structural pass, then a round-robin fixpoint that
// steps every instruction of every block on every iteration, then a
// reporting pass that steps every instruction again.
std::string ReferenceVerifyMachineFunction(const MProgram& prog, size_t func_index) {
  const MFunction& f = prog.funcs[func_index];
  const std::vector<MInstr>& code = f.code;
  const size_t n = code.size();
  auto at = [&](size_t i, const std::string& msg) {
    return StrFormat("machine func '%s' (#%zu) instr #%zu [%s]: %s", f.name.c_str(), func_index,
                     i, MInstrToString(code[i]).c_str(), msg.c_str());
  };
  for (size_t i = 0; i < n; i++) {
    const MInstr& in = code[i];
    if ((in.op == MOp::kJmp || in.op == MOp::kJcc) && in.label >= n) {
      return at(i, StrFormat("branch target %u out of range (%zu instructions)", in.label, n));
    }
    if (in.op == MOp::kCall && in.func >= prog.funcs.size()) {
      return at(i, StrFormat("call target f%u out of range (%zu functions)", in.func,
                             prog.funcs.size()));
    }
    for (const Operand* o : {&in.dst, &in.src, &in.src2}) {
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
  }
  if (n == 0) {
    return "";
  }
  std::vector<size_t> begins;  // block i spans [begins[i], begins[i + 1])
  std::vector<bool> leader(n, false);
  leader[0] = true;
  for (size_t i = 0; i < n; i++) {
    if (code[i].op == MOp::kJmp || code[i].op == MOp::kJcc) {
      leader[code[i].label] = true;
    }
    if ((code[i].op == MOp::kJmp || code[i].op == MOp::kJcc || code[i].op == MOp::kRet) &&
        i + 1 < n) {
      leader[i + 1] = true;
    }
  }
  std::vector<size_t> block_of(n);
  for (size_t i = 0; i < n; i++) {
    if (leader[i]) {
      begins.push_back(i);
    }
    block_of[i] = begins.size() - 1;
  }
  const size_t nb = begins.size();
  begins.push_back(n);
  std::vector<std::vector<size_t>> preds(nb);
  for (size_t b = 0; b < nb; b++) {
    const MInstr& last = code[begins[b + 1] - 1];
    if (last.op == MOp::kJmp || last.op == MOp::kJcc) {
      preds[block_of[last.label]].push_back(b);
    }
    if (last.op != MOp::kJmp && last.op != MOp::kRet && begins[b + 1] < n) {
      preds[b + 1].push_back(b);
    }
  }
  auto block_in = [&](size_t b, const std::vector<uint64_t>& outs) {
    if (b == 0) {
      return kMachineEntryLive;
    }
    uint64_t in = ~0ull;
    for (size_t p : preds[b]) {
      in &= outs[p];
    }
    return in;
  };
  std::vector<uint64_t> outs(nb, ~0ull);
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t b = 0; b < nb; b++) {
      uint64_t cur = block_in(b, outs);
      for (size_t i = begins[b]; i < begins[b + 1]; i++) {
        StepMachineInstr(code[i], &cur);
      }
      changed |= cur != outs[b];
      outs[b] = cur;
    }
  }
  for (size_t b = 0; b < nb; b++) {
    uint64_t cur = block_in(b, outs);
    for (size_t i = begins[b]; i < begins[b + 1]; i++) {
      std::string err = StepMachineInstr(code[i], &cur);
      if (!err.empty()) {
        return at(i, err);
      }
    }
  }
  return "";
}

// The function-level half of VerifyMachine; the mutants below leave every
// program-level field alone.
std::string ReferenceVerifyMachineFunctions(const MProgram& prog) {
  for (size_t i = 0; i < prog.funcs.size(); i++) {
    std::string e = ReferenceVerifyMachineFunction(prog, i);
    if (!e.empty()) {
      return e;
    }
  }
  return "";
}

// Replaces one register the instruction names (a register operand, or a
// memory operand's base or index) with another of the same class. Returns
// false when the instruction names none.
bool SwapOneRegister(MInstr* in, std::mt19937* rng) {
  std::vector<Gpr*> gprs;
  std::vector<Xmm*> xmms;
  for (Operand* o : {&in->dst, &in->src, &in->src2}) {
    if (o->kind == OperandKind::kGpr) {
      gprs.push_back(&o->gpr);
    } else if (o->kind == OperandKind::kXmm) {
      xmms.push_back(&o->xmm);
    } else if (o->kind == OperandKind::kMem) {
      for (std::optional<Gpr>* r : {&o->mem.base, &o->mem.index}) {
        if (r->has_value()) {
          gprs.push_back(&**r);
        }
      }
    }
  }
  size_t slots = gprs.size() + xmms.size();
  if (slots == 0) {
    return false;
  }
  size_t pick = (*rng)() % slots;
  int shift = 1 + static_cast<int>((*rng)() % 15);  // never back to itself
  if (pick < gprs.size()) {
    *gprs[pick] = static_cast<Gpr>((static_cast<int>(*gprs[pick]) + shift) % kNumGprs);
  } else {
    Xmm* x = xmms[pick - gprs.size()];
    *x = static_cast<Xmm>((static_cast<int>(*x) + shift) % kNumXmms);
  }
  return true;
}

// Every PolyBench program under the three paper profiles, and seeded
// single-instruction mutants of each: the block-summary verifier must return
// exactly the reference's string, whether it accepts or rejects.
TEST(VerifyMachine, BlockSummaryMatchesPerInstructionReference) {
  std::mt19937 rng(20261018);
  constexpr int kMutantsPerKind = 40;
  size_t mutants = 0;
  size_t rejected = 0;
  for (const std::string& name : PolybenchKernelNames()) {
    Module m = PolybenchSpec(name).build();
    for (const CodegenOptions& opts :
         {CodegenOptions::NativeClang(), CodegenOptions::ChromeV8(), CodegenOptions::FirefoxSM()}) {
      CompileResult cr = CompileModule(m, opts);
      ASSERT_TRUE(cr.ok) << name << " under " << opts.profile_name << ": " << cr.error;
      MProgram& prog = cr.program;
      ASSERT_EQ(VerifyMachine(prog), "") << name << " under " << opts.profile_name;
      ASSERT_EQ(ReferenceVerifyMachineFunctions(prog), "");
      for (int kind = 0; kind < 4; kind++) {
        for (int k = 0; k < kMutantsPerKind; k++) {
          size_t fi = rng() % prog.funcs.size();
          std::vector<MInstr>& code = prog.funcs[fi].code;
          if (code.empty()) {
            continue;
          }
          const std::vector<MInstr> original = code;
          size_t i = rng() % code.size();
          bool mutated = true;
          switch (kind) {
            case 0:  // the instruction becomes a nop
              code[i].op = MOp::kNop;
              break;
            case 1:  // one register it names becomes another
              mutated = SwapOneRegister(&code[i], &rng);
              break;
            case 2:  // the instruction is deleted; branches past it shift down
              code.erase(code.begin() + static_cast<std::ptrdiff_t>(i));
              for (MInstr& in : code) {
                if ((in.op == MOp::kJmp || in.op == MOp::kJcc) && in.label > i) {
                  in.label--;
                }
              }
              break;
            case 3: {  // a branch gets a new target, in range or one past it
              std::vector<size_t> branches;
              for (size_t j = 0; j < code.size(); j++) {
                if (code[j].op == MOp::kJmp || code[j].op == MOp::kJcc) {
                  branches.push_back(j);
                }
              }
              mutated = !branches.empty();
              if (mutated) {
                code[branches[rng() % branches.size()]].label =
                    static_cast<uint32_t>(rng() % (code.size() + 1));
              }
              break;
            }
          }
          if (mutated) {
            std::string got = VerifyMachine(prog);
            ASSERT_EQ(got, ReferenceVerifyMachineFunctions(prog))
                << name << " under " << opts.profile_name << ", mutant kind " << kind
                << " at func #" << fi << " instr #" << i;
            mutants++;
            rejected += got.empty() ? 0 : 1;
          }
          code = original;
        }
      }
    }
  }
  // The mutants exercise both outcomes.
  EXPECT_GT(mutants, 8000u);
  EXPECT_GT(rejected, 400u);
  EXPECT_LT(rejected, mutants);
}

// --- DecodedProgram cross-checker -------------------------------------------

// cmp rax, 0; je +ret — decodes to a fused record.
MProgram FusablePair() {
  return OneFunc({
      MInstr::RI(MOp::kMov, Gpr::kRax, 1),
      MInstr::RI(MOp::kCmp, Gpr::kRax, 0),
      MInstr::JumpCc(Cond::kE, 4),
      MInstr::RI(MOp::kMov, Gpr::kRax, 2),
      Plain(MOp::kRet),
  });
}

TEST(VerifyDecoded, FreshPredecodePasses) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  ASSERT_GE(dp.stats.fused_pairs, 1u);
  EXPECT_EQ(VerifyDecodedProgram(prog, dp), "");
}

TEST(VerifyDecoded, MisKeyedRecordRejected) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  // Flip the immediate of the first record (mov rax, 1 -> mov rax, 99): the
  // record no longer round-trips to the MInstr it was decoded from.
  ASSERT_FALSE(dp.funcs[0].code.empty());
  dp.funcs[0].code[0].imm = 99;
  std::string diag = VerifyDecodedProgram(prog, dp);
  EXPECT_NE(diag.find("record #0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("imm"), std::string::npos) << diag;
}

TEST(VerifyDecoded, BadFusedPairRejected) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  // Find the fused record and corrupt its condition code.
  bool found = false;
  for (DInstr& d : dp.funcs[0].code) {
    HOp h = static_cast<HOp>(d.handler);
    if (h == HOp::kFusedCmpJccRI || h == HOp::kFusedCmpJccRR) {
      d.cond = static_cast<uint8_t>(Cond::kNe);
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "expected the cmp+jcc pair to fuse";
  std::string diag = VerifyDecodedProgram(prog, dp);
  EXPECT_NE(diag.find("cond"), std::string::npos) << diag;
}

TEST(VerifyDecoded, DanglingDecodedBranchRejected) {
  MProgram prog = FusablePair();
  DecodedProgram dp = Predecode(prog);
  // Point the fused branch beyond the decoded stream.
  bool found = false;
  for (DInstr& d : dp.funcs[0].code) {
    HOp h = static_cast<HOp>(d.handler);
    if (h == HOp::kFusedCmpJccRI || h == HOp::kJcc || h == HOp::kJmp) {
      d.target = 1000;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  std::string diag = VerifyDecodedProgram(prog, dp);
  EXPECT_NE(diag.find("target 1000 out of range"), std::string::npos) << diag;
}

// --- Pass pipelines are verify-clean at every boundary ----------------------

// Random-but-reproducible option mutations over the named profile factories:
// CompileModule runs the IR verifier after every pass, the machine verifier
// after emit+link, and the engine-free decoded check here — any pass that
// breaks an invariant fails the compile with a diagnostic.
TEST(VerifyPipeline, PolybenchCleanUnderRandomizedPassPipelines) {
  std::mt19937 rng(20260807);
  std::vector<CodegenOptions (*)()> factories = {
      &CodegenOptions::NativeClang, &CodegenOptions::ChromeV8, &CodegenOptions::FirefoxSM,
      &CodegenOptions::ChromeAsmJs, &CodegenOptions::FirefoxAsmJs,
  };
  std::vector<std::string> kernels = PolybenchKernelNames();
  ASSERT_FALSE(kernels.empty());
  std::shuffle(kernels.begin(), kernels.end(), rng);
  kernels.resize(std::min<size_t>(kernels.size(), 6));

  for (const std::string& name : kernels) {
    Module m = PolybenchSpec(name).build();
    for (int trial = 0; trial < 4; trial++) {
      CodegenOptions options = factories[rng() % factories.size()]();
      options.verify_ir = true;
      if (rng() % 2 == 0) {
        options.regalloc = options.regalloc == RegAllocKind::kGraphColor ? RegAllocKind::kLinearScan
                                                                          : RegAllocKind::kGraphColor;
      }
      if (rng() % 2 == 0) {
        options.rotate_loops = !options.rotate_loops;
      }
      if (rng() % 2 == 0) {
        options.fuse_addressing = !options.fuse_addressing;
      }
      CompileResult cr = CompileModule(m, options);
      ASSERT_TRUE(cr.ok) << name << " [" << options.profile_name
                         << " graph-color=" << (options.regalloc == RegAllocKind::kGraphColor)
                         << " rotate=" << options.rotate_loops
                         << " fuse=" << options.fuse_addressing << "]: " << cr.error;
      // And the decoded form round-trips.
      DecodedProgram dp = Predecode(cr.program);
      EXPECT_EQ(VerifyDecodedProgram(cr.program, dp), "") << name;
    }
  }
}

// A pass that DOES corrupt the IR is caught and named. kBin with a dangling
// operand injected right after lowering simulates a broken pass.
TEST(VerifyPipeline, CompileFailsWithPassDiagnostic) {
  ModuleBuilder mb("bad");
  auto& f = mb.AddFunction("f", {ValType::kI32}, {ValType::kI32});
  f.LocalGet(0);
  Module m = mb.Build();
  VFunc vf = LowerFunction(m, 0, CodegenOptions::NativeClang());
  // Sanity: lowering itself is clean...
  EXPECT_EQ(VerifyIR(vf, m), "");
  // ...and a corrupted function is not.
  VOp bad;
  bad.k = VOp::K::kBr;
  bad.label = 12345;
  vf.ops.insert(vf.ops.begin(), bad);
  EXPECT_NE(VerifyIR(vf, m), "");
}

// --- Disk tier: semantic rejection of checksum-valid artifacts --------------

struct TempCacheDir {
  explicit TempCacheDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("nsf-verify-test-" + tag + "-" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

engine::EngineConfig DiskConfig(const std::string& dir) {
  engine::EngineConfig config;
  config.cache_dir = dir;
  config.disk_cache_max_bytes = 0;
  return config;
}

Module SumSquaresModule() {
  ModuleBuilder mb("sum_squares");
  auto& f = mb.AddFunction("sum_squares", {ValType::kI32}, {ValType::kI32});
  uint32_t acc = f.AddLocal(ValType::kI32);
  uint32_t i = f.AddLocal(ValType::kI32);
  f.I32Const(0).LocalSet(acc);
  f.ForI32Dyn(i, 1, 0, 1, [&] {
    f.LocalGet(acc).LocalGet(i).LocalGet(i).I32Mul().I32Add().LocalSet(acc);
  });
  f.LocalGet(acc);
  return mb.Build();
}

TEST(VerifyDisk, ChecksumPatchedCorruptionIsRejectedAndRecompiled) {
  TempCacheDir dir("semantic");
  Module m = SumSquaresModule();
  CodegenOptions options = CodegenOptions::ChromeV8();
  uint64_t hash = HashModule(m);
  uint64_t fp = options.Fingerprint();
  std::string path;

  {
    engine::Engine writer(DiskConfig(dir.path));
    engine::CompiledModuleRef cm = writer.Compile(m, options);
    ASSERT_TRUE(cm->ok) << cm->error;
    path = writer.cache().disk().PathForKey(hash, fp);
    ASSERT_TRUE(std::filesystem::exists(path));
  }

  // "Bit-flip" the PROGRAM (not the bytes): deserialize the stored artifact,
  // break a branch target, and re-serialize — SerializeArtifact computes a
  // fresh checksum, so the file is byte-level valid but semantically broken.
  // Only the semantic verifier can catch this.
  {
    std::vector<uint8_t> bytes;
    {
      FILE* fh = fopen(path.c_str(), "rb");
      ASSERT_NE(fh, nullptr);
      fseek(fh, 0, SEEK_END);
      bytes.resize(static_cast<size_t>(ftell(fh)));
      fseek(fh, 0, SEEK_SET);
      ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), fh), bytes.size());
      fclose(fh);
    }
    CompiledArtifact artifact;
    std::string error;
    ASSERT_TRUE(DeserializeArtifact(bytes, &artifact, &error)) << error;
    MInstr bad;
    bad.op = MOp::kJmp;
    bad.label = 1u << 30;
    artifact.compiled.program.funcs.back().code.push_back(bad);
    artifact.compiled.program.Link();
    std::vector<uint8_t> patched = SerializeArtifact(artifact);
    FILE* fh = fopen(path.c_str(), "wb");
    ASSERT_NE(fh, nullptr);
    ASSERT_EQ(fwrite(patched.data(), 1, patched.size(), fh), patched.size());
    fclose(fh);
  }

  // A fresh engine must reject the artifact semantically, delete it, count
  // the reject, and serve a recompile — never the poisoned program.
  {
    engine::Engine reader(DiskConfig(dir.path));
    engine::CompiledModuleRef cm = reader.Compile(m, options);
    ASSERT_TRUE(cm->ok) << cm->error;
    EXPECT_FALSE(cm->from_disk);
    engine::EngineStats stats = reader.Stats();
    EXPECT_EQ(stats.verify_rejects, 1u);
    EXPECT_EQ(stats.compiles, 1u);
    // The rejected file was deleted and the recompile re-stored a clean one:
    // a third engine loads it from disk without incident.
    engine::Engine third(DiskConfig(dir.path));
    engine::CompiledModuleRef again = third.Compile(m, options);
    ASSERT_TRUE(again->ok);
    EXPECT_TRUE(again->from_disk);
    EXPECT_EQ(third.Stats().verify_rejects, 0u);
  }
}

}  // namespace
}  // namespace nsf
