// Differential suite for the predecoded interpreter core: the threaded /
// switch dispatch over DecodedPrograms must produce BIT-IDENTICAL
// PerfCounters, return values, traps, and outputs against the legacy switch
// interpreter (SimDispatch::kLegacy) — on real workloads, on trap paths
// (OOB / call-stack / fuel), and on fused-branch edge cases. Also covers the
// predecode structure itself (fusion rules, generic fallback), the
// session-owned SimBufferPool scrub contract, and the run history that
// feeds LPT scheduling.
#include "src/machine/decode.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/engine/engine.h"
#include "src/engine/executor.h"
#include "src/machine/machine.h"
#include "src/polybench/polybench.h"

namespace nsf {
namespace {

MInstr Ret() {
  MInstr r;
  r.op = MOp::kRet;
  return r;
}

struct BothResults {
  MachineResult legacy;
  MachineResult pred;
  PerfCounters legacy_counters;
  PerfCounters pred_counters;
};

// Runs `prog` under both dispatch modes on fresh machines and asserts the
// observable state is identical; returns both for extra assertions.
BothResults RunBoth(const MProgram& prog, const std::vector<uint64_t>& args = {},
                    uint64_t fuel = 0) {
  BothResults out;
  {
    SimMachine m(&prog);
    m.set_dispatch(SimDispatch::kLegacy);
    if (fuel != 0) {
      m.set_fuel(fuel);
    }
    out.legacy = m.Run(0, args);
    out.legacy_counters = m.counters();
  }
  {
    SimMachine m(&prog);
    m.set_dispatch(SimDispatch::kPredecoded);
    if (fuel != 0) {
      m.set_fuel(fuel);
    }
    out.pred = m.Run(0, args);
    out.pred_counters = m.counters();
  }
  EXPECT_EQ(out.legacy.ok, out.pred.ok);
  EXPECT_EQ(out.legacy.trap, out.pred.trap);
  EXPECT_EQ(out.legacy.ret_i, out.pred.ret_i);
  EXPECT_EQ(out.legacy.error, out.pred.error);
  EXPECT_TRUE(out.legacy_counters == out.pred_counters)
      << "instrs " << out.legacy_counters.instructions_retired << " vs "
      << out.pred_counters.instructions_retired << ", cycles "
      << out.legacy_counters.micro_cycles << " vs " << out.pred_counters.micro_cycles;
  return out;
}

// --- Fused-branch edge cases ---

TEST(Fusion, CmpJccPairFusesAndBranches) {
  // Counting loop: the cmp+jne back edge must fuse into one record and still
  // retire as two instructions with the unfused cycle charges.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRcx, 50, 8));
  f.code.push_back(MInstr::RI(MOp::kAdd, Gpr::kRax, 3, 8));   // 2: loop body
  f.code.push_back(MInstr::RI(MOp::kSub, Gpr::kRcx, 1, 8));
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRcx, 0, 8));
  f.code.push_back(MInstr::JumpCc(Cond::kNe, 2));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(dp.stats.fused_pairs, 1u);
  EXPECT_EQ(dp.stats.instrs, 7u);
  EXPECT_EQ(dp.stats.records, 6u);  // 7 instrs - 1 fused pair

  BothResults r = RunBoth(prog);
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 150u);
  EXPECT_EQ(r.legacy_counters.cond_branches_retired, 50u);
  EXPECT_EQ(r.legacy_counters.taken_branches, 49u);
}

TEST(Fusion, JccThatIsBranchTargetIsNotFused) {
  // Jumping straight AT the jcc must execute only the jcc, evaluating the
  // compare state an earlier cmp left behind — so this jcc cannot be fused.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRdi, 7, 8));   // 0: sets state
  f.code.push_back(MInstr::Jump(3));                          // 1: hop over cmp
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRdi, 99, 8));  // 2: (skipped)
  f.code.push_back(MInstr::JumpCc(Cond::kE, 5));              // 3: TARGET of 1
  f.code.push_back(Ret());                                    // 4: not-equal path
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 1, 8));   // 5: equal path
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  DecodedProgram dp = Predecode(prog);
  EXPECT_EQ(dp.stats.fused_pairs, 0u);  // cmp@2+jcc@3 blocked: 3 is a target

  BothResults eq = RunBoth(prog, {7});
  EXPECT_EQ(eq.legacy.ret_i, 1u);
  RunBoth(prog, {8});
}

TEST(Fusion, CompareStateSurvivesFusedPair) {
  // cmp ; jcc (fused) ; setcc ; jcc — the later consumers must read the
  // same compare state the fused record wrote.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRdi, 10, 8));  // 0 (fuses w/ 1)
  f.code.push_back(MInstr::JumpCc(Cond::kG, 5));              // 1: >10 -> ret 0
  MInstr setcc;
  setcc.op = MOp::kSetcc;
  setcc.dst = Operand::R(Gpr::kRax);
  setcc.cond = Cond::kL;                                      // 2: rax = (rdi<10)
  f.code.push_back(setcc);
  f.code.push_back(MInstr::JumpCc(Cond::kE, 7));              // 3: ==10 -> rax=7
  f.code.push_back(Ret());                                    // 4
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));   // 5
  f.code.push_back(Ret());
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 7, 8));   // 7 -> fallthrough ret
  prog.funcs.push_back(std::move(f));
  prog.funcs[0].code.push_back(Ret());
  prog.Link();

  EXPECT_EQ(RunBoth(prog, {3}).legacy.ret_i, 1u);    // <10: setcc, jcc not taken
  EXPECT_EQ(RunBoth(prog, {10}).legacy.ret_i, 7u);   // ==10: second jcc taken
  EXPECT_EQ(RunBoth(prog, {11}).legacy.ret_i, 0u);   // >10: fused jcc taken
}

TEST(Fusion, TestJccFusesWithSignSemantics) {
  MProgram prog;
  MFunction f;
  MInstr test = MInstr::RR(MOp::kTest, Gpr::kRdi, Gpr::kRdi, 8);
  f.code.push_back(test);                                     // 0 (fuses w/ 1)
  f.code.push_back(MInstr::JumpCc(Cond::kS, 4));              // 1: negative?
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 1, 8));   // 2: non-negative
  f.code.push_back(Ret());
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 2, 8));   // 4: negative
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  EXPECT_EQ(Predecode(prog).stats.fused_pairs, 1u);
  EXPECT_EQ(RunBoth(prog, {5}).legacy.ret_i, 1u);
  EXPECT_EQ(RunBoth(prog, {static_cast<uint64_t>(-5)}).legacy.ret_i, 2u);
  EXPECT_EQ(RunBoth(prog, {0}).legacy.ret_i, 1u);
}

TEST(Fusion, MemOperandTrapMidPairChargesOnlyTheCmp) {
  // cmp rax, [oob] ; jcc — the memory trap fires inside the fused record
  // after the cmp's fetch+retire but before the jcc's; both paths must agree
  // on every counter.
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  MInstr cmp = MInstr::RM(MOp::kCmp, Gpr::kRax,
                          MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)), 8);
  f.code.push_back(cmp);
  f.code.push_back(MInstr::JumpCc(Cond::kE, 3));
  f.code.push_back(Ret());
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  ASSERT_EQ(Predecode(prog).stats.fused_pairs, 1u);

  BothResults ok = RunBoth(prog, {0});
  EXPECT_TRUE(ok.legacy.ok);
  BothResults trap = RunBoth(prog, {70000});
  EXPECT_EQ(trap.legacy.trap, TrapKind::kMemoryOutOfBounds);
  // The cmp retired, the jcc did not.
  EXPECT_EQ(trap.legacy_counters.instructions_retired, 1u);
  EXPECT_EQ(trap.legacy_counters.cond_branches_retired, 0u);
}

TEST(Fusion, FuelExpiringOnTheFusedJcc) {
  // With fuel == 1 the cmp of a fused pair retires and the jcc trips the
  // budget — exactly as the unfused interpreter behaves.
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRax, 0, 8));
  f.code.push_back(MInstr::JumpCc(Cond::kE, 0));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  BothResults r = RunBoth(prog, {}, /*fuel=*/1);
  EXPECT_EQ(r.legacy.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(r.legacy_counters.instructions_retired, 2u);  // the jcc tripped it
}

// --- Trap-path differentials ---

TEST(DecodeDifferential, OutOfBoundsLoad) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)), 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  EXPECT_TRUE(RunBoth(prog, {0}).legacy.ok);
  EXPECT_EQ(RunBoth(prog, {65536}).legacy.trap, TrapKind::kMemoryOutOfBounds);
}

TEST(DecodeDifferential, DivByZeroAndOverflow) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRdi, 4));
  MInstr cdq;
  cdq.op = MOp::kCdq;
  cdq.width = 4;
  f.code.push_back(cdq);
  MInstr div;
  div.op = MOp::kIdiv;
  div.src = Operand::R(Gpr::kRsi);
  div.width = 4;
  f.code.push_back(div);
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  EXPECT_EQ(RunBoth(prog, {100, 7}).legacy.ret_i & 0xffffffff, 14u);
  EXPECT_EQ(RunBoth(prog, {100, 0}).legacy.trap, TrapKind::kDivByZero);
  EXPECT_EQ(RunBoth(prog, {0x80000000ull, static_cast<uint64_t>(-1) & 0xffffffff}).legacy.trap,
            TrapKind::kIntegerOverflow);
}

TEST(DecodeDifferential, CallStackExhaustion) {
  MProgram prog;
  MFunction f;
  MInstr call;
  call.op = MOp::kCall;
  call.func = 0;  // self-recursive
  f.code.push_back(call);
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog);
  EXPECT_EQ(r.legacy.trap, TrapKind::kCallStackExhausted);
}

TEST(DecodeDifferential, FuelExhaustionOnLoop) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::Jump(0));
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog, {}, /*fuel=*/777);
  EXPECT_EQ(r.legacy.trap, TrapKind::kFuelExhausted);
  EXPECT_EQ(r.legacy_counters.instructions_retired, 778u);
}

TEST(DecodeDifferential, JumpOffTheEndTrapsLikePcOutOfRange) {
  MProgram prog;
  MFunction f;
  f.name = "edge";
  f.code.push_back(MInstr::Jump(2));  // label == code.size(): off the end
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog);
  EXPECT_EQ(r.legacy.trap, TrapKind::kHostError);
  EXPECT_NE(r.legacy.error.find("pc out of range"), std::string::npos);
}

TEST(DecodeDifferential, MemoryGrowAcrossDispatches) {
  MProgram prog;
  prog.memory_pages = 1;
  prog.max_memory_pages = 4;
  MFunction f;
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRdi, 1, 8));  // grow by 1 page
  MInstr grow;
  grow.op = MOp::kCallHost;
  grow.func = kBuiltinMemoryGrow;
  f.code.push_back(grow);
  // Store into the new page, then load it back.
  f.code.push_back(MInstr::MR(MOp::kStore,
                              MemRef::Abs(static_cast<int32_t>(kHeapBase) + 65536 + 16),
                              Gpr::kRdi, 8));
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::Abs(static_cast<int32_t>(kHeapBase) + 65536 + 16), 8));
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();
  BothResults r = RunBoth(prog);
  ASSERT_TRUE(r.legacy.ok);
  EXPECT_EQ(r.legacy.ret_i, 1u);
}

// --- PolyBench differential through the Engine/Instance path ---

TEST(DecodeDifferential, PolybenchSubsetBitIdentical) {
  engine::EngineConfig config;
  config.cache_dir = "";  // hermetic: no disk tier
  engine::Engine eng(config);
  engine::Session session(&eng);
  for (const char* name : {"bicg", "trisolv", "cholesky", "mvt", "lu", "gesummv"}) {
    SCOPED_TRACE(name);
    WorkloadSpec spec = PolybenchSpec(name);
    engine::CompiledModuleRef code = eng.CompileWorkload(spec, CodegenOptions::ChromeV8());
    ASSERT_TRUE(code->ok) << code->error;
    ASSERT_NE(code->decoded_program(), nullptr);

    engine::RunOutcome outcomes[2];
    SimDispatch modes[2] = {SimDispatch::kLegacy, SimDispatch::kPredecoded};
    std::vector<std::pair<std::string, std::vector<uint8_t>>> outputs[2];
    for (int i = 0; i < 2; i++) {
      session.Reset();
      if (spec.setup) {
        spec.setup(session.kernel());
      }
      engine::InstanceOptions iopts;
      iopts.argv = spec.argv;
      iopts.entry = spec.entry;
      iopts.fuel = spec.fuel;
      iopts.dispatch = modes[i];
      std::string err;
      std::unique_ptr<engine::Instance> inst =
          session.Instantiate(code, std::move(iopts), &err);
      ASSERT_NE(inst, nullptr) << err;
      outcomes[i] = inst->Run();
      ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
      for (const std::string& path : spec.output_files) {
        std::vector<uint8_t> bytes;
        session.fs().ReadFile(path, &bytes);
        outputs[i].push_back({path, std::move(bytes)});
      }
    }
    EXPECT_TRUE(outcomes[0].counters == outcomes[1].counters);
    EXPECT_EQ(outcomes[0].exit_code, outcomes[1].exit_code);
    EXPECT_EQ(outcomes[0].stdout_text, outcomes[1].stdout_text);
    EXPECT_EQ(outcomes[0].syscalls, outcomes[1].syscalls);
    EXPECT_EQ(outputs[0], outputs[1]);
  }
}

// --- Buffer pool scrub contract ---

TEST(SimBufferPool, ReusedBuffersAreScrubbedToZero) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  // Dirty the heap and a deep stack slot.
  f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRdi, 0x1234, 8));
  f.code.push_back(MInstr::MR(MOp::kStore, MemRef::Abs(static_cast<int32_t>(kHeapBase) + 100),
                              Gpr::kRdi, 8));
  MInstr push;
  push.op = MOp::kPush;
  push.dst = Operand::R(Gpr::kRdi);
  f.code.push_back(push);
  f.code.push_back(Ret());
  prog.funcs.push_back(std::move(f));
  prog.Link();

  SimBufferPool pool;
  {
    SimMachine m(&prog, nullptr, &pool);
    // Stage args like RunAt does (writes the stack outside counters too).
    ASSERT_TRUE(m.Run(0).ok);
    uint64_t bits = 0;
    ASSERT_TRUE(m.HeapRead(100, &bits, 8));
    EXPECT_EQ(bits, 0x1234u);
  }
  EXPECT_EQ(pool.acquires(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);
  {
    SimMachine m(&prog, nullptr, &pool);
    uint64_t bits = 0xdead;
    ASSERT_TRUE(m.HeapRead(100, &bits, 8));
    EXPECT_EQ(bits, 0u);  // scrubbed on release
    ASSERT_TRUE(m.Run(0).ok);
  }
  EXPECT_EQ(pool.acquires(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(SimBufferPool, PooledRunsAreBitIdenticalToFresh) {
  WorkloadSpec spec = PolybenchSpec("trisolv");
  engine::EngineConfig config;
  config.cache_dir = "";
  engine::Engine eng(config);
  engine::Session session(&eng);
  engine::CompiledModuleRef code = eng.CompileWorkload(spec, CodegenOptions::ChromeV8());
  ASSERT_TRUE(code->ok) << code->error;

  PerfCounters first;
  std::string first_out;
  for (int i = 0; i < 3; i++) {
    session.Reset();
    if (spec.setup) {
      spec.setup(session.kernel());
    }
    engine::InstanceOptions iopts;
    iopts.argv = spec.argv;
    iopts.entry = spec.entry;
    std::string err;
    std::unique_ptr<engine::Instance> inst = session.Instantiate(code, std::move(iopts), &err);
    ASSERT_NE(inst, nullptr) << err;
    engine::RunOutcome out = inst->Run();
    ASSERT_TRUE(out.ok) << out.error;
    if (i == 0) {
      first = out.counters;
      first_out = out.stdout_text;
    } else {
      // Reused (scrubbed) buffers must be observationally identical to the
      // fresh allocation of run 0.
      EXPECT_TRUE(out.counters == first);
      EXPECT_EQ(out.stdout_text, first_out);
    }
  }
  EXPECT_GE(session.buffer_pool().reuses(), 2u);
}

// --- Run history / LPT estimates ---

TEST(RunHistory, ObservedSecondsIsTheMeanOfRecordedRuns) {
  engine::RunHistory history;
  uint64_t runs = 99;
  EXPECT_EQ(history.ObservedSeconds("k", &runs), 0.0);  // cold: FIFO fallback
  EXPECT_EQ(runs, 0u);

  history.RecordRun("k", 2.0);
  history.RecordRun("k", 4.0);
  EXPECT_EQ(history.ObservedRuns("k"), 2u);
  EXPECT_DOUBLE_EQ(history.ObservedSeconds("k", &runs), 3.0);
  EXPECT_EQ(runs, 2u);
}

TEST(RunHistory, BatchRunsFeedTheTableAndLptUsesIt) {
  engine::EngineConfig config;
  config.cache_dir = "";
  engine::Engine eng(config);

  std::vector<engine::RunRequest> requests;
  for (const char* name : {"trisolv", "bicg"}) {
    engine::RunRequest req;
    req.spec = PolybenchSpec(name);
    req.options = CodegenOptions::ChromeV8();
    req.reps = 1;
    req.collect_outputs = false;
    requests.push_back(std::move(req));
  }

  engine::ExecutorPool pool(&eng, 2);
  engine::BatchReport cold = pool.Run(requests);
  ASSERT_TRUE(cold.all_ok());
  // Nothing observed before the first batch...
  EXPECT_EQ(cold.lpt_observed_requests, 0u);
  // ...but the batch itself populated the history.
  EXPECT_EQ(eng.history().ObservedRuns("trisolv"), 1u);
  EXPECT_GT(eng.history().ObservedSeconds("trisolv"), 0.0);

  engine::BatchReport warm = pool.Run(requests);
  ASSERT_TRUE(warm.all_ok());
  EXPECT_EQ(warm.lpt_observed_requests, requests.size());
}

// --- Decode structure sanity ---

TEST(Predecode, GenericFallbackStaysRare) {
  // On real compiled output the specialized handlers must dominate: the
  // whole point of predecoding is that the per-instruction operand-kind
  // switches disappear from the hot path.
  WorkloadSpec spec = PolybenchSpec("gemm");
  Module module = spec.build();
  CompiledArtifact artifact = BuildArtifact(module, CodegenOptions::ChromeV8());
  ASSERT_TRUE(artifact.ok());
  DecodedProgram dp = Predecode(artifact.program());
  ASSERT_GT(dp.stats.records, 0u);
  EXPECT_GT(dp.stats.fused_pairs, 0u);
  EXPECT_LT(static_cast<double>(dp.stats.generic), 0.10 * static_cast<double>(dp.stats.records))
      << dp.stats.generic << " generic of " << dp.stats.records;
}

TEST(Predecode, EveryFunctionEndsWithSentinel) {
  WorkloadSpec spec = PolybenchSpec("bicg");
  Module module = spec.build();
  CompiledArtifact artifact = BuildArtifact(module, CodegenOptions::ChromeV8());
  ASSERT_TRUE(artifact.ok());
  DecodedProgram dp = Predecode(artifact.program());
  ASSERT_EQ(dp.funcs.size(), artifact.program().funcs.size());
  for (const DecodedFunc& df : dp.funcs) {
    ASSERT_FALSE(df.code.empty());
    EXPECT_EQ(df.code.back().handler, static_cast<uint16_t>(HOp::kEndOfCode));
  }
}

}  // namespace
}  // namespace nsf
