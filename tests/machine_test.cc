// Machine-level tests: cache model behaviour, instruction size estimates,
// counter accounting, and hand-assembled programs.
#include "src/machine/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/machine/cache.h"

namespace nsf {
namespace {

TEST(CacheModel, HitsAfterFill) {
  CacheModel cache(1024, 64, 2);  // 8 sets x 2 ways
  EXPECT_FALSE(cache.Access(0));   // cold miss
  EXPECT_TRUE(cache.Access(0));    // hit
  EXPECT_TRUE(cache.Access(63));   // same line
  EXPECT_FALSE(cache.Access(64));  // next line
}

TEST(CacheModel, LruEviction) {
  CacheModel cache(1024, 64, 2);
  // Three lines mapping to the same set (stride = sets*line = 512).
  cache.Access(0);
  cache.Access(512);
  EXPECT_TRUE(cache.Access(0));     // keep 0 fresh
  EXPECT_FALSE(cache.Access(1024));  // evicts 512 (LRU)
  EXPECT_TRUE(cache.Access(0));
  EXPECT_FALSE(cache.Access(512));   // was evicted
}

TEST(CacheModel, RangeCountsLineMisses) {
  CacheModel cache(1024, 64, 2);
  EXPECT_EQ(cache.AccessRange(60, 8), 2u);  // straddles two lines
  EXPECT_EQ(cache.AccessRange(60, 8), 0u);
}

TEST(CacheModel, RejectsNonPowerOfTwoGeometry) {
  EXPECT_THROW(CacheModel(3 * 64 * 8, 64, 8), std::invalid_argument);  // 3 sets
  EXPECT_THROW(CacheModel(1000, 64, 2), std::invalid_argument);        // not sets*line*ways
  EXPECT_THROW(CacheModel(8 * 48 * 2, 48, 2), std::invalid_argument);  // 48-byte lines
  EXPECT_THROW(CacheModel(1024, 64, 0), std::invalid_argument);
  EXPECT_NO_THROW(CacheModel(1024, 64, 2));
}

// Reference model for the differential tests: the timestamp LRU that
// CacheModel's MRU-ordered sets replaced. Every way carries the tick of its
// last touch; a miss fills the first empty way (lru 0) or evicts the way
// with the smallest tick.
class TimestampLru {
 public:
  TimestampLru(uint32_t size_bytes, uint32_t line_size, uint32_t ways)
      : ways_(ways),
        num_sets_(size_bytes / (line_size * ways)),
        line_shift_(static_cast<uint32_t>(std::countr_zero(line_size))),
        sets_(size_t{num_sets_} * ways) {}

  bool Access(uint64_t addr) {
    uint64_t line = addr >> line_shift_;
    Way* base = &sets_[(line % num_sets_) * ways_];
    tick_++;
    Way* victim = base;
    for (uint32_t w = 0; w < ways_; w++) {
      if (base[w].tag == line) {
        base[w].lru = tick_;
        return true;
      }
      if (base[w].lru < victim->lru) {
        victim = &base[w];
      }
    }
    victim->tag = line;
    victim->lru = tick_;
    return false;
  }

  uint32_t AccessRange(uint64_t addr, uint32_t size) {
    uint32_t misses = 0;
    for (uint64_t line = addr >> line_shift_; line <= (addr + size - 1) >> line_shift_; line++) {
      misses += Access(line << line_shift_) ? 0 : 1;
    }
    return misses;
  }

  void Reset() {
    std::fill(sets_.begin(), sets_.end(), Way{});
    tick_ = 0;
  }

 private:
  struct Way {
    uint64_t tag = UINT64_MAX;
    uint64_t lru = 0;
  };
  uint32_t ways_;
  uint32_t num_sets_;
  uint32_t line_shift_;
  std::vector<Way> sets_;
  uint64_t tick_ = 0;
};

struct CacheGeometry {
  const char* name;
  uint32_t size, line, ways;
};
// SimMachine's L1i, L1d and L2, and the small geometry of the tests above.
constexpr CacheGeometry kGeometries[] = {
    {"l1i", 4 * 1024, 64, 8},
    {"l1d", 32 * 1024, 64, 8},
    {"l2", 512 * 1024, 64, 8},
    {"small", 1024, 64, 2},
};

enum class Stream { kSequential, kConflict, kRandom };
constexpr Stream kStreams[] = {Stream::kSequential, Stream::kConflict, Stream::kRandom};

// Seeded address streams over a region several times the cache size.
std::vector<uint64_t> MakeStream(Stream kind, const CacheGeometry& g, uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  const uint64_t region = uint64_t{g.size} * 4;
  const uint64_t set_stride = uint64_t{g.size} / g.ways;  // num_sets * line
  std::vector<uint64_t> out;
  out.reserve(n);
  uint64_t pc = 0;
  while (out.size() < n) {
    switch (kind) {
      case Stream::kSequential:  // fetch-like: runs of 1-15 byte instructions, then a jump
        if (rng() % 32 == 0) {
          pc = rng() % region;
        }
        out.push_back(pc);
        pc += 1 + rng() % 15;
        break;
      case Stream::kConflict:  // four sets, each hit by twice as many lines as it has ways
        out.push_back((rng() % 4) * g.line + (rng() % (2 * g.ways)) * set_stride);
        break;
      case Stream::kRandom:
        out.push_back(rng() % region);
        break;
    }
  }
  return out;
}

TEST(CacheModel, AccessMatchesTimestampLru) {
  constexpr size_t kAccesses = 100000;
  uint64_t seed = 1;
  for (const CacheGeometry& g : kGeometries) {
    for (Stream kind : kStreams) {
      SCOPED_TRACE(testing::Message() << g.name << " stream " << static_cast<int>(kind));
      CacheModel cache(g.size, g.line, g.ways);
      TimestampLru ref(g.size, g.line, g.ways);
      std::vector<uint64_t> addrs = MakeStream(kind, g, seed++, kAccesses);
      size_t hits = 0;
      for (size_t i = 0; i < addrs.size(); i++) {
        if (i == addrs.size() / 2) {
          cache.Reset();
          ref.Reset();
        }
        bool want = ref.Access(addrs[i]);
        ASSERT_EQ(cache.Access(addrs[i]), want) << "access " << i << " at 0x" << std::hex << addrs[i];
        hits += want ? 1 : 0;
      }
      EXPECT_GT(hits, 0u);  // a stream that only hits or only misses proves nothing
      EXPECT_LT(hits, addrs.size());
    }
  }
}

TEST(CacheModel, AccessRangeMatchesTimestampLru) {
  constexpr size_t kRanges = 50000;
  uint64_t seed = 100;
  for (const CacheGeometry& g : kGeometries) {
    for (Stream kind : kStreams) {
      SCOPED_TRACE(testing::Message() << g.name << " stream " << static_cast<int>(kind));
      CacheModel cache(g.size, g.line, g.ways);
      TimestampLru ref(g.size, g.line, g.ways);
      std::vector<uint64_t> addrs = MakeStream(kind, g, seed++, kRanges);
      std::mt19937_64 sizes(seed);
      for (size_t i = 0; i < addrs.size(); i++) {
        uint32_t size = 1 + static_cast<uint32_t>(sizes() % 200);  // spans 1-5 lines
        uint32_t want = ref.AccessRange(addrs[i], size);
        ASSERT_EQ(cache.AccessRange(addrs[i], size), want) << "range " << i;
      }
    }
  }
}

TEST(EncodedSize, RoughlyX86Shaped) {
  EXPECT_EQ(EncodedSize(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 4)), 2u);
  EXPECT_EQ(EncodedSize(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 8)), 3u);  // +REX.W
  MInstr movimm = MInstr::RI(MOp::kMovImm64, Gpr::kRax, 1ll << 40, 8);
  EXPECT_EQ(EncodedSize(movimm), 10u);
  MInstr ret;
  ret.op = MOp::kRet;
  EXPECT_EQ(EncodedSize(ret), 1u);
  // Memory operand with big displacement costs more than reg-reg.
  MInstr ld = MInstr::RM(MOp::kLoad, Gpr::kRax, MemRef::BaseDisp(Gpr::kRbx, 0x10000), 8);
  EXPECT_GT(EncodedSize(ld), 5u);
}

TEST(MProgram, LinkAssignsAlignedBases) {
  MProgram prog;
  MFunction a;
  a.name = "a";
  a.code.push_back(MInstr::RR(MOp::kAdd, Gpr::kRax, Gpr::kRbx, 4));
  MInstr ret;
  ret.op = MOp::kRet;
  a.code.push_back(ret);
  prog.funcs.push_back(a);
  prog.funcs.push_back(a);
  prog.Link();
  EXPECT_EQ(prog.funcs[0].code_base, 0u);
  EXPECT_EQ(prog.funcs[1].code_base % 16, 0u);
  EXPECT_GT(prog.total_code_bytes, 0u);
}

// Builds a tiny hand-assembled program: f(x) = x*2 + 5 with x in rdi.
TEST(SimMachine, HandAssembledProgram) {
  MProgram prog;
  MFunction f;
  f.name = "f";
  f.code.push_back(MInstr::RR(MOp::kMov, Gpr::kRax, Gpr::kRdi, 8));
  MInstr shl;
  shl.op = MOp::kShl;
  shl.dst = Operand::R(Gpr::kRax);
  shl.src2 = Operand::Imm(1);
  shl.width = 8;
  f.code.push_back(shl);
  f.code.push_back(MInstr::RI(MOp::kAdd, Gpr::kRax, 5, 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult r = m.Run(0, {21});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_i, 47u);
  EXPECT_EQ(m.counters().instructions_retired, 4u);
}

TEST(SimMachine, CountersDistinguishLoadsAndStores) {
  MProgram prog;
  prog.memory_pages = 1;
  MFunction f;
  // store [heap+8] <- rdi ; load rax <- [heap+8] ; ret
  f.code.push_back(MInstr::MR(MOp::kStore, MemRef::Abs(static_cast<int32_t>(kHeapBase) + 8),
                              Gpr::kRdi, 8));
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::Abs(static_cast<int32_t>(kHeapBase) + 8), 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult r = m.Run(0, {0xabcdef});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ret_i, 0xabcdefu);
  EXPECT_EQ(m.counters().loads_retired, 1u);
  EXPECT_EQ(m.counters().stores_retired, 1u);
  EXPECT_GE(m.counters().l1d_misses, 1u);  // cold
}

TEST(SimMachine, DivisionTrapsAndConvention) {
  MProgram prog;
  MFunction f;
  // rax = rdi; cdq; idiv rsi -> quotient rax
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
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  MachineResult ok = m.Run(0, {100, 7});
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.ret_i & 0xffffffff, 14u);
  SimMachine m2(&prog);
  MachineResult bad = m2.Run(0, {100, 0});
  EXPECT_EQ(bad.trap, TrapKind::kDivByZero);
  SimMachine m3(&prog);
  MachineResult ovf = m3.Run(0, {0x80000000ull, static_cast<uint64_t>(-1) & 0xffffffff});
  EXPECT_EQ(ovf.trap, TrapKind::kIntegerOverflow);
}

TEST(SimMachine, OutOfBoundsAccessTraps) {
  MProgram prog;
  prog.memory_pages = 1;  // 64 KiB heap
  MFunction f;
  f.code.push_back(MInstr::RM(MOp::kLoad, Gpr::kRax,
                              MemRef::BaseDisp(Gpr::kRdi, static_cast<int32_t>(kHeapBase)), 8));
  MInstr ret;
  ret.op = MOp::kRet;
  f.code.push_back(ret);
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  EXPECT_TRUE(m.Run(0, {0}).ok);
  SimMachine m2(&prog);
  EXPECT_EQ(m2.Run(0, {65536}).trap, TrapKind::kMemoryOutOfBounds);
}

TEST(SimMachine, FuelLimitStopsRunaway) {
  MProgram prog;
  MFunction f;
  f.code.push_back(MInstr::Jump(0));  // infinite loop
  prog.funcs.push_back(std::move(f));
  prog.Link();
  SimMachine m(&prog);
  m.set_fuel(1000);
  EXPECT_EQ(m.Run(0).trap, TrapKind::kFuelExhausted);
}

TEST(SimMachine, TakenBranchesCostMore) {
  // Loop with taken back-edges vs straight-line code of the same length.
  auto build = [](bool loop) {
    MProgram prog;
    MFunction f;
    f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRax, 0, 8));
    f.code.push_back(MInstr::RI(MOp::kMov, Gpr::kRcx, 100, 8));
    // L: dec rcx (sub 1); cmp; jne L
    f.code.push_back(MInstr::RI(MOp::kSub, Gpr::kRcx, 1, 8));
    f.code.push_back(MInstr::RI(MOp::kCmp, Gpr::kRcx, 0, 8));
    f.code.push_back(MInstr::JumpCc(Cond::kNe, loop ? 2 : 5));
    MInstr ret;
    ret.op = MOp::kRet;
    f.code.push_back(ret);
    prog.funcs.push_back(std::move(f));
    prog.Link();
    return prog;
  };
  MProgram looped = build(true);
  SimMachine m(&looped);
  ASSERT_TRUE(m.Run(0).ok);
  EXPECT_EQ(m.counters().taken_branches, 99u);
  EXPECT_EQ(m.counters().cond_branches_retired, 100u);
}

}  // namespace
}  // namespace nsf
