#include "src/codegen/regalloc.h"

#include <algorithm>
#include <bit>

namespace nsf {

namespace {

// Universal exclusions: rsp/rbp (frame), rax/rdx (division + return),
// rcx (shift counts), r10/r11 (emission scratch).
bool UniversallyExcluded(Gpr g) {
  switch (g) {
    case Gpr::kRsp:
    case Gpr::kRbp:
    case Gpr::kRax:
    case Gpr::kRdx:
    case Gpr::kRcx:
    case Gpr::kR10:
    case Gpr::kR11:
      return true;
    default:
      return false;
  }
}

// xmm0 (return), xmm14/xmm15 (emission scratch).
bool UniversallyExcludedXmm(Xmm x) {
  return x == Xmm::kXmm0 || x == Xmm::kXmm14 || x == Xmm::kXmm15;
}

}  // namespace

std::vector<Gpr> AllocatableGprs(const CodegenOptions& options) {
  std::vector<Gpr> pool;
  for (int i = 0; i < kNumGprs; i++) {
    Gpr g = static_cast<Gpr>(i);
    if (UniversallyExcluded(g)) {
      continue;
    }
    if (!options.heap_base_in_disp && g == options.heap_base_reg) {
      continue;
    }
    bool reserved = false;
    for (Gpr r : options.reserved_gprs) {
      reserved = reserved || r == g;
    }
    if (!reserved) {
      pool.push_back(g);
    }
  }
  return pool;
}

std::vector<Xmm> AllocatableXmms(const CodegenOptions& options) {
  std::vector<Xmm> pool;
  for (int i = 0; i < kNumXmms; i++) {
    Xmm x = static_cast<Xmm>(i);
    if (UniversallyExcludedXmm(x)) {
      continue;
    }
    bool reserved = false;
    for (Xmm r : options.reserved_xmms) {
      reserved = reserved || r == x;
    }
    if (!reserved) {
      pool.push_back(x);
    }
  }
  return pool;
}

Liveness ComputeLiveness(const VFunc& vf) {
  const size_t n = vf.ops.size();
  const uint32_t words = static_cast<uint32_t>((vf.vregs.size() + 63) / 64);
  Liveness lv;
  lv.words = words;
  lv.bits.assign(n * words, 0);
  if (lv.bits.empty()) {
    return lv;
  }

  // Basic blocks: block b spans ops [start[b], start[b + 1]).
  constexpr uint32_t kNone = UINT32_MAX;
  auto ends_block = [](const VOp& op) {
    return op.k == VOp::K::kBr || op.k == VOp::K::kBrIf || op.k == VOp::K::kBrCmp ||
           op.k == VOp::K::kRet || op.k == VOp::K::kTrap;
  };
  std::vector<uint32_t> start;
  std::vector<uint32_t> label_block(vf.next_label, kNone);
  for (size_t i = 0; i < n; i++) {
    const VOp& op = vf.ops[i];
    if (i == 0 || op.k == VOp::K::kLabel || ends_block(vf.ops[i - 1])) {
      start.push_back(static_cast<uint32_t>(i));
    }
    if (op.k == VOp::K::kLabel) {
      label_block[op.label] = static_cast<uint32_t>(start.size() - 1);
    }
  }
  const size_t nb = start.size();
  start.push_back(static_cast<uint32_t>(n));

  // The successors of a block's last op: a jump's target; a conditional
  // branch's target and the next op; nothing after a return or trap; the next
  // op after anything else.
  auto succs = [&](size_t b, uint32_t out[2]) -> int {
    const VOp& op = vf.ops[start[b + 1] - 1];
    const bool has_next = b + 1 < nb;
    int count = 0;
    switch (op.k) {
      case VOp::K::kBr:
        out[count++] = label_block[op.label];
        break;
      case VOp::K::kBrIf:
      case VOp::K::kBrCmp:
        out[count++] = label_block[op.label];
        if (has_next) {
          out[count++] = static_cast<uint32_t>(b + 1);
        }
        break;
      case VOp::K::kRet:
      case VOp::K::kTrap:
        break;
      default:
        if (has_next) {
          out[count++] = static_cast<uint32_t>(b + 1);
        }
        break;
    }
    return count;
  };
  auto set = [](uint64_t* row, uint32_t v) { row[v / 64] |= uint64_t{1} << (v % 64); };

  // gen: vregs read before any def in the block; kill: vregs the block defines.
  std::vector<uint64_t> gen(nb * words, 0);
  std::vector<uint64_t> kill(nb * words, 0);
  for (size_t b = 0; b < nb; b++) {
    uint64_t* g = gen.data() + b * words;
    uint64_t* k = kill.data() + b * words;
    for (uint32_t i = start[b]; i < start[b + 1]; i++) {
      const VOp& op = vf.ops[i];
      ForEachUse(op, [g, k, &set](uint32_t v) {
        if (((k[v / 64] >> (v % 64)) & 1) == 0) {
          set(g, v);
        }
      });
      uint32_t d = DefOf(op);
      if (d != kNoVReg) {
        set(k, d);
      }
    }
  }

  // Least fixpoint of live_in(b) = gen(b) | (live_out(b) & ~kill(b)), where
  // live_out(b) is the union of its successors' live_in.
  std::vector<uint64_t> in(nb * words, 0);
  std::vector<uint64_t> live(words);
  auto block_out = [&](size_t b) {
    std::fill(live.begin(), live.end(), 0);
    uint32_t sc[2];
    int ns = succs(b, sc);
    for (int s = 0; s < ns; s++) {
      const uint64_t* si = in.data() + size_t{sc[s]} * words;
      for (uint32_t w = 0; w < words; w++) {
        live[w] |= si[w];
      }
    }
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t bb = nb; bb > 0; bb--) {
      size_t b = bb - 1;
      block_out(b);
      for (uint32_t w = 0; w < words; w++) {
        uint64_t x = gen[b * words + w] | (live[w] & ~kill[b * words + w]);
        if (x != in[b * words + w]) {
          in[b * words + w] = x;
          changed = true;
        }
      }
    }
  }

  // One backward walk per block from its live-out gives every op's live-out.
  for (size_t b = 0; b < nb; b++) {
    block_out(b);
    for (uint32_t i = start[b + 1]; i > start[b]; i--) {
      const VOp& op = vf.ops[i - 1];
      std::copy(live.begin(), live.end(), lv.bits.data() + size_t{i - 1} * words);
      uint32_t d = DefOf(op);
      if (d != kNoVReg) {
        live[d / 64] &= ~(uint64_t{1} << (d % 64));
      }
      ForEachUse(op, [&live, &set](uint32_t v) { set(live.data(), v); });
    }
  }
  return lv;
}

namespace {

struct Interval {
  uint32_t vreg = 0;
  uint32_t start = 0;
  uint32_t end = 0;
  uint32_t weight = 0;  // spill-cost proxy: def + use count
  bool is_fp = false;
};

// Builds whole-function live intervals from per-op liveness.
std::vector<Interval> BuildIntervals(const VFunc& vf, const Liveness& lv) {
  const uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> first(vf.vregs.size(), kNone);
  std::vector<uint32_t> last(vf.vregs.size(), 0);
  std::vector<uint32_t> weight(vf.vregs.size(), 0);
  auto touch = [&](uint32_t v, uint32_t i) {
    if (first[v] == kNone) {
      first[v] = i;
    }
    first[v] = std::min(first[v], i);
    last[v] = std::max(last[v], i);
  };
  for (uint32_t i = 0; i < vf.ops.size(); i++) {
    const VOp& op = vf.ops[i];
    uint32_t d = DefOf(op);
    if (d != kNoVReg) {
      touch(d, i);
      weight[d]++;
    }
    ForEachUse(op, [&](uint32_t v) {
      touch(v, i);
      weight[v]++;
    });
    const uint64_t* out = lv.out(i);
    for (uint32_t w = 0; w < lv.words; w++) {
      uint64_t bits = out[w];
      while (bits != 0) {
        uint32_t bit = static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        touch(w * 64 + bit, i + 1);
      }
    }
  }
  std::vector<Interval> out;
  for (uint32_t v = 0; v < vf.vregs.size(); v++) {
    if (first[v] == kNone) {
      continue;
    }
    Interval iv;
    iv.vreg = v;
    iv.start = first[v];
    iv.end = last[v];
    iv.weight = weight[v];
    iv.is_fp = vf.vregs[v].is_fp;
    out.push_back(iv);
  }
  return out;
}

// --- Linear scan (per class) ---
void LinearScanClass(std::vector<Interval> intervals, uint32_t num_regs,
                     std::vector<int32_t>* loc, uint32_t* next_slot,
                     std::vector<bool>* used_regs, uint32_t* spills) {
  std::sort(intervals.begin(), intervals.end(), [](const Interval& a, const Interval& b) {
    return a.start < b.start || (a.start == b.start && a.vreg < b.vreg);
  });
  struct Active {
    uint32_t end;
    uint32_t vreg;
    uint32_t reg;
  };
  std::vector<Active> active;  // kept sorted by end
  std::vector<bool> free_reg(num_regs, true);

  for (const Interval& iv : intervals) {
    // Expire old intervals.
    size_t keep = 0;
    for (size_t i = 0; i < active.size(); i++) {
      if (active[i].end >= iv.start) {
        active[keep++] = active[i];
      } else {
        free_reg[active[i].reg] = true;
      }
    }
    active.resize(keep);
    // Find a free register.
    int32_t reg = -1;
    for (uint32_t r = 0; r < num_regs; r++) {
      if (free_reg[r]) {
        reg = static_cast<int32_t>(r);
        break;
      }
    }
    if (reg >= 0) {
      free_reg[reg] = false;
      (*used_regs)[reg] = true;
      (*loc)[iv.vreg] = reg;
      active.push_back(Active{iv.end, iv.vreg, static_cast<uint32_t>(reg)});
      std::sort(active.begin(), active.end(),
                [](const Active& a, const Active& b) { return a.end < b.end; });
      continue;
    }
    // Spill: the active interval with the furthest end, or this one.
    Active* victim = active.empty() ? nullptr : &active.back();
    if (victim != nullptr && victim->end > iv.end) {
      (*loc)[iv.vreg] = (*loc)[victim->vreg];
      (*loc)[victim->vreg] = -2 - static_cast<int32_t>((*next_slot)++);
      (*spills)++;
      victim->vreg = iv.vreg;
      victim->end = iv.end;
      std::sort(active.begin(), active.end(),
                [](const Active& a, const Active& b) { return a.end < b.end; });
    } else {
      (*loc)[iv.vreg] = -2 - static_cast<int32_t>((*next_slot)++);
      (*spills)++;
    }
  }
}

// --- Graph coloring (per class) ---

// A square bit matrix with a set-bit count per row: the interference graph's
// adjacency sets over one class's nodes.
class BitMatrix {
 public:
  explicit BitMatrix(size_t n) : words_((n + 63) / 64), bits_(n * words_, 0), degree_(n, 0) {}

  bool Has(uint32_t r, uint32_t c) const {
    return ((bits_[r * words_ + c / 64] >> (c % 64)) & 1) != 0;
  }
  void Insert(uint32_t r, uint32_t c) {
    uint64_t& w = bits_[r * words_ + c / 64];
    const uint64_t m = uint64_t{1} << (c % 64);
    if ((w & m) == 0) {
      w |= m;
      degree_[r]++;
    }
  }
  uint32_t Degree(uint32_t r) const { return degree_[r]; }
  // Calls fn(c) for each c in row r, ascending.
  template <typename Fn>
  void ForEach(uint32_t r, Fn&& fn) const {
    const uint64_t* row = bits_.data() + r * words_;
    for (size_t w = 0; w < words_; w++) {
      uint64_t bits = row[w];
      while (bits != 0) {
        fn(static_cast<uint32_t>(w * 64 + std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  }

 private:
  size_t words_;
  std::vector<uint64_t> bits_;
  std::vector<uint32_t> degree_;
};

void GraphColorClass(const VFunc& vf, const Liveness& lv, const std::vector<Interval>& intervals,
                     bool fp_class, uint32_t num_regs, std::vector<int32_t>* loc,
                     uint32_t* next_slot, std::vector<bool>* used_regs, uint32_t* spills) {
  // Node set: vregs of this class that appear.
  std::vector<uint32_t> nodes;
  std::vector<int32_t> node_of(vf.vregs.size(), -1);
  for (const Interval& iv : intervals) {
    node_of[iv.vreg] = static_cast<int32_t>(nodes.size());
    nodes.push_back(iv.vreg);
  }
  const uint32_t nn = static_cast<uint32_t>(nodes.size());
  BitMatrix adj(nn);
  std::vector<uint32_t> weight(nn, 0);
  for (uint32_t i = 0; i < nn; i++) {
    weight[i] = intervals[i].weight;
  }

  // Def interferes with live-out (minus move sources — allows coalescing).
  for (size_t i = 0; i < vf.ops.size(); i++) {
    const VOp& op = vf.ops[i];
    uint32_t d = DefOf(op);
    if (d == kNoVReg || vf.vregs[d].is_fp != fp_class || node_of[d] < 0) {
      continue;
    }
    uint32_t dn = static_cast<uint32_t>(node_of[d]);
    uint32_t move_src = op.k == VOp::K::kMove ? op.a : kNoVReg;
    const uint64_t* out = lv.out(i);
    for (uint32_t w = 0; w < lv.words; w++) {
      uint64_t bits = out[w];
      while (bits != 0) {
        uint32_t bit = static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        uint32_t v = w * 64 + bit;
        if (v != d && v != move_src && vf.vregs[v].is_fp == fp_class && node_of[v] >= 0) {
          uint32_t vn = static_cast<uint32_t>(node_of[v]);
          adj.Insert(dn, vn);
          adj.Insert(vn, dn);
        }
      }
    }
  }

  // Conservative move coalescing (Briggs): merge move-related nodes when the
  // merged node has < num_regs high-degree neighbors. A merged node's row
  // keeps its members' old neighbors, which may since have merged too; the
  // degree tests count those stale entries.
  std::vector<int32_t> merged_into(nn, -1);
  auto find = [&merged_into](uint32_t x) {
    while (merged_into[x] >= 0) {
      x = static_cast<uint32_t>(merged_into[x]);
    }
    return x;
  };
  std::vector<uint32_t> seen(nn, 0);  // seen[r] == stamp: r counted in this test
  uint32_t stamp = 0;
  for (const VOp& op : vf.ops) {
    if (op.k != VOp::K::kMove || op.a == kNoVReg) {
      continue;
    }
    if (vf.vregs[op.d].is_fp != fp_class || node_of[op.d] < 0 || node_of[op.a] < 0) {
      continue;
    }
    uint32_t x = find(static_cast<uint32_t>(node_of[op.d]));
    uint32_t y = find(static_cast<uint32_t>(node_of[op.a]));
    if (x == y || adj.Has(x, y)) {
      continue;
    }
    // Briggs test on the union: count the distinct high-degree
    // representatives among both nodes' neighbors.
    stamp++;
    uint32_t high = 0;
    auto count_high = [&](uint32_t t) {
      uint32_t r = find(t);
      if (r != x && r != y && seen[r] != stamp) {
        seen[r] = stamp;
        high += adj.Degree(r) >= num_regs ? 1 : 0;
      }
    };
    adj.ForEach(x, count_high);
    adj.ForEach(y, count_high);
    if (high >= num_regs) {
      continue;
    }
    // Merge y into x.
    merged_into[y] = static_cast<int32_t>(x);
    adj.ForEach(y, [&](uint32_t t) {
      uint32_t tt = find(t);
      if (tt != x) {
        adj.Insert(x, tt);
        adj.Insert(tt, x);
      }
    });
    weight[x] += weight[y];
  }

  // Rebuild adjacency over representatives.
  std::vector<uint32_t> rep(nn);
  for (uint32_t i = 0; i < nn; i++) {
    rep[i] = find(i);
  }
  BitMatrix radj(nn);
  for (uint32_t i = 0; i < nn; i++) {
    adj.ForEach(i, [&](uint32_t t) {
      if (rep[i] != rep[t]) {
        radj.Insert(rep[i], rep[t]);
        radj.Insert(rep[t], rep[i]);
      }
    });
  }

  // Chaitin-Briggs simplify/spill with optimistic coloring. degree[r] counts
  // r's neighbors still in the graph.
  std::vector<uint32_t> reps;
  std::vector<uint32_t> degree(nn, 0);
  for (uint32_t i = 0; i < nn; i++) {
    if (rep[i] == i) {
      reps.push_back(i);
    }
    degree[i] = radj.Degree(i);
  }
  std::vector<bool> removed(nn, false);
  std::vector<uint32_t> stack;
  size_t remaining = reps.size();
  auto remove_node = [&](uint32_t r) {
    stack.push_back(r);
    removed[r] = true;
    remaining--;
    radj.ForEach(r, [&degree](uint32_t t) { degree[t]--; });
  };
  while (remaining > 0) {
    bool simplified = false;
    for (uint32_t r : reps) {
      if (!removed[r] && degree[r] < num_regs) {
        remove_node(r);
        simplified = true;
      }
    }
    if (simplified) {
      continue;
    }
    // Pick a spill candidate: lowest weight / degree ratio.
    uint32_t best = UINT32_MAX;
    double best_score = 0;
    for (uint32_t r : reps) {
      if (removed[r]) {
        continue;
      }
      double score = static_cast<double>(weight[r]) / (1.0 + degree[r]);
      if (best == UINT32_MAX || score < best_score) {
        best = r;
        best_score = score;
      }
    }
    remove_node(best);
  }

  // Optimistic assignment.
  std::vector<int32_t> color(nn, -1);
  std::vector<bool> taken(num_regs);
  while (!stack.empty()) {
    uint32_t r = stack.back();
    stack.pop_back();
    std::fill(taken.begin(), taken.end(), false);
    radj.ForEach(r, [&](uint32_t t) {
      if (color[t] >= 0) {
        taken[color[t]] = true;
      }
    });
    int32_t c = -1;
    for (uint32_t k = 0; k < num_regs; k++) {
      if (!taken[k]) {
        c = static_cast<int32_t>(k);
        break;
      }
    }
    color[r] = c;  // -1 -> spilled
  }

  // Write assignments back through the union-find; a spilled
  // representative's members share one slot.
  std::vector<int32_t> rep_slot(nn, -1);  // -1: no slot yet
  for (uint32_t i = 0; i < nn; i++) {
    uint32_t r = rep[i];
    int32_t c = color[r];
    if (c >= 0) {
      (*loc)[nodes[i]] = c;
      (*used_regs)[c] = true;
    } else {
      if (rep_slot[r] == -1) {
        rep_slot[r] = -2 - static_cast<int32_t>((*next_slot)++);
        (*spills)++;
      }
      (*loc)[nodes[i]] = rep_slot[r];
    }
  }
}

}  // namespace

Allocation AllocateRegisters(const VFunc& vf, const CodegenOptions& options) {
  Liveness lv = ComputeLiveness(vf);
  std::vector<Interval> all = BuildIntervals(vf, lv);
  std::vector<Interval> ints;
  std::vector<Interval> fps;
  for (const Interval& iv : all) {
    (iv.is_fp ? fps : ints).push_back(iv);
  }

  std::vector<Gpr> gpr_pool = AllocatableGprs(options);
  std::vector<Xmm> xmm_pool = AllocatableXmms(options);

  Allocation alloc;
  alloc.loc.assign(vf.vregs.size(), -1);
  std::vector<bool> gpr_used(gpr_pool.size(), false);
  std::vector<bool> xmm_used(xmm_pool.size(), false);
  std::vector<int32_t> pool_loc(vf.vregs.size(), -1);

  if (options.regalloc == RegAllocKind::kLinearScan) {
    LinearScanClass(ints, static_cast<uint32_t>(gpr_pool.size()), &pool_loc, &alloc.num_slots,
                    &gpr_used, &alloc.num_spilled_vregs);
    LinearScanClass(fps, static_cast<uint32_t>(xmm_pool.size()), &pool_loc, &alloc.num_slots,
                    &xmm_used, &alloc.num_spilled_vregs);
  } else {
    GraphColorClass(vf, lv, ints, false, static_cast<uint32_t>(gpr_pool.size()), &pool_loc,
                    &alloc.num_slots, &gpr_used, &alloc.num_spilled_vregs);
    GraphColorClass(vf, lv, fps, true, static_cast<uint32_t>(xmm_pool.size()), &pool_loc,
                    &alloc.num_slots, &xmm_used, &alloc.num_spilled_vregs);
  }

  // Translate pool indices to machine register ids.
  for (uint32_t v = 0; v < vf.vregs.size(); v++) {
    int32_t p = pool_loc[v];
    if (p == -1 || p <= -2) {
      alloc.loc[v] = p;
      continue;
    }
    if (vf.vregs[v].is_fp) {
      alloc.loc[v] = static_cast<int32_t>(xmm_pool[p]);
    } else {
      alloc.loc[v] = static_cast<int32_t>(gpr_pool[p]);
    }
  }
  for (size_t i = 0; i < gpr_pool.size(); i++) {
    if (gpr_used[i]) {
      alloc.used_gprs.push_back(gpr_pool[i]);
    }
  }
  for (size_t i = 0; i < xmm_pool.size(); i++) {
    if (xmm_used[i]) {
      alloc.used_xmms.push_back(xmm_pool[i]);
    }
  }
  return alloc;
}

}  // namespace nsf
