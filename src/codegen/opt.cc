// IR optimization passes. Which passes run is profile-dependent:
//   - loop rotation (native): top-test loops become bottom-test loops with a
//     single conditional branch per iteration (the Clang shape of Figure 7b);
//   - addressing fusion (native): add/shl address arithmetic folds into
//     [base + index*scale + disp] memory operands;
//   - copy propagation + dead-code elimination (both; JIT engines also run
//     these in their optimizing tiers).
#include "src/codegen/opt.h"

#include <algorithm>
#include <unordered_map>

namespace nsf {

namespace {

// Recomputes per-vreg use counts.
std::vector<uint32_t> CountUses(const VFunc& vf) {
  std::vector<uint32_t> uses(vf.vregs.size(), 0);
  for (const VOp& op : vf.ops) {
    ForEachUse(op, [&uses](uint32_t v) { uses[v]++; });
  }
  return uses;
}

std::vector<uint32_t> CountDefs(const VFunc& vf) {
  std::vector<uint32_t> defs(vf.vregs.size(), 0);
  for (const VOp& op : vf.ops) {
    uint32_t d = DefOf(op);
    if (d != kNoVReg) {
      defs[d]++;
    }
  }
  return defs;
}

}  // namespace

void DeadCodeElim(VFunc* vf) {
  // Iterate to fixpoint: removing a pure op may kill its operands' last uses.
  bool changed = true;
  while (changed) {
    std::vector<uint32_t> uses = CountUses(*vf);
    auto dead = std::remove_if(vf->ops.begin(), vf->ops.end(), [&uses](const VOp& op) {
      uint32_t d = DefOf(op);
      return d != kNoVReg && uses[d] == 0 && IsPure(op);
    });
    changed = dead != vf->ops.end();
    vf->ops.erase(dead, vf->ops.end());
  }
}

void CopyPropagate(VFunc* vf) {
  // Forward-propagates `d = Move a` when both d and a are single-def (SSA-ish
  // values produced by lowering; Wasm locals are multi-def and excluded).
  std::vector<uint32_t> defs = CountDefs(*vf);
  std::unordered_map<uint32_t, uint32_t> alias;  // d -> a
  for (const VOp& op : vf->ops) {
    if (op.k == VOp::K::kMove && defs[op.d] == 1 && defs[op.a] == 1) {
      uint32_t root = op.a;
      auto it = alias.find(root);
      if (it != alias.end()) {
        root = it->second;
      }
      alias[op.d] = root;
    }
  }
  if (alias.empty()) {
    return;
  }
  auto resolve = [&alias](uint32_t v) {
    auto it = alias.find(v);
    return it == alias.end() ? v : it->second;
  };
  for (VOp& op : vf->ops) {
    op.a = op.a == kNoVReg ? op.a : resolve(op.a);
    op.b = op.b == kNoVReg ? op.b : resolve(op.b);
    op.c = op.c == kNoVReg ? op.c : resolve(op.c);
    for (uint32_t& v : op.args) {
      v = resolve(v);
    }
  }
  DeadCodeElim(vf);
}

void RotateLoops(VFunc* vf) {
  RotateLoopsIf(vf, [](uint32_t) { return true; });
}

void RotateLoopsIf(VFunc* vf, const std::function<bool(uint32_t)>& pred) {
  // Pattern:
  //   Label(H) ; <pure test region> ; BrCmp(E,...) ; body ; Br(H) ; Label(E)
  // becomes
  //   <test region> ; BrCmp(E,...) ; Label(H) ; body ;
  //   <test region'> ; BrCmp(H, !cond) ; Label(E)
  // All other branches to H or E are left valid (H stays a label; E stays).
  // Requires: exactly one branch targets H (the back edge).
  std::vector<VOp>& ops = vf->ops;
  // Count branch targets.
  std::unordered_map<uint32_t, uint32_t> target_count;
  for (const VOp& op : ops) {
    if (op.k == VOp::K::kBr || op.k == VOp::K::kBrIf || op.k == VOp::K::kBrCmp) {
      target_count[op.label]++;
    }
  }
  for (size_t h = 0; h < ops.size(); h++) {
    if (ops[h].k != VOp::K::kLabel) {
      continue;
    }
    uint32_t header = ops[h].label;
    if (!pred(header)) {
      continue;
    }
    // Collect the pure test region.
    size_t t = h + 1;
    while (t < ops.size() && IsPure(ops[t])) {
      t++;
    }
    if (t >= ops.size() || ops[t].k != VOp::K::kBrCmp) {
      continue;
    }
    uint32_t exit_label = ops[t].label;
    if (target_count[header] != 1) {
      continue;  // multiple back edges / continues; keep simple shape
    }
    // Find the back edge Br(header) followed by Label(exit), possibly with
    // intervening structural labels (the Wasm loop's own end label).
    size_t back = t + 1;
    bool found = false;
    for (; back + 1 < ops.size(); back++) {
      if (ops[back].k == VOp::K::kBr && ops[back].label == header) {
        size_t look = back + 1;
        while (look < ops.size() && ops[look].k == VOp::K::kLabel) {
          if (ops[look].label == exit_label) {
            found = true;
            break;
          }
          look++;
        }
        if (found) {
          break;
        }
      }
    }
    if (!found) {
      continue;
    }
    // Build the rotated sequence.
    std::vector<VOp> test_region(ops.begin() + h + 1, ops.begin() + t);
    VOp exit_br = ops[t];
    VOp bottom_br = exit_br;
    bottom_br.cond = NegateCond(exit_br.cond);
    bottom_br.label = header;

    // The bottom copy of the test region re-defines the same vregs as the
    // entry copy, which turns short SSA-ish intervals into multi-def live
    // ranges spanning the whole loop — pressure a linear-scan allocator
    // answers with hot-loop spills. When every test-region def is consumed
    // only inside the region (plus the branch itself), rename the bottom
    // copy's defs to fresh vregs so both copies stay short-lived.
    std::vector<VOp> bottom_region = test_region;
    {
      std::vector<uint32_t> total_uses(vf->vregs.size(), 0);
      for (const VOp& op : ops) {
        ForEachUse(op, [&total_uses](uint32_t v) { total_uses[v]++; });
      }
      std::vector<uint32_t> local_uses(vf->vregs.size(), 0);
      for (const VOp& op : test_region) {
        ForEachUse(op, [&local_uses](uint32_t v) { local_uses[v]++; });
      }
      ForEachUse(exit_br, [&local_uses](uint32_t v) { local_uses[v]++; });
      bool renameable = true;
      for (const VOp& op : test_region) {
        uint32_t d = DefOf(op);
        if (d != kNoVReg && total_uses[d] != local_uses[d]) {
          renameable = false;
          break;
        }
      }
      if (renameable) {
        std::unordered_map<uint32_t, uint32_t> rename;
        auto fix = [&rename](uint32_t& v) {
          auto it = rename.find(v);
          if (it != rename.end()) {
            v = it->second;
          }
        };
        for (VOp& op : bottom_region) {
          if (op.a != kNoVReg) fix(op.a);
          if (op.b != kNoVReg) fix(op.b);
          if (op.c != kNoVReg) fix(op.c);
          for (uint32_t& v : op.args) {
            fix(v);
          }
          uint32_t d = DefOf(op);
          if (d != kNoVReg) {
            uint32_t nd = vf->NewVReg(vf->vregs[d].is_fp, vf->vregs[d].width);
            rename[d] = nd;
            op.d = nd;
          }
        }
        if (bottom_br.a != kNoVReg) fix(bottom_br.a);
        if (bottom_br.b != kNoVReg) fix(bottom_br.b);
      }
    }

    std::vector<VOp> rotated;
    rotated.reserve(ops.size() + test_region.size() + 2);
    // Prefix.
    rotated.insert(rotated.end(), ops.begin(), ops.begin() + h);
    // Entry guard.
    rotated.insert(rotated.end(), test_region.begin(), test_region.end());
    rotated.push_back(exit_br);
    // Header label + body.
    VOp lbl;
    lbl.k = VOp::K::kLabel;
    lbl.label = header;
    rotated.push_back(lbl);
    rotated.insert(rotated.end(), ops.begin() + t + 1, ops.begin() + back);
    // Bottom test.
    rotated.insert(rotated.end(), bottom_region.begin(), bottom_region.end());
    rotated.push_back(bottom_br);
    // Exit label and suffix.
    rotated.insert(rotated.end(), ops.begin() + back + 1, ops.end());
    ops = std::move(rotated);
    // Restart scanning after this loop (indices shifted).
    h += test_region.size() + 1;
  }
}

void PgoSinkColdBlocks(VFunc* vf, const FuncProfile& fp) {
  // An `if` lowers to `BrIf(!cond) -> else_label ; <then arm> ; ... ;
  // Label(else_label)`. When the profile says the branch-to-else fires
  // (essentially) always, the then-arm is cold: sink it to the function
  // tail behind a fresh label and invert the branch, so the common path
  // falls through without a taken branch and without fetching cold bytes.
  // Only straight-line arms (no internal labels) are moved; arms ending in
  // a fallthrough get an explicit jump back to the join point.
  constexpr uint64_t kMinExecutions = 16;
  constexpr double kMinTakenFraction = 0.9995;
  std::vector<VOp>& ops = vf->ops;
  std::vector<VOp> cold_tail;
  for (size_t i = 0; i < ops.size(); i++) {
    VOp& br = ops[i];
    if (br.k != VOp::K::kBrIf || !br.negate || br.psite == UINT32_MAX ||
        br.psite >= fp.branches.size()) {
      continue;
    }
    const BranchSiteProfile& site = fp.branches[br.psite];
    if (site.total() < kMinExecutions ||
        static_cast<double>(site.taken) <
            kMinTakenFraction * static_cast<double>(site.total())) {
      continue;
    }
    // The then-arm extends to the first label, which must be the branch
    // target (arms containing labels — nested control flow — stay put).
    size_t j = i + 1;
    while (j < ops.size() && ops[j].k != VOp::K::kLabel) {
      j++;
    }
    if (j >= ops.size() || ops[j].label != br.label || j == i + 1) {
      continue;
    }
    uint32_t cold_label = vf->NewLabel();
    VOp lbl;
    lbl.k = VOp::K::kLabel;
    lbl.label = cold_label;
    cold_tail.push_back(lbl);
    for (size_t k = i + 1; k < j; k++) {
      cold_tail.push_back(std::move(ops[k]));
    }
    const VOp& last = cold_tail.back();
    if (last.k != VOp::K::kBr && last.k != VOp::K::kRet && last.k != VOp::K::kTrap) {
      VOp back;
      back.k = VOp::K::kBr;
      back.label = br.label;
      cold_tail.push_back(back);
    }
    br.negate = false;
    br.label = cold_label;
    ops.erase(ops.begin() + i + 1, ops.begin() + j);
  }
  ops.insert(ops.end(), cold_tail.begin(), cold_tail.end());
}

void PgoDevirtualize(VFunc* vf, const FuncProfile& fp,
                     const std::function<int64_t(uint32_t, uint32_t)>& resolve) {
  bool any = false;
  for (const VOp& op : vf->ops) {
    if (op.k == VOp::K::kCallInd) {
      any = true;
      break;
    }
  }
  if (!any) {
    return;
  }
  std::vector<VOp> out;
  out.reserve(vf->ops.size() + 8);
  for (VOp& op : vf->ops) {
    uint32_t elem = 0;
    if (op.k != VOp::K::kCallInd || op.psite == UINT32_MAX ||
        op.psite >= fp.indirect_sites.size() ||
        !fp.indirect_sites[op.psite].Monomorphic(&elem)) {
      out.push_back(std::move(op));
      continue;
    }
    int64_t target = resolve(elem, op.sig);
    if (target < 0) {
      out.push_back(std::move(op));
      continue;
    }
    uint32_t kreg = vf->NewVReg(false, 4);
    uint32_t slow = vf->NewLabel();
    uint32_t join = vf->NewLabel();
    VOp c;
    c.k = VOp::K::kConst;
    c.d = kreg;
    c.imm = elem;
    c.width = 4;
    out.push_back(c);
    VOp guard;
    guard.k = VOp::K::kBrCmp;
    guard.a = op.a;
    guard.b = kreg;
    guard.cond = Cond::kNe;
    guard.width = 4;
    guard.label = slow;
    out.push_back(guard);
    VOp direct;
    direct.k = VOp::K::kCall;
    direct.func = static_cast<uint32_t>(target);
    direct.d = op.d;
    direct.args = op.args;
    direct.is_fp = op.is_fp;
    direct.width = op.width;
    out.push_back(direct);
    VOp br;
    br.k = VOp::K::kBr;
    br.label = join;
    out.push_back(br);
    VOp slbl;
    slbl.k = VOp::K::kLabel;
    slbl.label = slow;
    out.push_back(slbl);
    out.push_back(std::move(op));  // the polymorphic fallback
    VOp jlbl;
    jlbl.k = VOp::K::kLabel;
    jlbl.label = join;
    out.push_back(jlbl);
  }
  vf->ops = std::move(out);
}

void FuseAddressing(VFunc* vf) {
  // Folds, for single-use address chains feeding kLoad/kStore:
  //   t1 = shl idx, k        (k <= 3)
  //   t2 = add base, t1
  //   load [t2 + off]   =>   load [base + idx*(1<<k) + off]
  // plus the simpler    t2 = add base, idx  =>  [base + idx*1 + off].
  // Also fuses register-memory ALU forms:
  //   t = load [A] ; u = add t, v ; store [A] = u
  //     =>  addmem [A], v   (represented as kStore with wop/b=v, fuse via imm)
  std::vector<uint32_t> uses = CountUses(*vf);
  std::vector<uint32_t> defs = CountDefs(*vf);
  // Map vreg -> defining op index (single-def only).
  std::vector<int32_t> def_at(vf->vregs.size(), -1);
  for (size_t i = 0; i < vf->ops.size(); i++) {
    uint32_t d = DefOf(vf->ops[i]);
    if (d != kNoVReg) {
      def_at[d] = defs[d] == 1 ? static_cast<int32_t>(i) : -2;
    }
  }

  auto try_fuse_addr = [&](VOp& op, uint32_t addr_vreg, bool is_store) {
    if (addr_vreg == kNoVReg || def_at[addr_vreg] < 0 || uses[addr_vreg] != 1) {
      return;
    }
    VOp& add_op = vf->ops[def_at[addr_vreg]];
    if (add_op.k != VOp::K::kBin || add_op.wop != Opcode::kI32Add) {
      return;
    }
    uint32_t base = add_op.a;
    uint32_t index = add_op.b;
    uint8_t scale = 1;
    // Try to fold a shift on the index side.
    if (index != kNoVReg && def_at[index] >= 0 && uses[index] == 1) {
      VOp& shl_op = vf->ops[def_at[index]];
      if (shl_op.k == VOp::K::kBin && shl_op.wop == Opcode::kI32Shl && shl_op.b != kNoVReg &&
          def_at[shl_op.b] >= 0) {
        VOp& cnt = vf->ops[def_at[shl_op.b]];
        if (cnt.k == VOp::K::kConst && cnt.imm <= 3) {
          scale = static_cast<uint8_t>(1u << cnt.imm);
          index = shl_op.a;
          // Mark the shl dead by zeroing its use (DCE cleans up).
          uses[shl_op.d] = 0;
          shl_op.k = VOp::K::kConst;  // neutered; DCE removes (d unused)
          shl_op.wop = Opcode::kNop;
        }
      }
    }
    // Rewrite the access.
    if (is_store) {
      op.a = base;
      op.c = index;
    } else {
      op.a = base;
      op.b = index;
    }
    op.fuse_scale = scale;
    uses[addr_vreg] = 0;
    add_op.k = VOp::K::kConst;  // neutered
    add_op.wop = Opcode::kNop;
  };

  for (VOp& op : vf->ops) {
    if (op.k == VOp::K::kLoad && op.fuse_scale == 0) {
      try_fuse_addr(op, op.a, false);
    } else if (op.k == VOp::K::kStore && op.fuse_scale == 0) {
      try_fuse_addr(op, op.a, true);
    }
  }
  DeadCodeElim(vf);
}

void FuseAluMem(VFunc* vf) {
  // Rewrites load/modify/store over the same address into a register-memory
  // ALU op (kStore with alu_op set), the §5.1.1 addressing-mode point:
  //   t = load [a + off]      (single use)
  //   u = add/sub/and/or/xor t, v   (or v, t for commutative add)
  //   store [a + off] = u     (u single use; no store/call between)
  std::vector<uint32_t> uses = CountUses(*vf);
  std::vector<uint32_t> defs = CountDefs(*vf);
  std::vector<int32_t> def_at(vf->vregs.size(), -1);
  for (size_t i = 0; i < vf->ops.size(); i++) {
    uint32_t d = DefOf(vf->ops[i]);
    if (d != kNoVReg) {
      def_at[d] = defs[d] == 1 ? static_cast<int32_t>(i) : -2;
    }
  }
  auto same_addr = [](const VOp& x, const VOp& y, uint32_t x_index, uint32_t y_index) {
    return x.a == y.a && x.offset == y.offset && x.fuse_scale == y.fuse_scale &&
           (x.fuse_scale == 0 || x_index == y_index);
  };
  for (size_t s = 0; s < vf->ops.size(); s++) {
    VOp& store = vf->ops[s];
    if (store.k != VOp::K::kStore || store.is_fp || store.alu_op != Opcode::kNop) {
      continue;
    }
    uint32_t u = store.b;
    if (u == kNoVReg || def_at[u] < 0 || uses[u] != 1) {
      continue;
    }
    size_t bi = static_cast<size_t>(def_at[u]);
    VOp& bin = vf->ops[bi];
    if (bin.k != VOp::K::kBin) {
      continue;
    }
    Opcode wop = bin.wop;
    if (wop != Opcode::kI32Add && wop != Opcode::kI32Sub && wop != Opcode::kI32And &&
        wop != Opcode::kI32Or && wop != Opcode::kI32Xor && wop != Opcode::kI64Add &&
        wop != Opcode::kI64Sub) {
      continue;
    }
    // One operand of the bin must be a single-use load from the same address.
    uint32_t load_v = kNoVReg;
    uint32_t other = kNoVReg;
    bool commutative = wop == Opcode::kI32Add || wop == Opcode::kI32And ||
                       wop == Opcode::kI32Or || wop == Opcode::kI32Xor ||
                       wop == Opcode::kI64Add;
    for (int side = 0; side < 2; side++) {
      uint32_t cand = side == 0 ? bin.a : bin.b;
      uint32_t oth = side == 0 ? bin.b : bin.a;
      if (side == 1 && !commutative) {
        break;  // sub: only [mem] - reg form matches load-on-left
      }
      if (cand != kNoVReg && def_at[cand] >= 0 && uses[cand] == 1) {
        VOp& ld = vf->ops[def_at[cand]];
        if (ld.k == VOp::K::kLoad && !ld.is_fp && ld.width == store.width &&
            same_addr(ld, store, ld.b, store.c)) {
          load_v = cand;
          other = oth;
          break;
        }
      }
    }
    if (load_v == kNoVReg) {
      continue;
    }
    size_t li = static_cast<size_t>(def_at[load_v]);
    if (li > bi || bi > s) {
      continue;
    }
    // Safety: no stores/calls/labels/branches between load and store, and the
    // address vregs must not be redefined in between.
    bool safe = true;
    for (size_t k = li + 1; k < s && safe; k++) {
      const VOp& mid = vf->ops[k];
      switch (mid.k) {
        case VOp::K::kStore:
        case VOp::K::kGlobalSet:
        case VOp::K::kCall:
        case VOp::K::kCallInd:
        case VOp::K::kMemGrow:
        case VOp::K::kLabel:
        case VOp::K::kBr:
        case VOp::K::kBrIf:
        case VOp::K::kBrCmp:
        case VOp::K::kRet:
        case VOp::K::kTrap:
          safe = false;
          break;
        default: {
          uint32_t d = DefOf(mid);
          if (d != kNoVReg && (d == store.a || (store.fuse_scale != 0 && d == store.c) ||
                               d == other)) {
            safe = false;
          }
          break;
        }
      }
    }
    if (!safe) {
      continue;
    }
    // Rewrite: store becomes ALU-with-memory-destination; load and bin die.
    store.alu_op = wop;
    store.b = other;
    uses[load_v] = 0;
    uses[u] = 0;
    vf->ops[li].k = VOp::K::kConst;
    vf->ops[li].wop = Opcode::kNop;
    bin.k = VOp::K::kConst;
    bin.wop = Opcode::kNop;
  }
  DeadCodeElim(vf);
}

}  // namespace nsf
