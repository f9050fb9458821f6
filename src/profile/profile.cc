#include "src/profile/profile.h"

#include <algorithm>
#include <numeric>

#include "src/support/leb128.h"
#include "src/support/str.h"

namespace nsf {

uint64_t IndirectSiteProfile::total() const {
  uint64_t n = 0;
  for (const auto& [elem, count] : targets) {
    n += count;
  }
  return n;
}

bool IndirectSiteProfile::Monomorphic(uint32_t* elem, double min_fraction,
                                      uint64_t min_calls) const {
  uint64_t sum = total();
  if (sum < min_calls) {
    return false;
  }
  uint32_t best_elem = 0;
  uint64_t best = 0;
  for (const auto& [e, count] : targets) {
    if (count > best) {
      best = count;
      best_elem = e;
    }
  }
  if (static_cast<double>(best) < min_fraction * static_cast<double>(sum)) {
    return false;
  }
  *elem = best_elem;
  return true;
}

std::vector<uint32_t> BuildSiteMap(const Function& func) {
  std::vector<uint32_t> map(func.body.size(), kNoProfileSite);
  uint32_t loops = 0, branches = 0, indirects = 0;
  for (size_t pc = 0; pc < func.body.size(); pc++) {
    switch (func.body[pc].op) {
      case Opcode::kLoop:
        map[pc] = loops++;
        break;
      case Opcode::kIf:
      case Opcode::kBrIf:
        map[pc] = branches++;
        break;
      case Opcode::kCallIndirect:
        map[pc] = indirects++;
        break;
      default:
        break;
    }
  }
  return map;
}

Profile Profile::ForModule(const Module& module) {
  Profile p(module.NumTotalFuncs());
  uint32_t imported = module.NumImportedFuncs();
  for (uint32_t d = 0; d < module.functions.size(); d++) {
    const Function& f = module.functions[d];
    uint32_t loops = 0, branches = 0, indirects = 0;
    for (const Instr& instr : f.body) {
      switch (instr.op) {
        case Opcode::kLoop:
          loops++;
          break;
        case Opcode::kIf:
        case Opcode::kBrIf:
          branches++;
          break;
        case Opcode::kCallIndirect:
          indirects++;
          break;
        default:
          break;
      }
    }
    FuncProfile& fp = p.func(imported + d);
    fp.loop_trips.assign(loops, 0);
    fp.branches.assign(branches, BranchSiteProfile{});
    fp.indirect_sites.assign(indirects, IndirectSiteProfile{});
  }
  return p;
}

uint64_t Profile::Weight(uint32_t joint_index) const {
  const FuncProfile& fp = funcs_[joint_index];
  // The per-entry charge keeps hot import stubs (no body instructions) ahead
  // of cold defined code.
  return fp.instrs_retired + 8 * fp.entry_count;
}

std::vector<uint32_t> Profile::FunctionsByHotness() const {
  std::vector<uint32_t> order(funcs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return Weight(a) > Weight(b);
  });
  return order;
}

// --- Binary serialization ---

namespace {
constexpr uint8_t kMagic[4] = {'N', 'S', 'F', 'P'};
constexpr uint32_t kVersion = 1;
}  // namespace

std::vector<uint8_t> Profile::SerializeBinary() const {
  std::vector<uint8_t> out;
  // push_back, not insert(range): GCC 12's -Wstringop-overflow false-fires
  // on the memmove the range insert lowers to when the vector starts empty.
  for (uint8_t b : kMagic) {
    out.push_back(b);
  }
  WriteVarU32(out, kVersion);
  WriteVarU32(out, num_funcs());
  for (const FuncProfile& fp : funcs_) {
    WriteVarU64(out, fp.entry_count);
    WriteVarU64(out, fp.instrs_retired);
    WriteVarU32(out, static_cast<uint32_t>(fp.loop_trips.size()));
    for (uint64_t t : fp.loop_trips) {
      WriteVarU64(out, t);
    }
    WriteVarU32(out, static_cast<uint32_t>(fp.branches.size()));
    for (const BranchSiteProfile& b : fp.branches) {
      WriteVarU64(out, b.taken);
      WriteVarU64(out, b.not_taken);
    }
    WriteVarU32(out, static_cast<uint32_t>(fp.indirect_sites.size()));
    for (const IndirectSiteProfile& site : fp.indirect_sites) {
      WriteVarU32(out, static_cast<uint32_t>(site.targets.size()));
      for (const auto& [elem, count] : site.targets) {
        WriteVarU32(out, elem);
        WriteVarU64(out, count);
      }
    }
  }
  return out;
}

bool Profile::ParseBinary(const std::vector<uint8_t>& bytes, Profile* out,
                          std::string* error) {
  ByteReader r(bytes);
  for (uint8_t m : kMagic) {
    if (r.ReadByte() != m) {
      *error = "bad profile magic";
      return false;
    }
  }
  if (r.ReadVarU32() != kVersion) {
    *error = "unsupported profile version";
    return false;
  }
  uint32_t n = r.ReadVarU32();
  // Each function record needs at least 5 bytes (two counts + three site
  // lengths), so bound the up-front allocation by what the payload could
  // actually hold — a truncated header must not force a huge resize.
  if (!r.ok() || n > (1u << 24) || static_cast<size_t>(n) > r.remaining() / 5 + 1) {
    *error = "malformed profile header";
    return false;
  }
  Profile p(n);
  for (uint32_t i = 0; i < n; i++) {
    FuncProfile& fp = p.func(i);
    fp.entry_count = r.ReadVarU64();
    fp.instrs_retired = r.ReadVarU64();
    uint32_t loops = r.ReadVarU32();
    if (!r.ok() || loops > (1u << 24)) {
      *error = StrFormat("malformed loop sites in func %u", i);
      return false;
    }
    fp.loop_trips.resize(loops);
    for (uint32_t s = 0; s < loops; s++) {
      fp.loop_trips[s] = r.ReadVarU64();
    }
    uint32_t branches = r.ReadVarU32();
    if (!r.ok() || branches > (1u << 24)) {
      *error = StrFormat("malformed branch sites in func %u", i);
      return false;
    }
    fp.branches.resize(branches);
    for (uint32_t s = 0; s < branches; s++) {
      fp.branches[s].taken = r.ReadVarU64();
      fp.branches[s].not_taken = r.ReadVarU64();
    }
    uint32_t indirects = r.ReadVarU32();
    if (!r.ok() || indirects > (1u << 24)) {
      *error = StrFormat("malformed indirect sites in func %u", i);
      return false;
    }
    fp.indirect_sites.resize(indirects);
    for (uint32_t s = 0; s < indirects; s++) {
      uint32_t targets = r.ReadVarU32();
      if (!r.ok() || targets > (1u << 24)) {
        *error = StrFormat("malformed histogram in func %u", i);
        return false;
      }
      for (uint32_t t = 0; t < targets; t++) {
        uint32_t elem = r.ReadVarU32();
        uint64_t count = r.ReadVarU64();
        fp.indirect_sites[s].targets[elem] = count;
      }
    }
  }
  if (!r.ok() || !r.AtEnd()) {
    *error = "trailing or truncated profile bytes";
    return false;
  }
  *out = std::move(p);
  return true;
}

ProfileCollector::ProfileCollector(const Module& module)
    : profile_(Profile::ForModule(module)) {
  site_maps_.reserve(module.functions.size());
  for (const Function& f : module.functions) {
    site_maps_.push_back(BuildSiteMap(f));
  }
}

}  // namespace nsf
