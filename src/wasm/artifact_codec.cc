#include "src/wasm/artifact_codec.h"

#include <cstring>

#include "src/support/leb128.h"
#include "src/support/str.h"

// Build-time fingerprint of src/ (generated by cmake/nsf_build_id.cmake).
// Compiled artifacts embed it so a persistent cache dir can never serve
// machine code generated by different compiler sources — a codegen change
// invalidates every cached artifact even when nobody bumped the format
// version. Non-CMake builds (ad-hoc tooling) fall back to 0, which is its
// own compatibility class.
#if __has_include("nsf_build_id.h")
#include "nsf_build_id.h"
#else
namespace nsf {
inline constexpr uint64_t kNsfSourceFingerprint = 0;
}
#endif

namespace nsf {

namespace {

constexpr uint8_t kMagic[4] = {'N', 'S', 'F', 'A'};
// Header bytes before the checksummed payload: magic + version + source
// fingerprint + checksum.
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;

// The payload checksum (see artifact_codec.h): one multiply and one
// xor-shift per little-endian 8-byte word, seeded with FNV-1a's offset
// basis, then FNV-1a over the size % 8 tail bytes. Both per-word steps are
// bijections of the running hash, so any change confined to one word, such
// as any one-byte change, always changes the checksum.
uint64_t PayloadChecksum(const uint8_t* data, size_t size) {
  constexpr uint64_t kWordMultiplier = 0x9e3779b97f4a7c15ull;  // odd: invertible
  constexpr uint64_t kFnvPrime = 0x100000001b3ull;
  uint64_t h = 0xcbf29ce484222325ull;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * kWordMultiplier;
    h ^= h >> 32;
  }
  for (; i < size; i++) {
    h = (h ^ data[i]) * kFnvPrime;
  }
  return h;
}

// --- Operand / MemRef / MInstr encoding ---
// Structured one-byte tags plus LEB fields. `comment` is carried too: it has
// no semantic effect, but keeping it makes a deserialized program's listing
// byte-identical to the compiled original's — worth the few bytes for
// debuggability and for equality assertions across the process boundary.

void WriteMemRef(std::vector<uint8_t>& out, const MemRef& m) {
  uint8_t flags = (m.base.has_value() ? 1 : 0) | (m.index.has_value() ? 2 : 0);
  out.push_back(flags);
  if (m.base.has_value()) {
    out.push_back(static_cast<uint8_t>(*m.base));
  }
  if (m.index.has_value()) {
    out.push_back(static_cast<uint8_t>(*m.index));
  }
  out.push_back(m.scale);
  WriteVarS32(out, m.disp);
}

bool ReadMemRef(ByteReader& r, MemRef* m) {
  uint8_t flags = r.ReadByte();
  if (flags & 1) {
    uint8_t base = r.ReadByte();
    if (base >= kNumGprs) {
      return false;
    }
    m->base = static_cast<Gpr>(base);
  }
  if (flags & 2) {
    uint8_t index = r.ReadByte();
    if (index >= kNumGprs) {
      return false;
    }
    m->index = static_cast<Gpr>(index);
  }
  m->scale = r.ReadByte();
  m->disp = r.ReadVarS32();
  return r.ok() && (flags & ~3u) == 0;
}

void WriteOperand(std::vector<uint8_t>& out, const Operand& o) {
  out.push_back(static_cast<uint8_t>(o.kind));
  switch (o.kind) {
    case OperandKind::kNone:
      break;
    case OperandKind::kGpr:
      out.push_back(static_cast<uint8_t>(o.gpr));
      break;
    case OperandKind::kXmm:
      out.push_back(static_cast<uint8_t>(o.xmm));
      break;
    case OperandKind::kImm:
      WriteVarS64(out, o.imm);
      break;
    case OperandKind::kMem:
      WriteMemRef(out, o.mem);
      break;
  }
}

bool ReadOperand(ByteReader& r, Operand* o) {
  uint8_t kind = r.ReadByte();
  if (kind > static_cast<uint8_t>(OperandKind::kMem)) {
    return false;
  }
  o->kind = static_cast<OperandKind>(kind);
  switch (o->kind) {
    case OperandKind::kNone:
      break;
    case OperandKind::kGpr: {
      uint8_t g = r.ReadByte();
      if (g >= kNumGprs) {
        return false;
      }
      o->gpr = static_cast<Gpr>(g);
      break;
    }
    case OperandKind::kXmm: {
      uint8_t x = r.ReadByte();
      if (x >= kNumXmms) {
        return false;
      }
      o->xmm = static_cast<Xmm>(x);
      break;
    }
    case OperandKind::kImm:
      o->imm = r.ReadVarS64();
      break;
    case OperandKind::kMem:
      if (!ReadMemRef(r, &o->mem)) {
        return false;
      }
      break;
  }
  return r.ok();
}

void WriteInstr(std::vector<uint8_t>& out, const MInstr& i) {
  out.push_back(static_cast<uint8_t>(i.op));
  WriteOperand(out, i.dst);
  WriteOperand(out, i.src);
  WriteOperand(out, i.src2);
  out.push_back(i.width);
  out.push_back(i.sign_extend ? 1 : 0);
  out.push_back(static_cast<uint8_t>(i.cond));
  WriteVarU32(out, i.label);
  WriteVarU32(out, i.func);
  WriteString(out, i.comment);
}

bool ReadInstr(ByteReader& r, MInstr* i) {
  uint8_t op = r.ReadByte();
  if (op > static_cast<uint8_t>(MOp::kNop)) {
    return false;
  }
  i->op = static_cast<MOp>(op);
  if (!ReadOperand(r, &i->dst) || !ReadOperand(r, &i->src) || !ReadOperand(r, &i->src2)) {
    return false;
  }
  i->width = r.ReadByte();
  i->sign_extend = r.ReadByte() != 0;
  uint8_t cond = r.ReadByte();
  if (cond > static_cast<uint8_t>(Cond::kNp)) {
    return false;
  }
  i->cond = static_cast<Cond>(cond);
  i->label = r.ReadVarU32();
  i->func = r.ReadVarU32();
  // Nearly every comment is empty, and `i` arrives default-constructed.
  if (uint32_t comment_size = r.ReadVarU32(); comment_size != 0) {
    i->comment = r.ReadString(comment_size);
  }
  return r.ok();
}

void WriteProgram(std::vector<uint8_t>& out, const MProgram& p) {
  WriteVarU32(out, static_cast<uint32_t>(p.funcs.size()));
  for (const MFunction& f : p.funcs) {
    WriteString(out, f.name);
    WriteVarU32(out, f.frame_slots);
    WriteVarU32(out, static_cast<uint32_t>(f.code.size()));
    for (const MInstr& i : f.code) {
      WriteInstr(out, i);
    }
  }
  WriteVarU32(out, static_cast<uint32_t>(p.table.size()));
  for (const MProgram::TableEntry& e : p.table) {
    WriteVarU32(out, e.sig_id);
    WriteVarU32(out, e.func_index);
  }
  WriteVarU32(out, static_cast<uint32_t>(p.layout_order.size()));
  for (uint32_t idx : p.layout_order) {
    WriteVarU32(out, idx);
  }
  WriteVarU32(out, p.memory_pages);
  WriteVarU32(out, p.max_memory_pages);
  WriteVarU32(out, static_cast<uint32_t>(p.data_segments.size()));
  for (const auto& [offset, bytes] : p.data_segments) {
    WriteVarU32(out, offset);
    WriteBytes(out, bytes);
  }
  WriteVarU32(out, p.num_globals);
  WriteVarU32(out, static_cast<uint32_t>(p.global_inits.size()));
  for (const auto& [slot, bits] : p.global_inits) {
    WriteVarU32(out, slot);
    WriteFixedU64(out, bits);
  }
}

bool ReadProgram(ByteReader& r, MProgram* p) {
  uint32_t num_funcs = r.ReadVarU32();
  // Cap counts by the remaining byte budget so a corrupt length can't drive
  // a multi-gigabyte allocation before the bounds checks kick in.
  if (!r.ok() || num_funcs > r.remaining()) {
    return false;
  }
  p->funcs.resize(num_funcs);
  for (MFunction& f : p->funcs) {
    f.name = r.ReadString(r.ReadVarU32());
    f.frame_slots = r.ReadVarU32();
    uint32_t num_instrs = r.ReadVarU32();
    if (!r.ok() || num_instrs > r.remaining()) {
      return false;
    }
    f.code.resize(num_instrs);
    for (MInstr& i : f.code) {
      if (!ReadInstr(r, &i)) {
        return false;
      }
    }
  }
  uint32_t table_size = r.ReadVarU32();
  if (!r.ok() || table_size > r.remaining()) {
    return false;
  }
  p->table.resize(table_size);
  for (MProgram::TableEntry& e : p->table) {
    e.sig_id = r.ReadVarU32();
    e.func_index = r.ReadVarU32();
  }
  uint32_t layout_size = r.ReadVarU32();
  if (!r.ok() || layout_size > r.remaining()) {
    return false;
  }
  p->layout_order.resize(layout_size);
  for (uint32_t& idx : p->layout_order) {
    idx = r.ReadVarU32();
  }
  p->memory_pages = r.ReadVarU32();
  p->max_memory_pages = r.ReadVarU32();
  uint32_t num_segments = r.ReadVarU32();
  if (!r.ok() || num_segments > r.remaining()) {
    return false;
  }
  p->data_segments.resize(num_segments);
  for (auto& [offset, bytes] : p->data_segments) {
    offset = r.ReadVarU32();
    uint32_t len = r.ReadVarU32();
    if (!r.ok() || !r.ReadBytes(len, &bytes)) {
      return false;
    }
  }
  p->num_globals = r.ReadVarU32();
  uint32_t num_inits = r.ReadVarU32();
  if (!r.ok() || num_inits > r.remaining()) {
    return false;
  }
  p->global_inits.resize(num_inits);
  for (auto& [slot, bits] : p->global_inits) {
    slot = r.ReadVarU32();
    bits = r.ReadFixedU64();
  }
  // Field-level sanity beyond the checksum (defense in depth; the checksum
  // only proves the payload matches what some writer encoded, not that the
  // writer was sane). Anything machine construction or Link() consumes
  // without its own bounds check must be validated here so a decoded-but-
  // inconsistent artifact can never write out of bounds:
  //   - layout_order must be a permutation of the function indices (Link()).
  //   - global_inits slots index a vector sized num_globals at machine
  //     construction, written unchecked.
  //   - table func_index entries are call targets — the machine does
  //     bounds-check those at run time, but reject them here too so a bad
  //     artifact fails loudly at load instead of trapping mid-run.
  if (!p->layout_order.empty()) {
    if (p->layout_order.size() != p->funcs.size()) {
      return false;
    }
    std::vector<bool> seen(p->funcs.size(), false);
    for (uint32_t idx : p->layout_order) {
      if (idx >= p->funcs.size() || seen[idx]) {
        return false;
      }
      seen[idx] = true;
    }
  }
  for (const auto& [slot, bits] : p->global_inits) {
    (void)bits;
    if (slot >= p->num_globals) {
      return false;
    }
  }
  for (const MProgram::TableEntry& e : p->table) {
    if (e.func_index != UINT32_MAX && e.func_index >= p->funcs.size()) {
      return false;
    }
  }
  return r.ok();
}

bool Fail(std::string* error, const std::string& reason) {
  *error = "artifact rejected: " + reason;
  return false;
}

}  // namespace

std::vector<uint8_t> SerializeArtifact(const CompiledArtifact& artifact) {
  std::vector<uint8_t> payload;
  WriteFixedU64(payload, artifact.module_hash);
  WriteFixedU64(payload, artifact.options_fingerprint);
  WriteString(payload, artifact.profile_name);

  const CompileStats& stats = artifact.compiled.stats;
  WriteF64(payload, stats.seconds);
  WriteVarU64(payload, stats.vops);
  WriteVarU64(payload, stats.minstrs);
  WriteVarU64(payload, stats.spill_slots);
  WriteVarU64(payload, stats.code_bytes);

  WriteVarU32(payload, static_cast<uint32_t>(artifact.compiled.import_names.size()));
  for (const std::string& name : artifact.compiled.import_names) {
    WriteString(payload, name);
  }
  WriteVarU32(payload, static_cast<uint32_t>(artifact.compiled.exports.size()));
  for (const FuncExport& e : artifact.compiled.exports) {
    WriteString(payload, e.name);
    WriteVarU32(payload, e.func_index);
  }
  WriteProgram(payload, artifact.compiled.program);

  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  for (uint8_t b : kMagic) {
    out.push_back(b);
  }
  WriteFixedU32(out, kArtifactFormatVersion);
  WriteFixedU64(out, kNsfSourceFingerprint);
  WriteFixedU64(out, PayloadChecksum(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool DeserializeArtifact(const std::vector<uint8_t>& bytes, CompiledArtifact* out,
                         std::string* error) {
  if (bytes.size() < kHeaderSize) {
    return Fail(error, "shorter than the container header");
  }
  if (!std::equal(kMagic, kMagic + 4, bytes.begin())) {
    return Fail(error, "bad magic");
  }
  ByteReader header(bytes.data() + 4, kHeaderSize - 4);
  uint32_t version = header.ReadFixedU32();
  if (version != kArtifactFormatVersion) {
    return Fail(error, StrFormat("format version %u, expected %u", version,
                                 kArtifactFormatVersion));
  }
  uint64_t source_fp = header.ReadFixedU64();
  if (source_fp != kNsfSourceFingerprint) {
    return Fail(error, "built from different compiler sources");
  }
  uint64_t stored_checksum = header.ReadFixedU64();
  uint64_t actual_checksum =
      PayloadChecksum(bytes.data() + kHeaderSize, bytes.size() - kHeaderSize);
  if (stored_checksum != actual_checksum) {
    return Fail(error, "payload checksum mismatch");
  }

  ByteReader r(bytes.data() + kHeaderSize, bytes.size() - kHeaderSize);
  out->module_hash = r.ReadFixedU64();
  out->options_fingerprint = r.ReadFixedU64();
  out->profile_name = r.ReadString(r.ReadVarU32());

  CompileStats& stats = out->compiled.stats;
  stats.seconds = r.ReadF64();
  stats.vops = r.ReadVarU64();
  stats.minstrs = r.ReadVarU64();
  stats.spill_slots = r.ReadVarU64();
  stats.code_bytes = r.ReadVarU64();

  uint32_t num_imports = r.ReadVarU32();
  if (!r.ok() || num_imports > r.remaining()) {
    return Fail(error, "truncated import names");
  }
  out->compiled.import_names.resize(num_imports);
  for (std::string& name : out->compiled.import_names) {
    name = r.ReadString(r.ReadVarU32());
  }
  uint32_t num_exports = r.ReadVarU32();
  if (!r.ok() || num_exports > r.remaining()) {
    return Fail(error, "truncated exports");
  }
  out->compiled.exports.resize(num_exports);
  for (FuncExport& e : out->compiled.exports) {
    e.name = r.ReadString(r.ReadVarU32());
    e.func_index = r.ReadVarU32();
  }
  if (!ReadProgram(r, &out->compiled.program)) {
    return Fail(error, "malformed program section");
  }
  if (!r.AtEnd()) {
    return Fail(error, "trailing bytes after payload");
  }
  // Relocate: the artifact stores no addresses; link assigns code_base /
  // instr_offsets / total_code_bytes deterministically from layout_order.
  out->compiled.program.Link();
  out->compiled.ok = true;
  out->compiled.error.clear();
  return true;
}

}  // namespace nsf
