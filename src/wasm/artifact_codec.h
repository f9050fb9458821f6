// Versioned binary serialization for CompiledArtifact (src/codegen/artifact.h)
// — the wire format of the Engine's disk code-cache tier.
//
// Container layout:
//
//   "NSFA"            magic (4 bytes)
//   version           fixed u32 (kArtifactFormatVersion)
//   source_fp         fixed u64: build-time fingerprint of src/ (generated
//                     by cmake/nsf_build_id.cmake) — artifacts from a
//                     binary built from different compiler sources are
//                     rejected, so a persistent cache can never serve stale
//                     machine code after a codegen change that nobody
//                     version-bumped
//   payload_checksum  fixed u64 over every byte after this field: per
//                     little-endian 8-byte word, h = (h ^ word) * K and
//                     h ^= h >> 32 (K odd, h seeded with FNV-1a's offset
//                     basis), then FNV-1a over the size % 8 tail bytes
//   payload           the cache key (module hash, options fingerprint) and
//                     profile name; the compile stats; the module's
//                     interface: each function import's field name, in
//                     import order, and each function export's name and
//                     function index; then the MProgram in structured form
//
// Deserialize rejects (returns false, never crashes) on: short input, bad
// magic, version or source-fingerprint mismatch, checksum mismatch,
// truncated or malformed payload, trailing bytes, and decoded index fields
// that would write out of bounds at machine construction (layout
// permutation, global-init slots, table function indices). The artifact
// holds no Wasm module: an export's function index is bounds-checked when
// it runs (SimMachine::RunAt), like any call target. The artifact is
// relocatable: code_base / instr_offsets / total_code_bytes are not stored;
// DeserializeArtifact re-runs MProgram::Link(), which is deterministic, so
// a round-tripped artifact is byte-identical when serialized again.
#ifndef SRC_WASM_ARTIFACT_CODEC_H_
#define SRC_WASM_ARTIFACT_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/codegen/artifact.h"

namespace nsf {

// Version 2 replaced version 1's byte-serial FNV-1a payload checksum with the
// word-wise one above. Version 3 stores the module's interface in place of
// the whole Wasm module. A file of any other version is rejected, so the
// disk tier deletes and recompiles it once.
inline constexpr uint32_t kArtifactFormatVersion = 3;

// Encodes `artifact` (which must be ok(): failed compiles are not artifacts).
std::vector<uint8_t> SerializeArtifact(const CompiledArtifact& artifact);

// Decodes `bytes` into *out. On failure returns false and sets *error to a
// human-readable reason; *out is left in an unspecified but destructible
// state. Tolerant of arbitrary garbage input by construction: every read is
// bounds-checked and the checksum gates the structured decode.
bool DeserializeArtifact(const std::vector<uint8_t>& bytes, CompiledArtifact* out,
                         std::string* error);

}  // namespace nsf

#endif  // SRC_WASM_ARTIFACT_CODEC_H_
