// CompiledArtifact: the compilation pipeline's product as ONE self-contained,
// relocatable value — the compiled MProgram with its layout order and
// per-function frame metadata, the compile statistics, the module's
// interface (function import names and function exports), and the cache key
// (module hash, options fingerprint) with the profile name. It keeps no copy
// of the Wasm module: binding imports and looking up exports need only the
// interface.
//
// "Relocatable" means nothing in the artifact depends on where code was
// linked: code_base / instr_offsets / total_code_bytes are assigned by
// MProgram::Link(), which is deterministic given the function bodies and
// layout_order, so the serializer (src/wasm/artifact_codec.h) omits them and
// deserialization re-links. Two artifacts built from the same (module,
// options) content are byte-identical once serialized.
#ifndef SRC_CODEGEN_ARTIFACT_H_
#define SRC_CODEGEN_ARTIFACT_H_

#include <cstdint>
#include <string>

#include "src/codegen/codegen.h"
#include "src/wasm/module.h"

namespace nsf {

struct CompiledArtifact {
  uint64_t module_hash = 0;          // HashModule of the compiled module
  uint64_t options_fingerprint = 0;  // CodegenOptions::Fingerprint()
  std::string profile_name;          // cosmetic label at compile time
  CompileResult compiled;            // program, stats, import names, exports

  bool ok() const { return compiled.ok; }
  const MProgram& program() const { return compiled.program; }
  const CompileStats& stats() const { return compiled.stats; }
};

// Compiles `module` (assumed validated) under `options` into an artifact.
// `module_hash` / `options_fingerprint` are accepted precomputed because
// every caller (the Engine's code cache) already derived them to form the
// cache key.
CompiledArtifact BuildArtifact(const Module& module, const CodegenOptions& options,
                               uint64_t module_hash, uint64_t options_fingerprint);

// Convenience overload computing both key halves.
CompiledArtifact BuildArtifact(const Module& module, const CodegenOptions& options);

}  // namespace nsf

#endif  // SRC_CODEGEN_ARTIFACT_H_
