#include "src/codegen/artifact.h"

#include "src/wasm/encoder.h"

namespace nsf {

CompiledArtifact BuildArtifact(const Module& module, const CodegenOptions& options,
                               uint64_t module_hash, uint64_t options_fingerprint) {
  CompiledArtifact artifact;
  artifact.module_hash = module_hash;
  artifact.options_fingerprint = options_fingerprint;
  artifact.profile_name = options.profile_name;
  artifact.compiled = CompileModule(module, options);
  return artifact;
}

CompiledArtifact BuildArtifact(const Module& module, const CodegenOptions& options) {
  return BuildArtifact(module, options, HashModule(module), options.Fingerprint());
}

}  // namespace nsf
