#include "src/profile/tier.h"

#include <memory>

#include "src/interp/interp.h"
#include "src/kernel/kernel.h"
#include "src/runtime/runtime.h"
#include "src/wasm/validator.h"

namespace nsf {

namespace {

// Imports must resolve before the Instance exists, but the syscall layer's
// memory port needs the Instance — the same two-phase bind the differential
// tests use.
class ForwardingResolver : public ImportResolver {
 public:
  ImportResolver* inner = nullptr;
  const HostFunc* ResolveFunc(const std::string& module, const std::string& name,
                              const FuncType& type) override {
    return inner == nullptr ? nullptr : inner->ResolveFunc(module, name, type);
  }
};

}  // namespace

bool CollectProfile(const WorkloadSpec& spec, Profile* out, std::string* error) {
  Module module = spec.build();
  ValidationResult vr = ValidateModule(module);
  if (!vr.ok) {
    *error = spec.name + ": module invalid: " + vr.error;
    return false;
  }

  BrowsixKernel kernel;
  if (spec.setup) {
    spec.setup(kernel);
  }
  auto port = std::make_unique<InstanceMemPort>(nullptr);
  auto process = kernel.CreateProcess(port.get(), spec.argv);
  auto host = MakeInterpSyscalls(process.get());
  ForwardingResolver resolver;
  resolver.inner = host.get();

  std::string err;
  auto instance = Instance::Create(module, &resolver, &err);
  if (instance == nullptr) {
    *error = spec.name + ": instantiation failed: " + err;
    return false;
  }
  *port = InstanceMemPort(instance.get());

  ProfileCollector collector(module);
  instance->set_profile_collector(&collector);
  ExecResult r = instance->CallExport(spec.entry, {});
  if (!r.ok) {
    *error = spec.name + ": warm-up run trapped: " + r.error;
    return false;
  }

  *out = std::move(collector.profile());
  return true;
}

CodegenOptions PgoOptions(const CodegenOptions& base, const Profile* profile) {
  CodegenOptions tiered = base;
  tiered.profile_name = base.profile_name + "+pgo";
  tiered.profile = profile;
  tiered.pgo_layout = true;
  tiered.pgo_rotate_hot_loops = true;
  tiered.devirtualize_monomorphic = true;
  return tiered;
}

}  // namespace nsf
