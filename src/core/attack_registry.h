// sbx/core/attack_registry.h
//
// Name -> Attack lookup, mirroring eval's experiment registry (PR 3).
// The registry is the single attack catalogue behind `sbx_experiments
// attacks list/describe`, the attack-parametric experiments
// (attack=<name> config keys) and the sweep attack axis.
//
// Built-in attacks are registered explicitly (register_builtin_attacks(),
// not static initializers: sbx is consumed as static libraries, where
// unreferenced self-registering objects are silently dropped by the
// linker — the same rationale as eval::register_builtin_experiments).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/attack.h"

namespace sbx::core {

class AttackRegistry {
 public:
  AttackRegistry() = default;
  AttackRegistry(const AttackRegistry&) = delete;
  AttackRegistry& operator=(const AttackRegistry&) = delete;

  /// Registers an attack; throws sbx::InvalidArgument on duplicate names.
  void add(std::unique_ptr<Attack> attack);

  /// nullptr when no attack has this name.
  const Attack* find(std::string_view name) const;

  /// Lookup that throws sbx::InvalidArgument listing the known names.
  const Attack& get(std::string_view name) const;

  /// All attacks, sorted by name.
  std::vector<const Attack*> attacks() const;

 private:
  std::vector<std::unique_ptr<Attack>> attacks_;
};

/// The process-wide registry holding every built-in attack: the paper's
/// (dictionary family as aspell/usenet/optimal/informed, focused,
/// good-word, ham-labeled) plus the backdoor-trigger and obfuscation
/// extensions. Thread-safe: built once on first use.
const AttackRegistry& builtin_attack_registry();

/// Registers the built-in attacks into `registry` (exposed for tests that
/// assemble their own registries).
void register_builtin_attacks(AttackRegistry& registry);

}  // namespace sbx::core
