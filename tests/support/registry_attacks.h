// Registry attacks for test fixtures. Tests name an attack the way the
// experiments do, through core::builtin_attack_registry(), and craft with
// an explicitly seeded rng.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/attack_registry.h"
#include "corpus/generator.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::test_support {

using ParamOverrides = std::vector<std::pair<std::string, std::string>>;

/// The attack's schema defaults with `overrides` applied.
inline util::Config attack_params(const core::Attack& attack,
                                  const ParamOverrides& overrides = {}) {
  util::Config params = attack.default_params();
  for (const auto& [key, value] : overrides) params.set(key, value);
  return params;
}

/// The canonical poison of registry attack `name` under `overrides`,
/// crafted with Rng(seed).
inline core::CanonicalPoison registry_poison(
    const corpus::TrecLikeGenerator& generator, const std::string& name,
    const ParamOverrides& overrides = {}, std::uint64_t seed = 1) {
  const core::Attack& attack = core::builtin_attack_registry().get(name);
  util::Rng rng(seed);
  auto poison =
      attack.canonical_poison(generator, attack_params(attack, overrides), rng);
  if (!poison.has_value()) {
    throw InvalidArgument("attack '" + name + "' has no canonical poison");
  }
  return std::move(*poison);
}

}  // namespace sbx::test_support
