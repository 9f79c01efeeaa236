// sbx/eval/attack_axis.h
//
// Glue between the experiment registry and the attack registry: the
// generic experiments accept an `attack=<registry-name>` config key and
// resolve it here, which is what makes the attack a first-class sweep
// axis (`sbx_experiments sweep dictionary --axis attack=usenet,aspell,
// backdoor-trigger ...`) instead of a hard-coded class per driver.
//
// Parameter flow: an attack declares its own schema (core::Attack); an
// experiment that declares a same-named key (e.g. "dictionary_size",
// "guess_probability", "batch_size") forwards its resolved value into the
// attack's config as the raw validated string — lossless, so the bound
// attack sees bit-identical parameters to the pre-port hard-coded path.
#pragma once

#include <string>
#include <string_view>

#include "core/attack.h"
#include "core/attack_registry.h"
#include "eval/experiment.h"
#include "eval/experiments.h"

namespace sbx::eval {

/// A registry attack plus its resolved parameter config.
struct BoundAttack {
  const core::Attack* attack = nullptr;
  util::Config params;
};

/// Resolves `name` through core::builtin_attack_registry() (throwing with
/// the known-name list on a miss) and builds its params: attack schema
/// defaults, then every same-named key of `experiment_config` copied over
/// as the raw string.
BoundAttack bind_attack(std::string_view name, const Config& experiment_config);

/// Crafts the bound attack's canonical poison (display name, payload size,
/// message, training label, trigger tokens). `rng` feeds attacks whose
/// canonical message has random parts (ham-labeled and backdoor-trigger
/// clone ham headers); the dictionary family ignores it. Throws
/// sbx::InvalidArgument when the attack has no canonical identical-copy
/// form (focused, good-word, obfuscation).
core::CanonicalPoison resolve_poison(const BoundAttack& bound,
                                     const corpus::TrecLikeGenerator& generator,
                                     util::Rng& rng);

/// Stamps the attack's identity (registry name + taxonomy coordinates)
/// onto a ResultDoc — the metadata `check_bench.py validate-resultdoc`
/// requires of every document.
void tag_attack(ResultDoc& doc, const core::Attack& attack);

/// Shortest round-trip decimal representation of a double (std::to_chars):
/// parsing it back yields the identical bits, so doubles can cross the
/// string-typed Config boundary losslessly.
std::string round_trip_string(double value);

}  // namespace sbx::eval
