#include "eval/attack_axis.h"

#include <charconv>

#include "util/error.h"
#include "util/strings.h"

namespace sbx::eval {

BoundAttack bind_attack(std::string_view name,
                        const Config& experiment_config) {
  const core::Attack& attack = core::builtin_attack_registry().get(name);
  util::Config params = attack.default_params();
  for (const auto& spec : attack.schema().params()) {
    if (experiment_config.has(spec.key)) {
      params.set(spec.key, experiment_config.raw_value(spec.key));
    }
  }
  // Attack-only knobs (trigger_length, mangle_per_query, ...) ride the
  // experiment's generic `attack_params` key: 'k=v;k=v', each assignment
  // validated against the attack's own schema — so every attack parameter
  // is reachable (and sweepable: ';' inside one axis value) without the
  // experiment redeclaring it.
  if (experiment_config.has("attack_params")) {
    for (const std::string& assignment :
         util::split(experiment_config.raw_value("attack_params"), ';')) {
      if (assignment.empty()) continue;
      params.set_key_value(assignment);
    }
  }
  return BoundAttack{&attack, std::move(params)};
}

core::CanonicalPoison resolve_poison(
    const BoundAttack& bound, const corpus::TrecLikeGenerator& generator,
    util::Rng& rng) {
  std::optional<core::CanonicalPoison> canonical =
      bound.attack->canonical_poison(generator, bound.params, rng);
  if (!canonical.has_value()) {
    throw InvalidArgument(
        "attack '" + bound.attack->name() +
        "' has no canonical poison message; this experiment needs an "
        "identical-copy Causative attack (aspell, usenet, optimal, "
        "informed, ham-labeled, backdoor-trigger)");
  }
  return std::move(*canonical);
}

void tag_attack(ResultDoc& doc, const core::Attack& attack) {
  doc.attack_name = attack.name();
  doc.attack_taxonomy = attack.properties().description();
}

std::string round_trip_string(double value) {
  char buf[40];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // 40 bytes always suffice for a double
  return std::string(buf, ptr);
}

}  // namespace sbx::eval
