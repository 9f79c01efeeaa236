// sbx/eval/registry.h
//
// Name -> Experiment lookup for the experiment harness. The registry is
// the single catalogue behind `sbx_experiments list/describe/run/sweep`
// and its figure specs; adding an experiment means registering one
// adapter here instead of hand-rolling another program.
//
// Built-in experiments are registered explicitly (builtin_registry(), not
// static initializers: sbx is consumed as static libraries, where
// unreferenced self-registering objects are silently dropped by the
// linker).
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "eval/experiment.h"

namespace sbx::eval {

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers an experiment; throws sbx::InvalidArgument on duplicate
  /// names.
  void add(std::unique_ptr<Experiment> experiment);

  /// nullptr when no experiment has this name.
  const Experiment* find(std::string_view name) const;

  /// Lookup that throws sbx::InvalidArgument listing the known names.
  const Experiment& get(std::string_view name) const;

  /// All experiments, sorted by name.
  std::vector<const Experiment*> experiments() const;

 private:
  std::vector<std::unique_ptr<Experiment>> experiments_;
};

/// The process-wide registry holding every built-in experiment driver
/// (dictionary, focused-knowledge, focused-size, token-shift, roni,
/// threshold, retraining, good-word, ham-labeled). Thread-safe: built once
/// on first use.
const Registry& builtin_registry();

/// Registers the built-in experiments into `registry` (exposed for tests
/// that assemble their own registries).
void register_builtin_experiments(Registry& registry);

}  // namespace sbx::eval
