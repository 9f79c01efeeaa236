#include "eval/registry.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace sbx::eval {

void Registry::add(std::unique_ptr<Experiment> experiment) {
  if (find(experiment->name()) != nullptr) {
    throw InvalidArgument("Registry::add: duplicate experiment '" +
                          experiment->name() + "'");
  }
  experiments_.push_back(std::move(experiment));
}

const Experiment* Registry::find(std::string_view name) const {
  for (const auto& experiment : experiments_) {
    if (experiment->name() == name) return experiment.get();
  }
  return nullptr;
}

const Experiment& Registry::get(std::string_view name) const {
  const Experiment* experiment = find(name);
  if (experiment == nullptr) {
    std::vector<std::string> known;
    for (const Experiment* e : experiments()) known.push_back(e->name());
    throw InvalidArgument(
        util::unknown_name_message("experiment", name, known));
  }
  return *experiment;
}

std::vector<const Experiment*> Registry::experiments() const {
  std::vector<const Experiment*> out;
  out.reserve(experiments_.size());
  for (const auto& experiment : experiments_) out.push_back(experiment.get());
  std::sort(out.begin(), out.end(),
            [](const Experiment* a, const Experiment* b) {
              return a->name() < b->name();
            });
  return out;
}

const Registry& builtin_registry() {
  static const Registry* registry = [] {
    auto* r = new Registry();
    register_builtin_experiments(*r);
    return r;
  }();
  return *registry;
}

}  // namespace sbx::eval
