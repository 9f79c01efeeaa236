// sbx/eval/experiment.h
//
// The declarative experiment API. Every driver in the evaluation harness
// (dictionary, focused, RONI, threshold, retraining, the extension
// attacks) is exposed as an eval::Experiment: a name, a typed config
// schema with Table-1 defaults, and a run() that returns a uniform
// ResultDoc. Experiments are looked up through eval::Registry (registry.h)
// and executed one config at a time (`sbx_experiments run`) or as a
// cross-product of config axes (`sbx_experiments sweep`, sweep.h).
//
// Config values are carried as validated strings: every value is parsed
// against its declared ParamType when set, so an invalid override fails at
// the API boundary with a message naming the key — never silently as 0
// (the std::atoll failure mode the bench flags used to have).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/result_doc.h"
#include "util/config.h"

namespace sbx::eval {

// ---------------------------------------------------------------------------
// Config machinery. Lives in util/config.h (so core::Attack can declare
// schemas too — core sits below eval in the library stack); re-exported
// here under the eval:: names the experiment layer has always used.
// ---------------------------------------------------------------------------

using util::parse_bool;
using util::parse_double;
using util::parse_uint;
using util::to_string;

using ParamType = util::ParamType;
using ParamSpec = util::ParamSpec;
using ConfigSchema = util::ConfigSchema;
using Config = util::Config;

// ---------------------------------------------------------------------------
// The experiment interface.
// ---------------------------------------------------------------------------

/// Execution context passed to Experiment::run. `threads` is the
/// per-experiment Runner thread request (0 = hardware concurrency, 1 =
/// inline; the shared pool bounds real parallelism either way). `progress`
/// receives human-readable status lines; experiments must not write to
/// stdout directly.
struct RunContext {
  std::size_t threads = 0;
  std::function<void(const std::string&)> progress;

  void note(const std::string& line) const {
    if (progress) progress(line);
  }
};

/// One registered experiment driver.
class Experiment {
 public:
  virtual ~Experiment() = default;

  /// Registry key, e.g. "dictionary" (lowercase, '-'-separated).
  virtual std::string name() const = 0;

  /// One-line summary for `sbx_experiments list`.
  virtual std::string description() const = 0;

  /// What part of the paper the default config reproduces.
  virtual std::string paper_ref() const = 0;

  virtual const ConfigSchema& schema() const = 0;

  /// Reduced-scale overrides applied by --quick (keys must exist in the
  /// schema). Defaults to none.
  virtual std::vector<std::pair<std::string, std::string>> quick_overrides()
      const {
    return {};
  }

  /// Executes one fully resolved config. Deterministic in the config (the
  /// "seed" parameter drives all randomness); ctx.threads changes
  /// wall-clock time only, never the returned document.
  virtual ResultDoc run(const Config& config, const RunContext& ctx) const = 0;

  /// A config holding this experiment's schema defaults.
  Config default_config() const { return Config(&schema()); }
};

/// The one config-resolution policy shared by `sbx_experiments run/sweep`
/// and the figure specs of `sbx_experiments figure`:
/// schema defaults, then the experiment's --quick overrides (if `quick`),
/// then the "key=value" `overrides` in order, then `seed` onto the "seed"
/// key (when present in the schema; an explicit 0 is honored).
Config resolve_config(const Experiment& experiment, bool quick,
                      const std::vector<std::string>& overrides = {},
                      std::optional<std::uint64_t> seed = std::nullopt);

}  // namespace sbx::eval
