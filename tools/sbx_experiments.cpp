// sbx_experiments — the single CLI over the experiment registry: it runs
// any experiment, sweep or paper figure.
//
//   sbx_experiments list
//   sbx_experiments describe <experiment>
//   sbx_experiments run <experiment> [key=value ...] [flags]
//   sbx_experiments sweep <experiment> --axis key=v1,v2 [...] [key=value ...]
//   sbx_experiments figure list
//   sbx_experiments figure <figure> [flags]
//
// Shared flags:
//   --quick             apply the experiment's reduced-scale overrides
//   --threads=N         size the shared process pool (0 = hardware)
//   --seed=S            override the "seed" config key (explicit 0 honored)
//   --out-dir=DIR       write CSV tables + the JSON ResultDoc(s) to DIR;
//                       a figure writes its one CSV there (default results)
//
// Figures (figures.h) are the paper's figures, Table 1, the RONI numbers,
// the ablations and the extensions, each a spec over registry runs; their
// stdout and CSV are byte-identical at any thread count.
//
// Sweeps execute whole configs as top-level trials on the shared pool —
// the same pool the per-config fold loops use (run-inline-while-waiting,
// so the nesting cannot deadlock) — and their output is byte-identical at
// any thread count.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/attack_registry.h"
#include "eval/experiment.h"
#include "eval/registry.h"
#include "eval/sweep.h"
#include "figures.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace {

using namespace sbx;

struct CliFlags {
  bool quick = false;
  std::size_t threads = 0;
  std::optional<std::uint64_t> seed;
  std::optional<std::string> out_dir;
  std::vector<std::string> overrides;       // key=value
  std::vector<eval::SweepAxis> axes;        // sweep only
};

int usage(FILE* to) {
  std::fprintf(to,
               "usage: sbx_experiments <command> [...]\n"
               "\n"
               "commands:\n"
               "  list                         all registered experiments\n"
               "  describe <exp>               config schema and defaults\n"
               "  run <exp> [k=v ...]          run one config\n"
               "  sweep <exp> --axis k=v1,v2 [--axis ...] [k=v ...]\n"
               "                               run the axis cross-product\n"
               "  attacks list                 all registered attacks with\n"
               "                               their taxonomy coordinates\n"
               "  attacks describe <attack>    taxonomy, threat model and\n"
               "                               parameter schema\n"
               "  figure list                  all paper figures, tables,\n"
               "                               ablations and extensions\n"
               "  figure <figure>              run one and print its table,\n"
               "                               chart and CSV\n"
               "\n"
               "flags (run/sweep/figure):\n"
               "  --quick          reduced-scale config for smoke runs\n"
               "  --threads=N      shared-pool size (0 = hardware)\n"
               "  --seed=S         override the seed key (explicit 0 ok)\n"
               "  --out-dir=DIR    write CSV tables + JSON ResultDocs\n"
               "                   (figure: its CSV; default results)\n");
  return to == stdout ? 0 : 2;
}

CliFlags parse_cli(int argc, char** argv, int first, bool allow_axes) {
  CliFlags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      flags.threads = static_cast<std::size_t>(
          eval::parse_uint(arg.substr(10), "--threads"));
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = eval::parse_uint(arg.substr(7), "--seed");
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      flags.out_dir = arg.substr(10);
    } else if (allow_axes && arg.rfind("--axis=", 0) == 0) {
      flags.axes.push_back(eval::parse_sweep_axis(arg.substr(7)));
    } else if (allow_axes && arg == "--axis") {
      if (i + 1 >= argc) {
        throw InvalidArgument("--axis needs a key=v1,v2,... argument");
      }
      flags.axes.push_back(eval::parse_sweep_axis(argv[++i]));
    } else if (arg.rfind("--", 0) == 0) {
      throw InvalidArgument("unknown flag '" + arg + "'");
    } else {
      flags.overrides.push_back(arg);  // key=value config override
    }
  }
  return flags;
}

eval::Config resolve(const eval::Experiment& experiment,
                     const CliFlags& flags) {
  return eval::resolve_config(experiment, flags.quick, flags.overrides,
                              flags.seed);
}

void print_doc(const eval::ResultDoc& doc) {
  for (const auto& named : doc.tables) {
    std::printf("%s\n", named.table.to_text().c_str());
  }
  for (const auto& line : doc.report) {
    std::printf("%s\n", line.c_str());
  }
  if (!doc.metrics.empty()) {
    std::printf("\nmetrics:\n");
    for (const auto& [name, value] : doc.metrics) {
      std::printf("  %-40s %g\n", name.c_str(), value);
    }
  }
}

int cmd_list() {
  std::printf("%-18s %-52s %s\n", "experiment", "description", "reproduces");
  for (const auto* experiment : eval::builtin_registry().experiments()) {
    std::printf("%-18s %-52s %s\n", experiment->name().c_str(),
                experiment->description().c_str(),
                experiment->paper_ref().c_str());
  }
  return 0;
}

int cmd_describe(const std::string& name) {
  const eval::Experiment& experiment = eval::builtin_registry().get(name);
  std::printf("%s — %s\nreproduces: %s\n\n", experiment.name().c_str(),
              experiment.description().c_str(),
              experiment.paper_ref().c_str());
  std::printf("%-20s %-12s %-28s %s\n", "key", "type", "default",
              "description");
  for (const auto& spec : experiment.schema().params()) {
    std::printf("%-20s %-12s %-28s %s\n", spec.key.c_str(),
                std::string(eval::to_string(spec.type)).c_str(),
                spec.default_value.c_str(), spec.description.c_str());
  }
  const auto quick = experiment.quick_overrides();
  if (!quick.empty()) {
    std::printf("\n--quick overrides:");
    for (const auto& [key, value] : quick) {
      std::printf(" %s=%s", key.c_str(), value.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_attacks_list() {
  std::printf("%-18s %-40s %s\n", "attack", "taxonomy", "description");
  for (const sbx::core::Attack* attack :
       sbx::core::builtin_attack_registry().attacks()) {
    std::printf("%-18s %-40s %s\n", attack->name().c_str(),
                attack->properties().description().c_str(),
                attack->description().c_str());
  }
  return 0;
}

int cmd_attacks_describe(const std::string& name) {
  const sbx::core::Attack& attack =
      sbx::core::builtin_attack_registry().get(name);
  const sbx::core::AttackProperties properties = attack.properties();
  std::printf("%s — %s\ntaxonomy: %s\nreproduces: %s\nhooks:%s%s\n\n",
              attack.name().c_str(), attack.description().c_str(),
              properties.description().c_str(), attack.paper_ref().c_str(),
              attack.crafts_poison() ? " craft_poison (Causative)" : "",
              attack.evades() ? " evade (Exploratory)" : "");
  if (attack.schema().params().empty()) {
    std::printf("no parameters\n");
    return 0;
  }
  std::printf("%-20s %-12s %-28s %s\n", "key", "type", "default",
              "description");
  for (const auto& spec : attack.schema().params()) {
    std::printf("%-20s %-12s %-28s %s\n", spec.key.c_str(),
                std::string(eval::to_string(spec.type)).c_str(),
                spec.default_value.c_str(), spec.description.c_str());
  }
  return 0;
}

int cmd_run(const std::string& name, const CliFlags& flags) {
  const eval::Experiment& experiment = eval::builtin_registry().get(name);
  const eval::Config config = resolve(experiment, flags);

  std::printf("%s — %s\nconfig:", experiment.name().c_str(),
              experiment.description().c_str());
  for (const auto& [key, value] : config.items()) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n\n");

  eval::RunContext ctx;
  ctx.threads = flags.threads;
  ctx.progress = [](const std::string& line) {
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  };
  const eval::ResultDoc doc = experiment.run(config, ctx);
  print_doc(doc);

  if (flags.out_dir.has_value()) {
    for (const auto& path : doc.write_csv(*flags.out_dir, experiment.name())) {
      std::printf("CSV written to %s\n", path.c_str());
    }
    const std::string json_path =
        *flags.out_dir + "/" + experiment.name() + ".json";
    doc.write_json(json_path);
    std::printf("JSON written to %s\n", json_path.c_str());
  }
  return 0;
}

int cmd_sweep(const std::string& name, const CliFlags& flags) {
  if (flags.axes.empty()) {
    throw InvalidArgument("sweep needs at least one --axis key=v1,v2,...");
  }
  const eval::Experiment& experiment = eval::builtin_registry().get(name);
  const eval::Config base = resolve(experiment, flags);

  eval::SweepOptions options;
  options.threads = flags.threads;
  options.progress = [](std::size_t i, std::size_t total) {
    std::printf("config %zu/%zu done\n", i + 1, total);
    std::fflush(stdout);
  };

  std::printf("sweep %s:", experiment.name().c_str());
  for (const auto& axis : flags.axes) {
    std::printf(" %s={", axis.key.c_str());
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      std::printf("%s%s", i ? "," : "", axis.values[i].c_str());
    }
    std::printf("}");
  }
  std::printf("\n");

  const eval::SweepResult result =
      eval::run_sweep(experiment, base, flags.axes, options);

  std::printf("\n%s\n", result.summary().to_text().c_str());
  if (flags.out_dir.has_value()) {
    for (std::size_t i = 0; i < result.docs.size(); ++i) {
      const std::string stem =
          experiment.name() + "_" + std::to_string(i);
      result.docs[i].write_json(*flags.out_dir + "/" + stem + ".json");
    }
    const std::string summary_path =
        *flags.out_dir + "/" + experiment.name() + "_sweep.csv";
    result.summary().write_csv(summary_path);
    std::printf("summary CSV written to %s; %zu ResultDoc JSONs in %s\n",
                summary_path.c_str(), result.docs.size(),
                flags.out_dir->c_str());
  }
  return 0;
}

int cmd_figure(const std::string& name, const CliFlags& flags) {
  if (!flags.overrides.empty()) {
    throw InvalidArgument("figure takes no key=value overrides ('" +
                          flags.overrides.front() + "')");
  }
  figures::render(name, flags.quick, flags.threads, flags.seed,
                  flags.out_dir.value_or("results"));
  return 0;
}

/// Shared exit-2 path for an unrecognized (sub)command: one complaint
/// format, then the usage text on stderr.
int unknown_command(const char* kind, const std::string& name) {
  std::fprintf(stderr, "sbx_experiments: unknown %s '%s'\n\n", kind,
               name.c_str());
  return usage(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string command = argv[1];
  try {
    if (command == "--help" || command == "help") return usage(stdout);
    if (command == "list") return cmd_list();
    if (command == "describe") {
      if (argc < 3) return usage(stderr);
      return cmd_describe(argv[2]);
    }
    if (command == "attacks") {
      if (argc < 3) return usage(stderr);
      const std::string sub = argv[2];
      if (sub == "list") return cmd_attacks_list();
      if (sub == "describe") {
        if (argc < 4) return usage(stderr);
        return cmd_attacks_describe(argv[3]);
      }
      return unknown_command("attacks command", sub);
    }
    if (command == "figure" && argc >= 3 &&
        std::string(argv[2]) == "list") {
      if (argc > 3) return usage(stderr);
      figures::list();
      return 0;
    }
    if (command == "run" || command == "sweep" || command == "figure") {
      if (argc < 3) return usage(stderr);
      const CliFlags flags =
          parse_cli(argc, argv, 3, /*allow_axes=*/command == "sweep");
      // Size the shared pool before anything borrows it; every Runner in
      // the process (sweep trials and per-config folds alike) uses it.
      if (flags.threads != 0) {
        sbx::util::ThreadPool::configure_shared(flags.threads);
      }
      if (command == "run") return cmd_run(argv[2], flags);
      if (command == "sweep") return cmd_sweep(argv[2], flags);
      return cmd_figure(argv[2], flags);
    }
    return unknown_command("command", command);
  } catch (const sbx::Error& e) {
    std::fprintf(stderr, "sbx_experiments: %s\n", e.what());
    return 2;
  }
}
