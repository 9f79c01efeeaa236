#include "repro.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "corpus/generator.h"
#include "daemon.h"
#include "eval/experiment.h"

namespace sbxbench {
namespace {

/// Set-up constructions before each pass; setup_s is the median of all of
/// them. Spreading them over the run keeps one slow stretch of a shared
/// machine from setting the figure.
constexpr int kSetupRepeatsPerPass = 5;
/// A pass takes about 3 s on the reference machine. At least five give
/// the medians something to stand on even when that overruns --seconds.
constexpr int kMinPasses = 5;
constexpr int kMaxPasses = 20;

}  // namespace

ReproPass run_repro_pass(const sbx::eval::Registry& registry,
                         std::uint64_t seed, unsigned threads) {
  sbx::eval::RunContext ctx;
  ctx.threads = threads;
  ReproPass pass;
  const double cpu_before = process_cpu_us();
  for (const char* name : {"dictionary", "roni"}) {
    const sbx::eval::Experiment& experiment = registry.get(name);
    const sbx::eval::Config config =
        sbx::eval::resolve_config(experiment, /*quick=*/false, {}, seed);
    const auto start = Clock::now();
    pass.documents += experiment.run(config, ctx).to_json();
    const double s = seconds_between(start, Clock::now());
    (std::string(name) == "dictionary" ? pass.dictionary_s : pass.roni_s) = s;
  }
  pass.cpu_us = process_cpu_us() - cpu_before;
  return pass;
}

RunResult run_repro(const RunOptions& options) {
  const unsigned threads = std::max(1u, options.nproc);
  std::printf("config: {\"workload\":\"paper_repro\",\"experiments\":"
              "[\"dictionary\",\"roni\"],\"params\":\"registry defaults "
              "(dictionary: training_set_size=10000, folds=10, "
              "attack=usenet)\",\"seed\":%llu,\"threads\":%u}\n",
              static_cast<unsigned long long>(options.seed), threads);

  // Set-up: the generator and the registry the experiments are drawn from.
  std::vector<double> setup;
  const auto time_setup = [&setup] {
    for (int k = 0; k < kSetupRepeatsPerPass; ++k) {
      const auto start = Clock::now();
      const sbx::corpus::TrecLikeGenerator generator;
      sbx::eval::Registry registry;
      sbx::eval::register_builtin_experiments(registry);
      setup.push_back(seconds_between(start, Clock::now()));
    }
  };
  sbx::eval::Registry registry;
  sbx::eval::register_builtin_experiments(registry);

  std::vector<double> pass_s;
  std::vector<double> dictionary_s;
  std::vector<double> roni_s;
  std::vector<double> cpu_us;
  std::string reference;
  std::uint64_t failed = 0;
  const auto start = Clock::now();
  for (int p = 0; p < kMaxPasses; ++p) {
    if (p >= kMinPasses &&
        seconds_between(start, Clock::now()) >= options.seconds) {
      break;
    }
    time_setup();
    const ReproPass pass = run_repro_pass(registry, options.seed, threads);
    pass_s.push_back(pass.dictionary_s + pass.roni_s);
    dictionary_s.push_back(pass.dictionary_s);
    roni_s.push_back(pass.roni_s);
    cpu_us.push_back(pass.cpu_us);
    if (p == 0) {
      reference = pass.documents;
    } else if (pass.documents != reference) {
      ++failed;
    }
  }
  const ProcSample self = sample_process(::getpid());
  const double repro_s = median(pass_s);

  std::printf("paper_repro: %zu passes, %llu differing from the first\n",
              pass_s.size(), static_cast<unsigned long long>(failed));
  std::printf("report:\n");
  print_metric("setup_s", median(setup), "s");
  print_metric("repro_s", repro_s, "s");
  print_metric("eval.dictionary_s (median)", median(dictionary_s), "s");
  print_metric("eval.roni_s (median)", median(roni_s), "s");
  print_metric("peak_rss_mb (VmHWM)",
               static_cast<double>(self.hwm_kb) / 1024.0, "MB");
  print_metric("rss_mb (end of the passes)",
               static_cast<double>(self.rss_kb) / 1024.0, "MB");
  print_metric("failed_share",
               static_cast<double>(failed) /
                   static_cast<double>(pass_s.size()),
               "share");

  RunResult result;
  result.attempted = pass_s.size();
  result.failed = failed;
  result.correct = failed == 0;
  result.add("setup_s", median(setup), "s");
  result.add("cpu_us_per_op", median(cpu_us), "us");
  result.add("rss_mb", static_cast<double>(self.rss_kb) / 1024.0, "MB");
  return result;
}

}  // namespace sbxbench
