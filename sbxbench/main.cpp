// sbxbench — one benchmark for sbx: served classify, durable feedback and
// paper reproduction, measured end to end (--trace 0) and per layer
// (--trace 1). Normally started through run.py, which builds this binary
// and the daemon first:
//
//   sbxbench --workload=inbox_classify|feedback_durable|paper_repro
//            --seed=N --seconds=S --trace=0|1 --daemon=PATH/sbx_serve
//            [--spans=PATH]
//
// Runs in the current directory (daemon socket, data dirs and logs are
// created there). Prints a human-readable report and, as its last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "repro.h"
#include "report.h"
#include "serving.h"
#include "streams.h"
#include "trace.h"
#include "util/config.h"

namespace {

using sbxbench::RunOptions;
using sbxbench::RunResult;

int usage() {
  std::fprintf(stderr,
               "usage: sbxbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --daemon=PATH [--spans=PATH]\n"
               "workloads: inbox_classify feedback_durable paper_repro\n");
  return 2;
}

bool parse(int argc, char** argv, RunOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.substr(prefix.size()) : "";
    };
    if (!value("--workload").empty()) {
      options.workload = value("--workload");
    } else if (!value("--seed").empty()) {
      options.seed = sbx::util::parse_uint(value("--seed"), "--seed");
    } else if (!value("--seconds").empty()) {
      options.seconds =
          sbx::util::parse_double(value("--seconds"), "--seconds");
    } else if (!value("--trace").empty()) {
      options.trace = sbx::util::parse_bool(value("--trace"), "--trace");
    } else if (!value("--daemon").empty()) {
      options.daemon = value("--daemon");
    } else if (!value("--spans").empty()) {
      options.spans_path = value("--spans");
    } else {
      std::fprintf(stderr, "sbxbench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !options.workload.empty() && !options.daemon.empty() &&
         options.seconds > 0;
}

void print_result(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const sbxbench::Metric& m = result.metrics[i];
    // JSON has no infinity; a lost op's latency prints as a huge number
    // (the run is marked incorrect anyway).
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  try {
    if (!parse(argc, argv, options)) return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbxbench: %s\n", e.what());
    return usage();
  }
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  if (options.spans_path.empty()) options.spans_path = "spans.jsonl";
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("build: {\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"nproc\":%u}\n",
              SBXBENCH_COMPILER, SBXBENCH_BUILD_TYPE, options.nproc);
  if (options.workload != "inbox_classify" &&
      options.workload != "feedback_durable" &&
      options.workload != "paper_repro") {
    std::fprintf(stderr, "sbxbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return usage();
  }
  try {
    RunResult result;
    if (options.trace) {
      result = sbxbench::run_trace(options);
    } else if (options.workload == "inbox_classify") {
      result = sbxbench::run_serving(
          sbxbench::inbox_classify_config(options.seed), options);
    } else if (options.workload == "feedback_durable") {
      result = sbxbench::run_serving(
          sbxbench::feedback_durable_config(options.seed), options);
    } else {
      result = sbxbench::run_repro(options);
    }
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbxbench: %s\n", e.what());
    return 1;
  }
}
