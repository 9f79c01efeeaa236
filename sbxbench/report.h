// sbxbench/report.h
//
// What one benchmark invocation reports: named metrics with units, the
// operation counts, and the one-line JSON result the run ends with.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace sbxbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // what the result line reports, in order

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The shared options of every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string daemon;      // path of the sbx_serve binary
  std::string spans_path;  // where the traced run writes its spans
  unsigned nproc = 1;
};

/// A human-readable line "  name = value unit".
inline void print_metric(const char* name, double value, const char* unit) {
  std::printf("  %-40s %.6g %s\n", name, value, unit);
}

}  // namespace sbxbench
