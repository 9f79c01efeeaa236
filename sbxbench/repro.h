// sbxbench/repro.h
//
// The paper_repro workload: the experiment registry's `dictionary`
// (Figure 1 at the paper's defaults) followed by `roni` (Section 5.1),
// run in this process on the shared thread pool. No serving layer runs.
#pragma once

#include <cstdint>
#include <string>

#include "eval/registry.h"
#include "report.h"

namespace sbxbench {

/// One dictionary + roni pass.
struct ReproPass {
  double dictionary_s = 0;
  double roni_s = 0;
  double cpu_us = 0;       // this process's CPU over the pass
  std::string documents;   // both ResultDocs as JSON, for the identity check
};

ReproPass run_repro_pass(const sbx::eval::Registry& registry,
                         std::uint64_t seed, unsigned threads);

/// The end-to-end run: set-up timed several times, then passes until
/// `seconds` elapse (at least five), each compared byte for byte with the
/// first.
RunResult run_repro(const RunOptions& options);

}  // namespace sbxbench
