// sbxbench/trace.h
//
// The traced run (--trace 1): every per-layer metric, measured in-process
// on the serving workloads' streams and on paper_repro's layers, plus the
// share of frontend time the stage spans cover and the tracing overhead.
#pragma once

#include "report.h"

namespace sbxbench {

RunResult run_trace(const RunOptions& options);

}  // namespace sbxbench
