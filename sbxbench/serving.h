// sbxbench/serving.h
//
// The serving workloads, end to end: spawn sbx_serve, drive pre-encoded
// streams over its unix socket from closed-loop connections, read the
// daemon's CPU time and peak RSS from /proc, and verify every response
// after the clock stops against an in-process ServeFrontend mirror.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "daemon.h"
#include "report.h"
#include "serve/protocol.h"
#include "streams.h"

namespace sbxbench {

/// What one closed-loop connection did.
struct ConnOutcome {
  std::vector<double> latency_ms;  // per attempted op, kFailedSample if lost
  std::vector<double> done_s;  // per completed op, seconds since clock start
  std::vector<std::vector<std::uint8_t>> responses;  // raw payloads
  std::size_t attempted = 0;
  std::size_t completed = 0;  // ops that got a response
  std::string error;          // the I/O failure that stopped it, if any
  Clock::time_point last_done{};
};

/// One timed load phase against a running daemon.
struct LoadPhase {
  std::vector<std::vector<StreamOp>> streams;  // per connection
  std::vector<ConnOutcome> outcomes;
  double window_s = 0;      // clock start to the last response
  double daemon_cpu_us = 0;
  double client_cpu_us = 0;  // this (load) process over the same window
  /// Daemon and load-process CPU (us) sampled at each whole second since
  /// the clock started ([k] = at k s), up to the last response: the
  /// per-second windows the run's medians are taken over.
  std::vector<double> daemon_cpu_at;
  std::vector<double> client_cpu_at;
  bool finished = true;      // every stream was sent before the deadline

  std::uint64_t messages(OpKind kind) const;
  std::uint64_t ops() const;
};

/// Runs every connection's stream in a closed loop until it ends or
/// `seconds` pass. Connections are opened before the clock starts.
LoadPhase drive_load(const std::string& socket_path, pid_t daemon,
                     std::vector<std::vector<StreamOp>> streams,
                     double seconds);

/// Generates each connection's stream on its own thread (at most `nproc`).
std::vector<std::vector<StreamOp>> generate_streams(
    const sbx::corpus::TrecLikeGenerator& generator,
    const ServingConfig& config, std::uint64_t seed, std::uint64_t salt,
    std::size_t requests_per_connection, unsigned nproc);

/// sbx_serve's command line for `config` (data_dir ignored unless durable).
std::vector<std::string> daemon_args(const ServingConfig& config,
                                     const std::string& socket_path,
                                     const std::string& data_dir);

/// Scores compared bit for bit, verdicts and train counts exactly
/// (generations are process-local counters and are not compared).
bool same_response(const sbx::serve::Response& remote,
                   const sbx::serve::Response& local);

/// The end-to-end run of a serving workload (tracing off).
RunResult run_serving(const ServingConfig& config, const RunOptions& options);

/// A short live run used by the traced run for the figures only a live
/// daemon has: Stats round-trip time, group commit, snapshots, overlay RSS
/// and the load process's own CPU.
struct LiveProbe {
  double rtt_us = 0;          // median Stats round trip
  std::uint64_t ops = 0;      // messages classified or trained
  std::uint64_t failed = 0;
  double client_cpu_us = 0;
  double daemon_cpu_us = 0;
  double rss_growth_kb = 0;   // settled daemon VmRSS, after minus before
  sbx::serve::StatsResponse stats;
};
LiveProbe live_probe(const ServingConfig& config, const RunOptions& options,
                     const std::string& tag, double seconds);

}  // namespace sbxbench
