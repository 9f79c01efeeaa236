// sbxbench/daemon.h
//
// The sbx_serve daemon as a child process, and a raw unix-socket
// connection that sends pre-encoded frames. The connection does no
// encoding or decoding of its own: the load loop's clock covers the write
// of a ready frame and the read of the response payload, nothing else.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace sbxbench {

/// CPU time (user + sys, microseconds) and memory figures of a process,
/// read from /proc/<pid>/stat and /proc/<pid>/status.
struct ProcSample {
  double cpu_us = 0;
  long long rss_kb = 0;
  long long hwm_kb = 0;  // VmHWM: peak resident set
};
ProcSample sample_process(pid_t pid);

/// This process's CPU time (user + sys) in microseconds.
double process_cpu_us();

/// A blocking unix-socket connection. Every call throws sbx::IoError on a
/// socket failure, a closed peer or a 30 s stall.
class Connection {
 public:
  /// Connects to `socket_path` (relative paths resolve against the cwd).
  explicit Connection(const std::string& socket_path);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes one full frame and reads the response payload (the frame minus
  /// its length prefix) into `payload`.
  void round_trip(const std::vector<std::uint8_t>& frame,
                  std::vector<std::uint8_t>& payload);

 private:
  int fd_ = -1;
};

/// A spawned sbx_serve. The destructor kills (SIGKILL) and reaps a daemon
/// that is still running, so no exit path leaves a process behind.
class Daemon {
 public:
  /// Spawns `exe args...` in the current directory with stdout and stderr
  /// appended to `log_path`, and waits until it answers a Stats request
  /// on `socket_path`. setup_seconds() is the time from spawn to that
  /// answer. Throws sbx::IoError if the daemon exits or is not ready
  /// within 60 s.
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& socket_path, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  double setup_seconds() const { return setup_seconds_; }

  /// Sends a Shutdown request (the daemon drains and fsyncs its logs) and
  /// reaps the process. Returns its exit status (0 = clean).
  int shutdown();

 private:
  void wait_ready(Clock::time_point spawned, const std::string& log_path);
  void kill_and_reap();

  std::string socket_path_;
  pid_t pid_ = -1;
  double setup_seconds_ = 0;
};

}  // namespace sbxbench
