#include "serving.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "serve/base_model.h"
#include "serve/frontend.h"
#include "serve/recovery.h"

namespace sbxbench {
namespace {

namespace fs = std::filesystem;
using sbx::serve::ClassifyBatchRequest;
using sbx::serve::ClassifyBatchResponse;
using sbx::serve::ErrorResponse;
using sbx::serve::Request;
using sbx::serve::Response;
using sbx::serve::StatsResponse;
using sbx::serve::TrainResponse;
using sbx::serve::UntrainResponse;

constexpr const char* kSocket = "serve.sock";
constexpr const char* kDaemonLog = "daemon.log";
/// Daemon spawns before the run (the last one serves it) and after it;
/// setup_s is the median of all of them. Spawning on both sides of the
/// load keeps one slow stretch of a shared machine from setting the figure.
constexpr int kSetupSpawnsBefore = 6;
constexpr int kSetupSpawnsAfter = 5;
/// Warm-up requests per connection (classify only, unmeasured).
constexpr std::size_t kWarmupRequests = 150;
/// A run that has not finished its stream after this many times --seconds
/// stops there (a much slower build still reports, on less work).
constexpr double kDeadlineFactor = 3.0;
/// Gating-op samples a tail window should hold: p99 then has 11 beyond it.
constexpr double kTailWindowSamples = 1100;

}  // namespace

bool same_response(const Response& remote, const Response& local) {
  if (remote.index() != local.index()) return false;
  if (const auto* r = std::get_if<ClassifyBatchResponse>(&remote)) {
    const auto& l = std::get<ClassifyBatchResponse>(local);
    if (r->results.size() != l.results.size()) return false;
    for (std::size_t i = 0; i < r->results.size(); ++i) {
      if (std::memcmp(&r->results[i].score, &l.results[i].score,
                      sizeof(double)) != 0 ||
          r->results[i].verdict != l.results[i].verdict) {
        return false;
      }
    }
    return true;
  }
  // Generations are process-local counters; only the counts must agree.
  if (const auto* r = std::get_if<TrainResponse>(&remote)) {
    const auto& l = std::get<TrainResponse>(local);
    return r->overlay_spam == l.overlay_spam && r->overlay_ham == l.overlay_ham;
  }
  if (const auto* r = std::get_if<UntrainResponse>(&remote)) {
    const auto& l = std::get<UntrainResponse>(local);
    return r->overlay_spam == l.overlay_spam && r->overlay_ham == l.overlay_ham;
  }
  return true;
}

namespace {

Request decode_frame_request(const std::vector<std::uint8_t>& frame) {
  return sbx::serve::decode_request(
      std::span<const std::uint8_t>(frame).subspan(4));
}

StatsResponse query_stats(const std::string& socket_path) {
  Connection conn(socket_path);
  std::vector<std::uint8_t> payload;
  conn.round_trip(
      sbx::serve::encode_frame(Request(sbx::serve::StatsRequest{})), payload);
  const Response r = sbx::serve::decode_response(payload);
  if (const auto* s = std::get_if<StatsResponse>(&r)) return *s;
  throw sbx::IoError("sbxbench: Stats request failed");
}

/// Daemon VmRSS once every load connection has closed and its thread has
/// exited, so per-connection state (each connection thread's ScoreEngine
/// memo) is gone: what the daemon keeps after serving the workload.
long long settled_rss_kb(const std::string& socket_path, pid_t daemon) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  // The Stats connection itself counts as one.
  while (query_stats(socket_path).active_connections > 1 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // A connection thread frees its thread-local state after the server
  // counts it closed; wait until the figure stops moving.
  long long previous = -1;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const long long rss = sample_process(daemon).rss_kb;
    if (rss == previous) break;
    previous = rss;
  }
  return previous;
}

/// Runs `body(i)` for i in [0, n) on up to `threads` threads.
template <typename Body>
void parallel_indices(std::size_t n, unsigned threads, Body&& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  const unsigned count = std::max(1u, std::min<unsigned>(
                                          threads, static_cast<unsigned>(n)));
  for (unsigned t = 0; t < count; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        body(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

sbx::serve::FrontendConfig frontend_config(const ServingConfig& config) {
  sbx::serve::FrontendConfig fc;
  fc.shard_count = config.shards;
  fc.user_count = config.users;
  return fc;
}

}  // namespace

std::uint64_t LoadPhase::messages(OpKind kind) const {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    for (std::size_t i = 0; i < outcomes[c].completed; ++i) {
      if (streams[c][i].kind == kind) total += streams[c][i].messages;
    }
  }
  return total;
}

std::uint64_t LoadPhase::ops() const {
  return messages(OpKind::kClassify) + messages(OpKind::kTrain) +
         messages(OpKind::kUntrain);
}

LoadPhase drive_load(const std::string& socket_path, pid_t daemon,
                     std::vector<std::vector<StreamOp>> streams,
                     double seconds) {
  LoadPhase phase;
  phase.streams = std::move(streams);
  const std::size_t n = phase.streams.size();
  phase.outcomes.resize(n);
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < n; ++c) {
    conns.push_back(std::make_unique<Connection>(socket_path));
    phase.outcomes[c].responses.resize(phase.streams[c].size());
    phase.outcomes[c].latency_ms.reserve(phase.streams[c].size());
    phase.outcomes[c].done_s.reserve(phase.streams[c].size());
  }
  std::atomic<std::size_t> running{n};

  std::latch gate(1);
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      gate.wait();
      const std::vector<StreamOp>& ops = phase.streams[c];
      ConnOutcome& out = phase.outcomes[c];
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= deadline) break;
        ++out.attempted;
        try {
          conns[c]->round_trip(ops[i].frame, out.responses[i]);
        } catch (const std::exception& e) {
          out.latency_ms.push_back(kFailedSample);
          out.error = e.what();
          break;
        }
        const Clock::time_point t1 = Clock::now();
        out.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        out.done_s.push_back(seconds_between(start, t1));
        ++out.completed;
        out.last_done = t1;
      }
      --running;
    });
  }
  const ProcSample daemon_before = sample_process(daemon);
  const double client_before = process_cpu_us();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  gate.count_down();
  // Sample both processes' CPU once a second while the load runs.
  phase.daemon_cpu_at.push_back(daemon_before.cpu_us);
  phase.client_cpu_at.push_back(client_before);
  for (int k = 1;; ++k) {
    const auto at = start + std::chrono::seconds(k);
    std::this_thread::sleep_until(at);
    if (running.load() == 0) break;
    phase.daemon_cpu_at.push_back(sample_process(daemon).cpu_us);
    phase.client_cpu_at.push_back(process_cpu_us());
  }
  for (std::thread& t : threads) t.join();
  const ProcSample daemon_after = sample_process(daemon);
  phase.client_cpu_us = process_cpu_us() - client_before;
  phase.daemon_cpu_us = daemon_after.cpu_us - daemon_before.cpu_us;
  Clock::time_point last = start;
  for (std::size_t c = 0; c < n; ++c) {
    last = std::max(last, phase.outcomes[c].last_done);
    if (phase.outcomes[c].completed < phase.streams[c].size()) {
      phase.finished = false;
    }
  }
  phase.window_s = seconds_between(start, last);
  return phase;
}

std::vector<std::vector<StreamOp>> generate_streams(
    const sbx::corpus::TrecLikeGenerator& generator,
    const ServingConfig& config, std::uint64_t seed, std::uint64_t salt,
    std::size_t requests_per_connection, unsigned nproc) {
  std::vector<std::vector<StreamOp>> streams(config.connections);
  parallel_indices(config.connections, nproc, [&](std::size_t c) {
    streams[c] = generate_stream(generator, config, seed, c, salt,
                                 requests_per_connection);
  });
  return streams;
}

std::vector<std::string> daemon_args(const ServingConfig& config,
                                     const std::string& socket_path,
                                     const std::string& data_dir) {
  std::vector<std::string> args = {
      "--listen=unix:" + socket_path,
      "--users=" + std::to_string(config.users),
      "--shards=" + std::to_string(config.shards),
      "--base-size=" + std::to_string(config.base.base_size),
      "--spam-fraction=" + std::to_string(config.base.spam_fraction),
      "--seed=" + std::to_string(config.base.seed)};
  if (config.durable) {
    args.push_back("--data-dir=" + data_dir);
    args.push_back("--fsync=" + config.fsync);
    args.push_back("--snapshot-every=" + std::to_string(config.snapshot_every));
  }
  return args;
}

RunResult run_serving(const ServingConfig& requested,
                      const RunOptions& options) {
  ServingConfig config = requested;
  config.connections = std::min<std::size_t>(config.connections,
                                             std::max(1u, options.nproc));
  std::printf("config: %s\n", config_json(config).c_str());
  const sbx::corpus::TrecLikeGenerator generator;

  // Set-up time: spawn until the daemon answers.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  const auto spawn = [&](int k) {
    const std::string dir = "data-" + std::to_string(k);
    fs::remove_all(dir);
    daemon = std::make_unique<Daemon>(options.daemon,
                                      daemon_args(config, kSocket, dir),
                                      kSocket, kDaemonLog);
    setup.push_back(daemon->setup_seconds());
    return dir;
  };
  std::string data_dir;
  for (int k = 0; k < kSetupSpawnsBefore; ++k) {
    if (daemon) daemon->shutdown();
    data_dir = spawn(k);
  }

  // Warm-up (classify only, unmeasured): fills the daemon's caches.
  ServingConfig warm_config = config;
  warm_config.mutation_share = 0;
  drive_load(kSocket, daemon->pid(),
             generate_streams(generator, warm_config, options.seed, 1,
                              kWarmupRequests, options.nproc),
             60.0);

  const std::size_t per_conn = static_cast<std::size_t>(
      options.seconds *
      static_cast<double>(config.requests_per_connection_second));
  const auto gen_start = Clock::now();
  auto streams = generate_streams(generator, config, options.seed, 2,
                                  per_conn, options.nproc);
  std::printf("stream: %zu requests per connection generated in %.2f s\n",
              per_conn, seconds_between(gen_start, Clock::now()));

  LoadPhase run = drive_load(kSocket, daemon->pid(), std::move(streams),
                             kDeadlineFactor * options.seconds);
  const StatsResponse stats = query_stats(kSocket);
  const ProcSample end = sample_process(daemon->pid());
  const long long rss_kb = settled_rss_kb(kSocket, daemon->pid());
  const int exit_status = daemon->shutdown();
  for (int k = 0; k < kSetupSpawnsAfter; ++k) {
    spawn(kSetupSpawnsBefore + k);
    daemon->shutdown();
  }

  // --- After the clock: verify every response against the mirror. -------
  const auto verify_start = Clock::now();
  const sbx::spambayes::Filter base =
      sbx::serve::build_base_filter(config.base);
  sbx::serve::ServeFrontend mirror(base, frontend_config(config));
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> by_user(
      config.users);
  std::vector<std::vector<char>> op_failed(run.streams.size());
  for (std::size_t c = 0; c < run.streams.size(); ++c) {
    op_failed[c].assign(run.outcomes[c].attempted, 0);
    for (std::size_t i = 0; i < run.outcomes[c].attempted; ++i) {
      if (i >= run.outcomes[c].completed) {
        op_failed[c][i] = 1;  // lost to an I/O failure
        continue;
      }
      by_user[run.streams[c][i].user].emplace_back(c, i);
    }
  }
  std::atomic<std::uint64_t> error_responses{0};
  std::atomic<std::uint64_t> mismatches{0};
  parallel_indices(config.users, options.nproc, [&](std::size_t u) {
    for (const auto& [c, i] : by_user[u]) {
      const Response local =
          mirror.dispatch(decode_frame_request(run.streams[c][i].frame));
      Response remote;
      try {
        remote = sbx::serve::decode_response(run.outcomes[c].responses[i]);
      } catch (const std::exception&) {
        remote = ErrorResponse{"undecodable response"};
      }
      if (std::holds_alternative<ErrorResponse>(remote)) {
        ++error_responses;
        op_failed[c][i] = 1;
      } else if (!same_response(remote, local)) {
        ++mismatches;
        op_failed[c][i] = 1;
      }
    }
  });

  // The data dir the daemon left must recover to the mirror's state.
  std::uint64_t recovery_checks = 0;
  std::uint64_t recovery_mismatches = 0;
  if (config.durable) {
    sbx::serve::ServeFrontend recovered(base, frontend_config(config));
    sbx::serve::recover(recovered, data_dir, /*repair_torn_tail=*/false);
    const std::vector<std::string> probes =
        probe_messages(generator, options.seed, config.batch);
    for (std::uint64_t u = 0; u < config.users; ++u) {
      ClassifyBatchRequest probe;
      probe.user_id = u;
      probe.messages = probes;
      ++recovery_checks;
      if (!same_response(recovered.dispatch(Request(probe)),
                         mirror.dispatch(Request(probe)))) {
        ++recovery_mismatches;
      }
    }
    ++recovery_checks;
    if (recovered.stats().overlay_users != mirror.stats().overlay_users) {
      ++recovery_mismatches;
    }
  }
  const double verify_s = seconds_between(verify_start, Clock::now());

  // --- Metrics. -----------------------------------------------------------
  std::vector<double> classify_ms;
  std::vector<double> train_ms;
  std::uint64_t attempted = recovery_checks;
  std::uint64_t failed = recovery_mismatches;
  for (std::size_t c = 0; c < run.streams.size(); ++c) {
    const ConnOutcome& out = run.outcomes[c];
    attempted += out.attempted;
    for (std::size_t i = 0; i < out.attempted; ++i) {
      const double ms = op_failed[c][i] ? kFailedSample : out.latency_ms[i];
      failed += op_failed[c][i] ? 1 : 0;
      (run.streams[c][i].kind == OpKind::kClassify ? classify_ms : train_ms)
          .push_back(ms);
    }
    if (!out.error.empty()) {
      std::printf("connection %zu stopped: %s\n", c, out.error.c_str());
    }
  }
  const bool inbox = !config.durable;
  const std::uint64_t classified = run.messages(OpKind::kClassify);
  const std::uint64_t trained =
      run.messages(OpKind::kTrain) + run.messages(OpKind::kUntrain);
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, run.ops()));
  const Tail classify_tail = tail_latency(classify_ms);

  // Rates, CPU per op and the gating op's median are medians over the
  // run's whole seconds (whole-run figures when it is under 3 s long): a
  // slow stretch of a shared machine then moves them less than it moves
  // whole-run totals.
  const std::size_t windows = run.daemon_cpu_at.size() - 1;
  std::vector<double> win_classified(windows, 0);
  std::vector<double> win_ops(windows, 0);
  std::vector<std::vector<double>> win_gating_ms(windows);
  for (std::size_t c = 0; c < run.streams.size(); ++c) {
    for (std::size_t i = 0; i < run.outcomes[c].completed; ++i) {
      const auto w = static_cast<std::size_t>(run.outcomes[c].done_s[i]);
      if (w >= windows) continue;
      const StreamOp& op = run.streams[c][i];
      const bool is_classify = op.kind == OpKind::kClassify;
      win_ops[w] += op.messages;
      if (is_classify) win_classified[w] += op.messages;
      if (is_classify == inbox) {
        win_gating_ms[w].push_back(
            op_failed[c][i] ? kFailedSample : run.outcomes[c].latency_ms[i]);
      }
    }
  }
  const auto per_op = [&](const std::vector<double>& cpu_at) {
    std::vector<double> out;
    for (std::size_t w = 0; w < windows; ++w) {
      if (win_ops[w] > 0) {
        out.push_back((cpu_at[w + 1] - cpu_at[w]) / win_ops[w]);
      }
    }
    return median(out);
  };
  std::vector<double> win_p50;
  for (const auto& samples : win_gating_ms) {
    if (!samples.empty()) win_p50.push_back(median(samples));
  }
  const bool windowed = windows >= 3 && !win_p50.empty();
  const double msgs_per_s =
      windowed ? median(win_classified)
               : static_cast<double>(classified) / std::max(run.window_s, 1e-9);
  const double server_cpu =
      windowed ? per_op(run.daemon_cpu_at) : run.daemon_cpu_us / ops;
  const double client_cpu =
      windowed ? per_op(run.client_cpu_at) : run.client_cpu_us / ops;
  const std::vector<double>& gating = inbox ? classify_ms : train_ms;
  const double gating_p50 = windowed ? median(win_p50) : median(gating);

  // The gating op's tail: the tail of each window of `span` whole seconds,
  // `span` chosen so a window holds about kTailWindowSamples samples, then
  // the median over those windows (the whole-run tail with fewer than 3).
  std::size_t gating_done = 0;
  for (const auto& samples : win_gating_ms) gating_done += samples.size();
  const std::size_t span = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(
             kTailWindowSamples * static_cast<double>(windows) /
             static_cast<double>(std::max<std::size_t>(1, gating_done)))));
  std::vector<double> win_tails;
  double tail_percentile = 100;
  for (std::size_t w = 0; w + span <= windows; w += span) {
    std::vector<double> merged;
    for (std::size_t k = w; k < w + span; ++k) {
      merged.insert(merged.end(), win_gating_ms[k].begin(),
                    win_gating_ms[k].end());
    }
    const Tail t = tail_latency(merged);
    win_tails.push_back(t.value);
    tail_percentile = std::min(tail_percentile, t.percentile);
  }
  const Tail whole_run_tail = tail_latency(gating);
  const bool windowed_tail = win_tails.size() >= 3;
  const double gating_tail =
      windowed_tail ? median(win_tails) : whole_run_tail.value;
  if (!windowed_tail) tail_percentile = whole_run_tail.percentile;
  const double peak_rss_mb = static_cast<double>(end.hwm_kb) / 1024.0;
  const double rss_mb = static_cast<double>(rss_kb) / 1024.0;
  const double failed_share =
      static_cast<double>(failed) /
      static_cast<double>(std::max<std::uint64_t>(1, attempted));

  std::printf("%s: %.2f s window, %llu messages classified, %llu trained, "
              "%llu ops attempted, %llu failed (%llu error responses, %llu "
              "mismatches, %llu recovery mismatches); verified in %.2f s\n",
              config.name.c_str(), run.window_s,
              static_cast<unsigned long long>(classified),
              static_cast<unsigned long long>(trained),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(error_responses.load()),
              static_cast<unsigned long long>(mismatches.load()),
              static_cast<unsigned long long>(recovery_mismatches), verify_s);
  std::printf("rates, CPU per op and the %s median: medians over %zu "
              "one-second windows%s\n",
              inbox ? "classify" : "train", windows,
              windowed ? "" : " (too few: whole-run figures)");
  std::printf("%s tail: median over %zu windows of %zu s of each window's "
              "tail (lowest percentile used: p%g)%s\n",
              inbox ? "classify" : "train", win_tails.size(), span,
              tail_percentile,
              windowed_tail ? "" : " (too few: whole-run tail)");
  if (!run.finished) {
    std::printf("note: the stream did not finish within %.0f s; the "
                "metrics cover the part that did\n",
                kDeadlineFactor * options.seconds);
  }
  std::printf("report:\n");
  print_metric("setup_s", median(setup), "s");
  print_metric("msgs_per_s", msgs_per_s, "msgs/s");
  print_metric("classify_p50_ms",
               inbox ? gating_p50 : median(classify_ms), "ms");
  if (inbox) {
    print_metric("classify_p99_ms", gating_tail, "ms");
  } else {
    std::printf("  %-40s %.6g ms (whole run, p%g of %zu samples)\n",
                "classify_p99_ms", classify_tail.value,
                classify_tail.percentile, classify_tail.samples);
    print_metric("train_p50_ms", gating_p50, "ms");
    print_metric("train_p99_ms", gating_tail, "ms");
  }
  print_metric("server_cpu_us_per_op", server_cpu, "us");
  print_metric("server_peak_rss_mb", peak_rss_mb, "MB");
  print_metric("server_rss_mb (after the load)", rss_mb, "MB");
  print_metric("failed_share", failed_share, "share");
  print_metric("bench.client_cpu_us_per_op", client_cpu, "us");
  if (config.durable) {
    std::printf("  daemon stats: %llu wal records, %llu group-commit windows, "
                "%llu snapshots, %llu incremental snapshot bytes\n",
                static_cast<unsigned long long>(stats.wal_records),
                static_cast<unsigned long long>(stats.group_commit_windows),
                static_cast<unsigned long long>(stats.wal_snapshots),
                static_cast<unsigned long long>(
                    stats.incremental_snapshot_bytes));
  }
  if (client_cpu > server_cpu) {
    std::printf("WARNING: the load process used more CPU per op (%.1f us) "
                "than the daemon (%.1f us): the generator, not the daemon, "
                "may be what got measured\n",
                client_cpu, server_cpu);
  }

  RunResult result;
  result.attempted = attempted;
  result.failed = failed;
  result.correct = failed == 0 && exit_status == 0;
  result.add("setup_s", median(setup), "s");
  result.add("cpu_us_per_op", server_cpu, "us");
  result.add("rss_mb", rss_mb, "MB");
  return result;
}

LiveProbe live_probe(const ServingConfig& requested,
                     const RunOptions& options, const std::string& tag,
                     double seconds) {
  ServingConfig config = requested;
  config.connections = std::min<std::size_t>(config.connections,
                                             std::max(1u, options.nproc));
  const sbx::corpus::TrecLikeGenerator generator;
  const std::string data_dir = "probe-" + tag;
  fs::remove_all(data_dir);
  Daemon daemon(options.daemon, daemon_args(config, kSocket, data_dir),
                kSocket, kDaemonLog);
  LiveProbe probe;
  {
    Connection conn(kSocket);
    const std::vector<std::uint8_t> frame =
        sbx::serve::encode_frame(Request(sbx::serve::StatsRequest{}));
    std::vector<std::uint8_t> payload;
    std::vector<double> rtt;
    for (int i = 0; i < 1000; ++i) {
      const auto t0 = Clock::now();
      conn.round_trip(frame, payload);
      rtt.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    }
    probe.rtt_us = median(rtt);
  }
  const long long rss_before = settled_rss_kb(kSocket, daemon.pid());
  const LoadPhase phase = drive_load(
      kSocket, daemon.pid(),
      generate_streams(generator, config, options.seed, 3, 600, options.nproc),
      seconds);
  probe.stats = query_stats(kSocket);
  probe.rss_growth_kb =
      static_cast<double>(settled_rss_kb(kSocket, daemon.pid()) - rss_before);
  probe.ops = phase.ops();
  probe.client_cpu_us = phase.client_cpu_us;
  probe.daemon_cpu_us = phase.daemon_cpu_us;
  for (std::size_t c = 0; c < phase.streams.size(); ++c) {
    const ConnOutcome& out = phase.outcomes[c];
    probe.failed += out.attempted - out.completed;
    for (std::size_t i = 0; i < out.completed; ++i) {
      if (std::holds_alternative<ErrorResponse>(
              sbx::serve::decode_response(out.responses[i]))) {
        ++probe.failed;
      }
    }
  }
  if (daemon.shutdown() != 0) ++probe.failed;
  return probe;
}

}  // namespace sbxbench
