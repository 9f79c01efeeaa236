// sbxbench/streams.h
//
// The serving workloads' request streams. Everything the daemon sees is
// generated here from the benchmark seed and encoded to wire frames before
// any clock starts. Connection c owns the users u with u % connections ==
// c, so one user's requests are one connection's program order — the order
// the verification mirror replays them in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "serve/base_model.h"

namespace sbxbench {

struct ServingConfig {
  std::string name;
  std::size_t connections = 2;
  std::size_t users = 64;
  std::size_t shards = 4;
  std::size_t batch = 8;
  /// Run size: each connection sends seconds x this many requests, about
  /// what it completes in 1-1.5 times that on the reference machine
  /// (README.md).
  /// A fixed amount of work per run keeps memory figures comparable: a
  /// faster daemon finishes sooner instead of taking more input.
  std::size_t requests_per_connection_second = 400;
  /// Share of requests that are Train/Untrain (0 = classify only).
  double mutation_share = 0.0;
  /// Every Nth mutation is an exact Untrain of an earlier Train.
  std::size_t untrain_every = 10;
  /// Every Nth classified message is a hash-buster spam (0 = none).
  std::size_t hash_buster_every = 0;
  std::size_t hash_buster_words = 16;
  /// Durability (empty data dir = in-memory daemon).
  bool durable = false;
  std::string fsync = "batch";
  std::uint64_t snapshot_every = 0;
  sbx::serve::BaseModelConfig base;
};

ServingConfig inbox_classify_config(std::uint64_t seed);
ServingConfig feedback_durable_config(std::uint64_t seed);

enum class OpKind : std::uint8_t { kClassify, kTrain, kUntrain };

/// One pre-encoded request of a connection's stream.
struct StreamOp {
  OpKind kind = OpKind::kClassify;
  std::uint64_t user = 0;
  std::uint32_t messages = 0;          // messages classified or trained
  std::vector<std::uint8_t> frame;     // full frame, length prefix included
};

/// Generates `requests` ops for connection `conn`. Deterministic in
/// (config, seed, conn, salt): the same arguments give byte-identical
/// frames. `salt` separates the warm-up stream from the measured one.
std::vector<StreamOp> generate_stream(
    const sbx::corpus::TrecLikeGenerator& generator,
    const ServingConfig& config, std::uint64_t seed, std::size_t conn,
    std::uint64_t salt, std::size_t requests);

/// Raw messages (ham/spam alternating) for probing a model after the run,
/// e.g. classifying a recovered frontend against the mirror.
std::vector<std::string> probe_messages(
    const sbx::corpus::TrecLikeGenerator& generator, std::uint64_t seed,
    std::size_t count);

/// The configuration as one JSON object (recorded with every result).
std::string config_json(const ServingConfig& config);

}  // namespace sbxbench
