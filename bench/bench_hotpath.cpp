// bench_hotpath: machine-readable perf baselines for the hot paths the
// interning + score-engine refactors target — classification (msgs/sec)
// through Classifier's id forward and the generation-cached ScoreEngine it
// reaches (single-message and zero-alloc batch), train/untrain round trips
// (ops/sec) and tokenization (MB/s; one ham probe to a string set and to an
// id set, and the served message mix both interning and lookup-only) — plus
// the serving layer's per-user overlay: copy-on-write train (ops/sec) and
// base + overlay scoring (msgs/sec).
//
// Unlike bench_micro (google-benchmark, optional dependency), this binary
// always builds and emits JSON for the tracked BENCH_baseline.json
// regression gate (tools/check_bench.py compares a fresh run against the
// committed baseline and fails CI on >25% throughput regression).
//
//   $ ./bench_hotpath [--quick] [--min-seconds=S] [--json=PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "spambayes/filter.h"
#include "spambayes/score_engine.h"
#include "spambayes/sparse_token_db.h"
#include "util/random.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Runs `op` in growing batches until at least `min_seconds` of wall clock
/// has been spent, returning operations per second.
template <typename Op>
double ops_per_sec(double min_seconds, Op&& op) {
  // Warm-up: touch caches/pages, and give the optimizer-visible state its
  // steady shape.
  for (int i = 0; i < 3; ++i) op();
  std::size_t batch = 8;
  std::size_t total_ops = 0;
  double total_sec = 0.0;
  while (total_sec < min_seconds) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) op();
    total_sec += std::chrono::duration<double>(Clock::now() - start).count();
    total_ops += batch;
    if (batch < (std::size_t{1} << 20)) batch *= 2;
  }
  return static_cast<double>(total_ops) / total_sec;
}

volatile double g_sink = 0.0;  // keeps scores observable

struct Metric {
  std::string name;
  double value = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  double min_seconds = 0.4;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      min_seconds = 0.08;
    } else if (std::strncmp(arg, "--min-seconds=", 14) == 0) {
      min_seconds = std::atof(arg + 14);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("usage: %s [--quick] [--min-seconds=S] [--json=PATH]\n",
                  argv[0]);
      return 0;
    }
  }

  using namespace sbx;
  const corpus::TrecLikeGenerator gen;
  const spambayes::Tokenizer tok;

  // --- classification: 400-message filter, fresh ham probe ---------------
  // (the same workload bench_micro's BM_ClassifyMessageInterned uses)
  util::Rng rng(4);
  spambayes::Filter filter;
  for (int i = 0; i < 200; ++i) {
    filter.train_ham_ids(tok.tokenize_id_set(gen.generate_ham(rng)));
    filter.train_spam_ids(tok.tokenize_id_set(gen.generate_spam(rng)));
  }
  const spambayes::TokenIdSet probe_ids =
      tok.tokenize_id_set(gen.generate_ham(rng));

  // The probe goes through Classifier's forward to the calling thread's
  // ScoreEngine, warm after the first call: it measures the forward
  // (copying evidence out) on top of the memoized engine. There is no
  // uncached scorer left to measure.
  const double classify_interned = ops_per_sec(min_seconds, [&] {
    g_sink = filter.classifier().score_ids(filter.database(), probe_ids).score;
  });

  // Engine path: same probe against the same static database; the memoized
  // per-token probabilities/log-terms stay warm across calls, which is
  // exactly the experiment-loop shape (thousands of classifies between
  // training events).
  spambayes::ScoreEngine engine(filter.options().classifier);
  const double classify_engine = ops_per_sec(min_seconds, [&] {
    g_sink = engine.score_ids(filter.database(), probe_ids).score;
  });

  // Batch path: 64 distinct fresh messages per op through the zero-alloc
  // sink API (per-message evidence buffers reused across the batch).
  std::vector<spambayes::TokenIdSet> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(tok.tokenize_id_set(i % 2 == 0 ? gen.generate_ham(rng)
                                                   : gen.generate_spam(rng)));
  }
  const double classify_engine_batch =
      ops_per_sec(min_seconds,
                  [&] {
                    double acc = 0.0;
                    engine.score_ids_batch(
                        filter.database(), batch,
                        [&](std::size_t, const spambayes::BatchScore& s) {
                          acc += s.score;
                        });
                    g_sink = acc;
                  }) *
      static_cast<double>(batch.size());

  // --- train/untrain round trip (RONI's inner loop shape) ----------------
  util::Rng train_rng(3);
  const spambayes::TokenIdSet spam_ids =
      tok.tokenize_id_set(gen.generate_spam(train_rng));

  const double train_interned = ops_per_sec(min_seconds, [&] {
    filter.train_spam_ids(spam_ids);
    filter.untrain_spam_ids(spam_ids);
  });

  // --- tokenization (message -> deduplicated token set: the string
  // reference unique_tokens(tokenize()) vs the one-pass tokenize_id_set) --
  util::Rng tok_rng(1);
  const email::Message ham_msg = gen.generate_ham(tok_rng);
  const double msg_mb =
      static_cast<double>(email::render_message(ham_msg).size()) / 1.0e6;

  const double tokenize_string =
      ops_per_sec(min_seconds,
                  [&] {
                    g_sink = spambayes::unique_tokens(tok.tokenize(ham_msg))
                                 .size();
                  }) *
      msg_mb;
  const double tokenize_ids =
      ops_per_sec(min_seconds,
                  [&] { g_sink = tok.tokenize_id_set(ham_msg).size(); }) *
      msg_mb;

  // --- tokenization on the served mix: generator ham and spam 50/50, every
  // 20th message a spam carrying 16 random words no vocabulary holds (a
  // hash-buster). Lookup-only runs first, so the hash-busters' words are
  // still unseen there, as they are for a daemon's classify traffic; the
  // interning pass then interns them once and runs warm. ---------------
  std::vector<email::Message> mix;
  double mix_mb = 0.0;
  util::Rng mix_rng(6);
  for (int i = 0; i < 200; ++i) {
    email::Message m = i % 2 == 0 ? gen.generate_ham(mix_rng)
                                  : gen.generate_spam(mix_rng);
    if (i % 20 == 19) {
      std::string body = m.body() + "\n";
      for (int w = 0; w < 16; ++w) {
        const std::size_t len = 7 + mix_rng.index(5);
        for (std::size_t c = 0; c < len; ++c) {
          body.push_back(static_cast<char>('a' + mix_rng.index(26)));
        }
        body.push_back(w == 15 ? '\n' : ' ');
      }
      m.set_body(std::move(body));
    }
    mix_mb += static_cast<double>(email::render_message(m).size()) / 1.0e6;
    mix.push_back(std::move(m));
  }
  const auto tokenize_mix = [&](spambayes::IdMode mode) {
    return ops_per_sec(min_seconds,
                       [&] {
                         std::size_t ids = 0;
                         for (const email::Message& m : mix) {
                           ids += tok.tokenize_id_set(m, mode).size();
                         }
                         g_sink = static_cast<double>(ids);
                       }) *
           mix_mb;
  };
  const double tokenize_mix_lookup =
      tokenize_mix(spambayes::IdMode::kLookupOnly);
  const double tokenize_mix_ids = tokenize_mix(spambayes::IdMode::kIntern);

  // --- serving overlay: one user's copy-on-write feedback ---------------
  // Measured last, after ~1M filler ids are interned, so the ids this
  // user's feedback brings lie past them — where an overlay indexed by
  // global id would copy ~1M entries per train. The user holds 110 trains
  // (a feedback_durable user's share); a train copies the published
  // overlay and trains the copy, as serve::UserModel::prepare does.
  for (int i = 0; i < 1'000'000; ++i) {
    spambayes::global_interner().intern("filler-" + std::to_string(i));
  }
  util::Rng overlay_rng(5);
  spambayes::SparseTokenDatabase overlay;
  for (int i = 0; i < 110; ++i) {
    overlay.train_spam_ids(tok.tokenize_id_set(
        i % 2 == 0 ? gen.generate_spam(overlay_rng)
                   : gen.generate_ham(overlay_rng)));
  }
  const spambayes::TokenIdSet feedback_ids =
      tok.tokenize_id_set(gen.generate_spam(overlay_rng));
  const double overlay_cow_train = ops_per_sec(min_seconds, [&] {
    auto next = std::make_shared<spambayes::SparseTokenDatabase>(overlay);
    next->train_spam_ids(feedback_ids);
    g_sink = next->spam_count();
  });
  const spambayes::TokenIdSet overlay_probe =
      tok.tokenize_id_set(gen.generate_ham(overlay_rng));
  const double overlay_score = ops_per_sec(min_seconds, [&] {
    g_sink = engine.score_ids(filter.database(), overlay, overlay_probe).score;
  });

  // tools/check_bench.py gates the "metrics" that BENCH_baseline.json
  // lists; the speedup ratios are informational only (a future improvement
  // to the string tokenizer would legitimately shrink them).
  const std::vector<Metric> metrics = {
      {"classify_interned_msgs_per_sec", classify_interned},
      {"classify_engine_msgs_per_sec", classify_engine},
      {"classify_engine_batch_msgs_per_sec", classify_engine_batch},
      {"train_untrain_interned_ops_per_sec", train_interned},
      {"tokenize_to_set_string_mb_per_sec", tokenize_string},
      {"tokenize_to_ids_mb_per_sec", tokenize_ids},
      {"tokenize_mix_ids_mb_per_sec", tokenize_mix_ids},
      {"tokenize_mix_lookup_mb_per_sec", tokenize_mix_lookup},
      {"overlay_cow_train_ops_per_sec", overlay_cow_train},
      {"overlay_score_msgs_per_sec", overlay_score},
  };
  const std::vector<Metric> info = {
      {"classify_engine_vs_interned_speedup",
       classify_engine / classify_interned},
      {"tokenize_to_ids_speedup", tokenize_ids / tokenize_string},
  };

  auto emit_block = [](const std::vector<Metric>& block) {
    std::string out;
    for (std::size_t i = 0; i < block.size(); ++i) {
      char line[160];
      std::snprintf(line, sizeof line, "    \"%s\": %.4f%s\n",
                    block[i].name.c_str(), block[i].value,
                    i + 1 < block.size() ? "," : "");
      out += line;
    }
    return out;
  };
  std::string json = "{\n  \"schema\": 1,\n  \"metrics\": {\n";
  json += emit_block(metrics);
  json += "  },\n  \"info\": {\n";
  json += emit_block(info);
  json += "  }\n}\n";

  std::printf("%s", json.c_str());
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << json;
    if (!out) {
      std::fprintf(stderr, "bench_hotpath: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}
