// Micro-benchmarks (google-benchmark) for the core operations every
// experiment leans on: tokenization, training, untraining, batched
// training, classification, chi-square evaluation, Zipf sampling and corpus
// generation. These quantify why the experiment harness is fast enough to
// run the paper's full parameter sweeps in seconds.
#include <benchmark/benchmark.h>

#include "core/dictionary_attack.h"
#include "corpus/generator.h"
#include "spambayes/filter.h"
#include "spambayes/score_engine.h"
#include "util/random.h"
#include "util/stats.h"

namespace {

const sbx::corpus::TrecLikeGenerator& shared_generator() {
  static const sbx::corpus::TrecLikeGenerator gen;
  return gen;
}

void BM_TokenizeHamMessage(benchmark::State& state) {
  sbx::util::Rng rng(1);
  const auto msg = shared_generator().generate_ham(rng);
  const sbx::spambayes::Tokenizer tok;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.tokenize(msg));
  }
}
BENCHMARK(BM_TokenizeHamMessage);

void BM_TokenizeHamMessageToIds(benchmark::State& state) {
  sbx::util::Rng rng(1);
  const auto msg = shared_generator().generate_ham(rng);
  const sbx::spambayes::Tokenizer tok;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.tokenize_ids(msg));
  }
}
BENCHMARK(BM_TokenizeHamMessageToIds);

void BM_TrainHamMessageInterned(benchmark::State& state) {
  sbx::util::Rng rng(2);
  const auto msg = shared_generator().generate_ham(rng);
  const sbx::spambayes::Tokenizer tok;
  const auto ids = tok.tokenize_id_set(msg);
  sbx::spambayes::Filter filter;
  for (auto _ : state) {
    filter.train_ham_ids(ids);
  }
}
BENCHMARK(BM_TrainHamMessageInterned);

void BM_TrainUntrainRoundTripInterned(benchmark::State& state) {
  sbx::util::Rng rng(3);
  const auto msg = shared_generator().generate_spam(rng);
  const sbx::spambayes::Tokenizer tok;
  const auto ids = tok.tokenize_id_set(msg);
  sbx::spambayes::Filter filter;
  for (auto _ : state) {
    filter.train_spam_ids(ids);
    filter.untrain_spam_ids(ids);
  }
}
BENCHMARK(BM_TrainUntrainRoundTripInterned);

void BM_DictionaryBatchTrainInterned(benchmark::State& state) {
  const auto& gen = shared_generator();
  const sbx::core::DictionaryAttack attack =
      sbx::core::DictionaryAttack::aspell(gen.lexicons());
  const sbx::spambayes::Tokenizer tok;
  const auto ids = tok.tokenize_id_set(attack.attack_message());
  for (auto _ : state) {
    sbx::spambayes::Filter filter;
    filter.train_spam_ids(ids, 101);  // 1% of a 10k inbox, one update
    benchmark::DoNotOptimize(filter.database().vocabulary_size());
  }
}
BENCHMARK(BM_DictionaryBatchTrainInterned);

// Classifier::score_ids forwards to the thread's memoized ScoreEngine.
void BM_ClassifyMessageInterned(benchmark::State& state) {
  sbx::util::Rng rng(4);
  const auto& gen = shared_generator();
  sbx::spambayes::Filter filter;
  const sbx::spambayes::Tokenizer tok;
  for (int i = 0; i < 200; ++i) {
    filter.train_ham_ids(tok.tokenize_id_set(gen.generate_ham(rng)));
    filter.train_spam_ids(tok.tokenize_id_set(gen.generate_spam(rng)));
  }
  const auto probe = tok.tokenize_id_set(gen.generate_ham(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        filter.classifier().score_ids(filter.database(), probe).score);
  }
}
BENCHMARK(BM_ClassifyMessageInterned);

void BM_ClassifyMessageEngine(benchmark::State& state) {
  sbx::util::Rng rng(4);
  const auto& gen = shared_generator();
  sbx::spambayes::Filter filter;
  const sbx::spambayes::Tokenizer tok;
  for (int i = 0; i < 200; ++i) {
    filter.train_ham_ids(tok.tokenize_id_set(gen.generate_ham(rng)));
    filter.train_spam_ids(tok.tokenize_id_set(gen.generate_spam(rng)));
  }
  const auto probe = tok.tokenize_id_set(gen.generate_ham(rng));
  sbx::spambayes::ScoreEngine engine(filter.options().classifier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.score_ids(filter.database(), probe).score);
  }
}
BENCHMARK(BM_ClassifyMessageEngine);

void BM_ClassifyBatch64Engine(benchmark::State& state) {
  sbx::util::Rng rng(4);
  const auto& gen = shared_generator();
  sbx::spambayes::Filter filter;
  const sbx::spambayes::Tokenizer tok;
  for (int i = 0; i < 200; ++i) {
    filter.train_ham_ids(tok.tokenize_id_set(gen.generate_ham(rng)));
    filter.train_spam_ids(tok.tokenize_id_set(gen.generate_spam(rng)));
  }
  std::vector<sbx::spambayes::TokenIdSet> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(tok.tokenize_id_set(i % 2 == 0 ? gen.generate_ham(rng)
                                                   : gen.generate_spam(rng)));
  }
  sbx::spambayes::ScoreEngine engine(filter.options().classifier);
  for (auto _ : state) {
    double acc = 0.0;
    engine.score_ids_batch(
        filter.database(), batch,
        [&](std::size_t, const sbx::spambayes::BatchScore& s) {
          acc += s.score;
        });
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ClassifyBatch64Engine);

void BM_Chi2EvenDof(benchmark::State& state) {
  double x = 123.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sbx::util::chi2q_even_dof(x, 150));
  }
}
BENCHMARK(BM_Chi2EvenDof);

void BM_ZipfSample(benchmark::State& state) {
  sbx::util::Rng rng(5);
  sbx::util::ZipfSampler zipf(24'000, 1.08, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_GenerateHamEmail(benchmark::State& state) {
  sbx::util::Rng rng(6);
  const auto& gen = shared_generator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_ham(rng));
  }
}
BENCHMARK(BM_GenerateHamEmail);

void BM_GenerateSpamEmail(benchmark::State& state) {
  sbx::util::Rng rng(7);
  const auto& gen = shared_generator();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_spam(rng));
  }
}
BENCHMARK(BM_GenerateSpamEmail);

}  // namespace

BENCHMARK_MAIN();
