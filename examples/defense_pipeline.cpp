// defense_pipeline: composing both of the paper's defenses into a hardened
// retraining pipeline, then stress-testing it against the dictionary and
// focused attacks.
//
// The pipeline mirrors §2.1's weekly-retraining scenario:
//   1. candidate training mail arrives (user-labeled ham/spam);
//   2. RONI screens every spam-labeled candidate (§5.1);
//   3. the filter retrains on what survives;
//   4. classification thresholds are re-derived from the (possibly still
//      poisoned) training set (§5.2).
//
// The run shows exactly what the paper found: the combination stops the
// dictionary attack cold, while the focused attack slips through RONI.
//
//   $ ./defense_pipeline
#include <cstdio>
#include <vector>

#include "core/attack_registry.h"
#include "core/dictionary_attack.h"
#include "core/dynamic_threshold.h"
#include "core/focused_attack.h"
#include "core/roni.h"
#include "corpus/generator.h"
#include "eval/metrics.h"
#include "spambayes/filter.h"
#include "util/random.h"

namespace {

using namespace sbx;

struct Candidate {
  email::Message message;
  bool labeled_spam = false;
};

/// The hardened retraining pipeline.
class DefendedTrainer {
 public:
  DefendedTrainer(const corpus::TokenizedDataset& clean_pool, util::Rng rng)
      : roni_(core::RoniConfig{}, spambayes::FilterOptions{}),
        clean_pool_(clean_pool),
        rng_(rng) {}

  /// Returns true when the candidate was admitted to training. Takes the
  /// candidate's cached interned token set — each message is tokenized
  /// exactly once for the whole pipeline (RONI gate, training and the
  /// threshold derivation below all reuse it).
  bool offer(spambayes::Filter& filter, const corpus::TokenizedMessage& c) {
    if (c.label == corpus::TrueLabel::spam) {
      util::Rng assess_rng = rng_.fork(++counter_);
      if (roni_.assess(c.ids, clean_pool_, assess_rng).rejected) {
        ++rejected_;
        return false;
      }
      filter.train_spam_ids(c.ids);
    } else {
      filter.train_ham_ids(c.ids);
    }
    return true;
  }

  std::size_t rejected() const { return rejected_; }

 private:
  core::RoniDefense roni_;
  const corpus::TokenizedDataset& clean_pool_;
  util::Rng rng_;
  std::uint64_t counter_ = 0;
  std::size_t rejected_ = 0;
};

double ham_misclassified_pct(const corpus::TrecLikeGenerator& gen,
                             const spambayes::Filter& filter,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  int bad = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    if (filter.classify(gen.generate_ham(rng)).verdict !=
        spambayes::Verdict::ham) {
      ++bad;
    }
  }
  return 100.0 * bad / n;
}

}  // namespace

int main() {
  corpus::TrecLikeGenerator generator;
  util::Rng rng(31337);

  // Last week's vetted mail doubles as RONI's measurement pool.
  corpus::Dataset pool = generator.sample_mailbox(600, 0.5, rng);
  spambayes::Tokenizer tokenizer;
  corpus::TokenizedDataset tokenized_pool =
      corpus::tokenize_dataset(pool, tokenizer);

  // This week's inbound training batch: 1,000 legitimate candidates plus a
  // 1%-scale dictionary attack and a focused attack on one future email.
  std::vector<Candidate> batch;
  std::vector<email::Message> spam_headers;
  for (int i = 0; i < 500; ++i) {
    batch.push_back({generator.generate_ham(rng), false});
    email::Message s = generator.generate_spam(rng);
    if (spam_headers.size() < 40) spam_headers.push_back(s);
    batch.push_back({std::move(s), true});
  }
  core::DictionaryAttack dictionary =
      core::DictionaryAttack::usenet(generator.lexicons());
  for (int i = 0; i < 10; ++i) {
    batch.push_back({dictionary.attack_message(), true});
  }
  email::Message bid = generator.generate_ham(rng);  // the focused target
  const core::Attack& focused = core::builtin_attack_registry().get("focused");
  const util::Config focused_params = focused.default_params();  // p = 0.5
  const spambayes::TokenSet bid_words =
      core::attackable_body_words(bid, tokenizer);
  std::vector<const email::Message*> header_pool;
  for (const auto& s : spam_headers) header_pool.push_back(&s);
  core::CraftContext ctx{generator, focused_params, rng,         60,
                         &bid,      &bid_words,     &header_pool};
  for (auto& m : focused.craft_poison(ctx)) {
    batch.push_back({std::move(m), true});
  }
  util::Rng shuffle_rng = rng.fork(1);
  shuffle_rng.shuffle(batch);

  // Tokenize the whole batch once; every later stage (undefended training,
  // the RONI gate, defended training, threshold derivation) reuses these
  // interned sets instead of re-tokenizing the same messages.
  corpus::TokenizedDataset batch_tokens;
  std::vector<std::size_t> indices;
  for (const auto& c : batch) {
    batch_tokens.items.emplace_back(
        tokenizer.tokenize_id_set(c.message),
        c.labeled_spam ? corpus::TrueLabel::spam : corpus::TrueLabel::ham);
    indices.push_back(batch_tokens.items.size() - 1);
  }

  // --- undefended retraining ---
  spambayes::Filter undefended;
  for (const auto& c : batch_tokens.items) {
    if (c.label == corpus::TrueLabel::spam) {
      undefended.train_spam_ids(c.ids);
    } else {
      undefended.train_ham_ids(c.ids);
    }
  }

  // --- defended retraining ---
  spambayes::Filter defended;
  DefendedTrainer trainer(tokenized_pool, rng.fork(2));
  for (const auto& c : batch_tokens.items) trainer.offer(defended, c);
  // Re-derive thresholds from this week's training batch (defense #2).
  util::Rng split_rng = rng.fork(3);
  core::ThresholdPair thresholds = core::compute_dynamic_thresholds(
      batch_tokens, indices, {}, spambayes::FilterOptions{}, {0.05, 0.95},
      split_rng);
  defended.set_cutoffs(thresholds.theta0, thresholds.theta1);

  std::size_t spam_labeled = 0;
  for (const auto& c : batch_tokens.items) {
    spam_labeled += c.label == corpus::TrueLabel::spam ? 1 : 0;
  }
  std::printf("RONI rejected %zu of %zu spam-labeled candidates "
              "(the batch hid 10 dictionary + 60 focused attack emails)\n",
              trainer.rejected(), spam_labeled);
  std::printf("dynamic thresholds: theta0=%.3f theta1=%.3f "
              "(static: 0.150/0.900)\n\n",
              thresholds.theta0, thresholds.theta1);

  std::printf("fresh ham misclassified (spam or unsure):\n");
  std::printf("  undefended filter: %5.1f%%\n",
              ham_misclassified_pct(generator, undefended, 555));
  std::printf("  defended filter:   %5.1f%%\n\n",
              ham_misclassified_pct(generator, defended, 555));

  auto report_bid = [&](const spambayes::Filter& f, const char* tag) {
    auto r = f.classify(bid);
    std::printf("  %-20s score %.3f -> %s\n", tag, r.score,
                std::string(spambayes::to_string(r.verdict)).c_str());
  };
  std::printf("the focused-attack target (a future bid email):\n");
  report_bid(undefended, "undefended filter:");
  report_bid(defended, "defended filter:");
  std::printf(
      "\nRONI caught every dictionary email but admitted all 60 focused\n"
      "attack emails — their damage is invisible on validation sets that\n"
      "do not contain the target (§5.1). The target's token scores remain\n"
      "poisoned in the defended filter; whether it survives depends on\n"
      "where the adaptive thresholds land for this batch. Run\n"
      "`sbx_experiments figure fig3_focused_size` for the systematic\n"
      "sweep.\n");
  return 0;
}
