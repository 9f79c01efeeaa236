// roni_defense_demo: §5.1's Reject On Negative Impact defense as a
// training-pipeline gatekeeper.
//
// Incoming training candidates — ordinary ham, ordinary spam and a
// dictionary-attack email — are assessed by measuring their marginal
// impact on held-out validation accuracy before they are allowed into the
// training set. The attack email craters validation accuracy and is
// rejected; real mail passes.
//
//   $ ./roni_defense_demo
#include <cstdio>

#include "core/dictionary_attack.h"
#include "core/roni.h"
#include "corpus/generator.h"
#include "spambayes/filter.h"
#include "util/random.h"

int main() {
  using namespace sbx;

  corpus::TrecLikeGenerator generator;
  util::Rng rng(4242);

  // The clean pool RONI samples its measurement sets from.
  std::printf("sampling a 600-message clean pool (50%% spam)...\n");
  corpus::Dataset pool_data = generator.sample_mailbox(600, 0.5, rng);
  spambayes::Tokenizer tokenizer;
  corpus::TokenizedDataset pool =
      corpus::tokenize_dataset(pool_data, tokenizer);

  core::RoniDefense defense(core::RoniConfig{}, spambayes::FilterOptions{});
  std::printf("RONI config: |T|=%zu, |V|=%zu, %zu resamples, reject when "
              "mean ham-as-ham decrease > %.1f\n\n",
              defense.config().train_size, defense.config().validation_size,
              defense.config().resamples,
              defense.config().rejection_threshold);

  auto assess = [&](const email::Message& msg, const char* tag) {
    auto ids = tokenizer.tokenize_id_set(msg);
    util::Rng assess_rng = rng.fork(ids.size());
    core::RoniAssessment a = defense.assess(ids, pool, assess_rng);
    std::printf("  %-26s impact %+6.2f ham-as-ham  ->  %s\n", tag,
                a.mean_ham_as_ham_decrease,
                a.rejected ? "REJECTED from training" : "admitted");
  };

  std::printf("assessing training candidates:\n");
  assess(generator.generate_ham(rng), "ordinary ham:");
  assess(generator.generate_ham(rng), "another ham:");
  assess(generator.generate_spam(rng), "ordinary spam:");
  assess(generator.generate_spam(rng), "another spam:");

  core::DictionaryAttack usenet =
      core::DictionaryAttack::usenet(generator.lexicons());
  assess(usenet.attack_message(), "usenet dictionary attack:");
  core::DictionaryAttack aspell =
      core::DictionaryAttack::aspell(generator.lexicons());
  assess(aspell.attack_message(), "aspell dictionary attack:");

  std::printf(
      "\nThe dictionary attacks stick out by an order of magnitude —\n"
      "training on a single one already knocks several validation ham\n"
      "messages into the spam folder. As the paper notes, RONI cannot\n"
      "catch the focused attack this way: its damage only shows on the\n"
      "one future target email, which is not in any validation set.\n");
  return 0;
}
