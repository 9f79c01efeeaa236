// Tests for the registry's ham-labeled attack: the §2.2 Causative
// Integrity extension.
#include <gtest/gtest.h>

#include "core/attack_registry.h"
#include "core/roni.h"
#include "corpus/generator.h"
#include "spambayes/filter.h"
#include "util/error.h"

namespace sbx::core {
namespace {

class HamLabeledEndToEnd : public ::testing::Test {
 protected:
  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }

  /// The attack email, its donor ham header block drawn from `rng`.
  static CanonicalPoison craft(util::Rng& rng) {
    const Attack& attack = builtin_attack_registry().get("ham-labeled");
    return *attack.canonical_poison(generator(), attack.default_params(),
                                    rng);
  }
};

TEST_F(HamLabeledEndToEnd, TaxonomyAndConstruction) {
  const Attack& attack = builtin_attack_registry().get("ham-labeled");
  EXPECT_EQ(attack.properties().description(),
            "Causative Integrity Indiscriminate");
  EXPECT_EQ(attack.poison_label(), corpus::TrueLabel::ham);

  // The payload is the campaign vocabulary: the spam word list plus the
  // junk tokens, in that order, under a real ham message's headers.
  std::vector<std::string> payload = generator().spam_vocab_words();
  const auto& junk = generator().spam_junk_words();
  payload.insert(payload.end(), junk.begin(), junk.end());
  util::Rng rng(16);
  util::Rng donor_rng(16);
  const CanonicalPoison poison = craft(rng);
  EXPECT_EQ(poison.train_as, corpus::TrueLabel::ham);
  EXPECT_EQ(poison.payload_size, payload.size());
  EXPECT_TRUE(poison.trigger.empty());
  const email::Message donor = generator().generate_ham(donor_rng);
  ASSERT_EQ(poison.message.headers().size(), donor.headers().size());
  for (std::size_t i = 0; i < donor.headers().size(); ++i) {
    EXPECT_EQ(poison.message.headers()[i].name, donor.headers()[i].name);
    EXPECT_EQ(poison.message.headers()[i].value, donor.headers()[i].value);
  }
  EXPECT_EQ(poison.message.body().rfind(payload[0] + " " + payload[1], 0),
            0u);
}

TEST_F(HamLabeledEndToEnd, WhitensCampaignVocabulary) {
  util::Rng rng(17);
  spambayes::Filter filter;
  for (int i = 0; i < 400; ++i) {
    filter.train_ham(generator().generate_ham(rng));
    filter.train_spam(generator().generate_spam(rng));
  }
  const CanonicalPoison attack = craft(rng);

  util::Rng probe_rng(18);
  auto spam_score_mean = [&] {
    double total = 0;
    util::Rng r = probe_rng;  // same probes before and after
    for (int i = 0; i < 50; ++i) {
      total += filter.classify(generator().generate_spam(r)).score;
    }
    return total / 50;
  };
  const double before = spam_score_mean();
  // 2% ham-labeled injection.
  spambayes::Tokenizer tok;
  filter.train_ham_ids(tok.tokenize_id_set(attack.message), 16);
  const double after = spam_score_mean();
  EXPECT_LT(after, before - 0.05);

  // Legitimate ham is unharmed (the attack only ever adds ham evidence).
  util::Rng ham_rng(19);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(filter.classify(generator().generate_ham(ham_rng)).verdict,
              spambayes::Verdict::ham);
  }
}

TEST_F(HamLabeledEndToEnd, InvisibleToRoni) {
  // RONI measures damage to ham classification; the ham-labeled attack
  // *improves* ham classification, so its impact statistic is <= 0.
  util::Rng rng(20);
  corpus::Dataset pool = generator().sample_mailbox(250, 0.5, rng);
  spambayes::Tokenizer tok;
  corpus::TokenizedDataset tokenized = corpus::tokenize_dataset(pool, tok);

  const CanonicalPoison attack = craft(rng);
  RoniDefense roni({}, {});
  auto assessment =
      roni.assess(tok.tokenize_id_set(attack.message), tokenized, rng);
  EXPECT_FALSE(assessment.rejected);
  EXPECT_LE(assessment.mean_ham_as_ham_decrease, 1.0);
}

}  // namespace
}  // namespace sbx::core
