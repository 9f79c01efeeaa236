// Tests for the §3.4 optimal constrained attack (informed_attack) and the
// registry's Exploratory good-word attack.
#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/attack_registry.h"
#include "core/informed_attack.h"
#include "corpus/generator.h"
#include "email/builder.h"
#include "spambayes/filter.h"
#include "support/registry_attacks.h"
#include "util/error.h"

namespace sbx::core {
namespace {

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator gen;
  return gen;
}

TEST(HamWordDistribution, IsAProbabilityDistribution) {
  auto dist = generator().ham_word_distribution();
  ASSERT_FALSE(dist.empty());
  double total = 0;
  std::unordered_set<std::string> seen;
  for (const auto& [word, p] : dist) {
    EXPECT_GT(p, 0.0) << word;
    EXPECT_TRUE(seen.insert(word).second) << "duplicate " << word;
    total += p;
  }
  // Sums to < 1 (numbers/URLs excluded) but close.
  EXPECT_GT(total, 0.85);
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST(HamWordDistribution, TopWordsAreTheHamCoreHead) {
  // The Zipf head of the ham core must dominate the distribution.
  auto dist = generator().ham_word_distribution();
  std::sort(dist.begin(), dist.end(), [](const auto& a, const auto& b) {
    return a.probability > b.probability;
  });
  const auto& core_words = generator().ham_core_words();
  std::unordered_set<std::string> head(core_words.begin(),
                                       core_words.begin() + 100);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 50; ++i) hits += head.count(dist[i].word);
  EXPECT_GT(hits, 40u);
}

TEST(InformedAttack, PicksHighestProbabilityWords) {
  std::vector<corpus::TrecLikeGenerator::WordProbability> dist = {
      {"rare", 0.01}, {"common", 0.5}, {"mid", 0.2}, {"tie-b", 0.1},
      {"tie-a", 0.1}};
  DictionaryAttack attack = make_informed_attack(dist, 3);
  EXPECT_EQ(attack.name(), "informed-3");
  EXPECT_EQ(attack.dictionary_size(), 3u);
  const std::string& body = attack.attack_message().body();
  EXPECT_NE(body.find("common"), std::string::npos);
  EXPECT_NE(body.find("mid"), std::string::npos);
  EXPECT_NE(body.find("tie-a"), std::string::npos);  // lexicographic tie-break
  EXPECT_EQ(body.find("tie-b"), std::string::npos);
  EXPECT_EQ(body.find("rare"), std::string::npos);
}

TEST(InformedAttack, BudgetValidation) {
  std::vector<corpus::TrecLikeGenerator::WordProbability> dist = {
      {"a", 0.5}, {"b", 0.5}};
  EXPECT_THROW(make_informed_attack(dist, 0), InvalidArgument);
  EXPECT_THROW(make_informed_attack(dist, 3), InvalidArgument);
}

TEST(InformedAttack, BeatsUnrankedDictionaryAtEqualBudget) {
  // The §3.4 claim at experiment level (small scale): the informed top-N
  // payload causes more damage than the first N formal-dictionary words.
  util::Rng rng(5);
  spambayes::Filter base;
  for (int i = 0; i < 300; ++i) {
    base.train_ham(generator().generate_ham(rng));
    base.train_spam(generator().generate_spam(rng));
  }
  const std::size_t budget = 8'000;
  DictionaryAttack informed =
      make_informed_attack(generator().ham_word_distribution(), budget);
  DictionaryAttack unranked =
      DictionaryAttack::aspell_truncated(generator().lexicons(), budget);

  auto damage = [&](const DictionaryAttack& attack) {
    spambayes::Filter filter = base;
    filter.train_spam_copies(attack.attack_message(), 6);  // ~1% of 600
    util::Rng probe(77);
    int bad = 0;
    for (int i = 0; i < 100; ++i) {
      bad += filter.classify(generator().generate_ham(probe)).verdict !=
                     spambayes::Verdict::ham
                 ? 1
                 : 0;
    }
    return bad;
  };
  EXPECT_GT(damage(informed), damage(unranked));
}

class GoodWordAttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(9);
    for (int i = 0; i < 300; ++i) {
      filter.train_ham(generator().generate_ham(rng));
      filter.train_spam(generator().generate_spam(rng));
    }
  }

  /// The registry good-word attack padding with the 1,000 most common
  /// ham-core words, `batch_size` per query.
  EvadeResult evade(const email::Message& spam, std::size_t max_words,
                    std::size_t batch_size = 10,
                    spambayes::Verdict goal = spambayes::Verdict::unsure) {
    const Attack& attack = builtin_attack_registry().get("good-word");
    const util::Config params = test_support::attack_params(
        attack, {{"common_words", "1000"},
                 {"batch_size", std::to_string(batch_size)}});
    EvadeContext ctx{generator(), params, filter, max_words, goal};
    return attack.evade(ctx, spam);
  }

  spambayes::Filter filter;
};

TEST_F(GoodWordAttackTest, TaxonomyAndValidation) {
  const Attack& attack = builtin_attack_registry().get("good-word");
  EXPECT_EQ(attack.properties().description(),
            "Exploratory Integrity Targeted");
  // No candidate words to pad with.
  const util::Config params =
      test_support::attack_params(attack, {{"common_words", "0"}});
  EvadeContext ctx{generator(), params, filter, 100,
                   spambayes::Verdict::unsure};
  util::Rng rng(8);
  EXPECT_THROW(attack.evade(ctx, generator().generate_spam(rng)),
               InvalidArgument);
}

TEST_F(GoodWordAttackTest, PadsSpamOutOfTheSpamFolder) {
  util::Rng rng(10);
  int evaded = 0;
  for (int i = 0; i < 20; ++i) {
    email::Message spam = generator().generate_spam(rng);
    // Skip the hard-spam tail that already starts outside the spam folder.
    if (filter.classify(spam).verdict != spambayes::Verdict::spam) continue;
    auto result = evade(spam, 1'000);
    if (result.evaded) {
      ++evaded;
      EXPECT_LT(result.score_after, result.score_before);
      EXPECT_NE(filter.classify(result.message).verdict,
                spambayes::Verdict::spam);
      EXPECT_GT(result.words_added, 0u);
    }
  }
  EXPECT_GT(evaded, 5);  // the attack works on a solid share of messages
}

TEST_F(GoodWordAttackTest, DoesNotTouchTraining) {
  util::Rng rng(11);
  email::Message spam = generator().generate_spam(rng);
  const std::uint32_t spam_before = filter.database().spam_count();
  (void)evade(spam, 500, 25);
  // Exploratory: the filter's training state is untouched.
  EXPECT_EQ(filter.database().spam_count(), spam_before);
}

TEST_F(GoodWordAttackTest, AlreadyHamMessageNeedsNoWork) {
  util::Rng rng(12);
  auto result = evade(generator().generate_ham(rng), 100);
  EXPECT_TRUE(result.evaded);
  EXPECT_EQ(result.words_added, 0u);
  EXPECT_EQ(result.queries, 1u);
}

TEST_F(GoodWordAttackTest, BudgetExhaustionReportsFailure) {
  util::Rng rng(13);
  email::Message spam = generator().generate_spam(rng);
  auto result = evade(spam, /*max_words=*/5, 5, spambayes::Verdict::ham);
  // Five common words cannot whitewash a full spam message.
  EXPECT_FALSE(result.evaded);
  EXPECT_EQ(result.words_added, 5u);
}

TEST_F(GoodWordAttackTest, StrongerGoalIsHarder) {
  util::Rng rng(14);
  int unsure_ok = 0, ham_ok = 0;
  for (int i = 0; i < 15; ++i) {
    email::Message spam = generator().generate_spam(rng);
    unsure_ok += evade(spam, 1'000, 10, spambayes::Verdict::unsure).evaded;
    ham_ok += evade(spam, 1'000, 10, spambayes::Verdict::ham).evaded;
  }
  EXPECT_GE(unsure_ok, ham_ok);
}

}  // namespace
}  // namespace sbx::core
