// Tests for core attacks: taxonomy labels, attack-count arithmetic,
// dictionary attack construction, the registry focused attack's guessing
// model.
#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/attack_math.h"
#include "core/attack_registry.h"
#include "core/dictionary_attack.h"
#include "core/focused_attack.h"
#include "core/taxonomy.h"
#include "corpus/generator.h"
#include "email/builder.h"
#include "spambayes/filter.h"
#include "support/registry_attacks.h"
#include "support/token_ids.h"
#include "util/error.h"
#include "util/strings.h"

namespace sbx::core {
namespace {

using test_support::intern_tokens;

TEST(Taxonomy, Descriptions) {
  AttackProperties dictionary = DictionaryAttack::properties();
  EXPECT_EQ(dictionary.description(), "Causative Availability Indiscriminate");
  AttackProperties focused =
      builtin_attack_registry().get("focused").properties();
  EXPECT_EQ(focused.description(), "Causative Availability Targeted");
  EXPECT_EQ(to_string(Influence::exploratory), "Exploratory");
  EXPECT_EQ(to_string(Violation::integrity), "Integrity");
}

TEST(AttackMath, PaperQuotedCounts) {
  // §4.2: 1% of a 10,000-message inbox = 101 attack emails; 2% = 204.
  EXPECT_EQ(attack_message_count(10'000, 0.01), 101u);
  EXPECT_EQ(attack_message_count(10'000, 0.02), 204u);
  EXPECT_EQ(attack_message_count(10'000, 0.0), 0u);
  EXPECT_EQ(attack_message_count(10'000, 0.10), 1'111u);
}

TEST(AttackMath, FractionIsOfFinalTrainingSet) {
  for (double f : {0.001, 0.01, 0.05, 0.2, 0.5}) {
    std::size_t clean = 5'000;
    std::size_t a = attack_message_count(clean, f);
    double realized = static_cast<double>(a) / static_cast<double>(clean + a);
    EXPECT_NEAR(realized, f, 0.001) << "f=" << f;
  }
}

TEST(AttackMath, RejectsInvalidFractions) {
  EXPECT_THROW(attack_message_count(100, -0.1), InvalidArgument);
  EXPECT_THROW(attack_message_count(100, 1.0), InvalidArgument);
}

TEST(AttackMath, AddingAttackWordsNeverLowersScore) {
  // §3.4: with the attack message count fixed, growing the attack payload
  // word-by-word monotonically raises the score of a message whose words
  // the payload progressively covers.
  spambayes::TokenDatabase db;
  db.train_ham_ids(intern_tokens({"alpha", "beta", "gamma", "delta"}), 10);
  db.train_spam_ids(intern_tokens({"junk"}), 10);
  spambayes::Classifier classifier;
  const spambayes::TokenIdSet msg =
      intern_tokens({"alpha", "beta", "gamma", "delta"});

  const spambayes::TokenIdSet junk = intern_tokens({"junk"});
  spambayes::TokenSet attack = {"junk"};
  double prev = score_under_attack(classifier, db, msg, junk, 10);
  for (const char* word : {"alpha", "beta", "gamma", "delta"}) {
    attack.push_back(word);
    std::sort(attack.begin(), attack.end());
    double cur =
        score_under_attack(classifier, db, msg, intern_tokens(attack), 10);
    EXPECT_GE(cur, prev - 1e-12) << word;
    prev = cur;
  }
  // Full coverage beats no coverage strictly.
  EXPECT_GT(prev, score_under_attack(classifier, db, msg, junk, 10));
}

class DictionaryAttackTest : public ::testing::Test {
 protected:
  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }
};

TEST_F(DictionaryAttackTest, EmptyHeadersAndFullDictionaryBody) {
  DictionaryAttack attack = DictionaryAttack::aspell(generator().lexicons());
  EXPECT_EQ(attack.name(), "aspell");
  EXPECT_EQ(attack.dictionary_size(), 98'568u);
  const email::Message& msg = attack.attack_message();
  EXPECT_EQ(msg.header_count(), 0u);  // contamination assumption: no headers
  // Tokenizing the message recovers exactly the dictionary words.
  spambayes::Tokenizer tok;
  auto tokens = spambayes::unique_tokens(tok.tokenize(msg));
  EXPECT_EQ(tokens.size(), 98'568u);
}

TEST_F(DictionaryAttackTest, UsenetVariantsAreRankedPrefixes) {
  DictionaryAttack big = DictionaryAttack::usenet(generator().lexicons());
  EXPECT_EQ(big.dictionary_size(), 90'000u);
  EXPECT_EQ(big.name(), "usenet-90000");
  DictionaryAttack small =
      DictionaryAttack::usenet(generator().lexicons(), 1'000);
  EXPECT_EQ(small.dictionary_size(), 1'000u);
  // The truncated body is a prefix of the full body.
  EXPECT_EQ(big.attack_message().body().rfind(
                small.attack_message().body().substr(0, 200), 0),
            0u);
  EXPECT_THROW(DictionaryAttack::usenet(generator().lexicons(), 0),
               InvalidArgument);
  EXPECT_THROW(DictionaryAttack::usenet(generator().lexicons(), 90'001),
               InvalidArgument);
}

TEST_F(DictionaryAttackTest, OptimalCoversGeneratorVocabulary) {
  DictionaryAttack attack = DictionaryAttack::optimal(generator());
  EXPECT_EQ(attack.dictionary_size(),
            generator().full_vocabulary().size());
  EXPECT_EQ(attack.name(), "optimal");
}

TEST_F(DictionaryAttackTest, EmptyDictionaryRejected) {
  EXPECT_THROW(DictionaryAttack("x", {}), InvalidArgument);
}

TEST_F(DictionaryAttackTest, PoisoningRaisesHamScores) {
  // The core mechanism: training dictionary emails as spam raises the
  // message score of unrelated legitimate email.
  util::Rng rng(5);
  spambayes::Filter filter;
  for (int i = 0; i < 100; ++i) {
    filter.train_ham(generator().generate_ham(rng));
    filter.train_spam(generator().generate_spam(rng));
  }
  email::Message probe = generator().generate_ham(rng);
  const double before = filter.classify(probe).score;
  DictionaryAttack attack = DictionaryAttack::usenet(generator().lexicons());
  filter.train_spam_copies(attack.attack_message(), 10);
  const double after = filter.classify(probe).score;
  EXPECT_GT(after, before + 0.2);
}

class FocusedAttackTest : public ::testing::Test {
 protected:
  static const corpus::TrecLikeGenerator& generator() {
    static const corpus::TrecLikeGenerator gen;
    return gen;
  }

  /// `count` emails of the registry "focused" attack against `target`,
  /// cloning headers from `pool` (a one-spam default when null).
  static std::vector<email::Message> craft(
      const spambayes::TokenSet& target,
      const test_support::ParamOverrides& overrides, std::size_t count,
      util::Rng& rng,
      const std::vector<const email::Message*>* pool = nullptr) {
    static const email::Message donor =
        email::MessageBuilder().from("spam@x.example").subject("sp").build();
    static const std::vector<const email::Message*> default_pool = {&donor};
    const Attack& attack = builtin_attack_registry().get("focused");
    const util::Config params = test_support::attack_params(attack, overrides);
    CraftContext ctx{generator(), params, rng,
                     count,       nullptr, &target,
                     pool != nullptr ? pool : &default_pool};
    return attack.craft_poison(ctx);
  }

  /// The guessed payload an email carries: its body's words.
  static std::vector<std::string> payload(const email::Message& m) {
    return util::split_whitespace(m.body());
  }

  spambayes::Tokenizer tok;
};

TEST_F(FocusedAttackTest, GuessProbabilityControlsPayloadSize) {
  spambayes::TokenSet target;
  for (int i = 0; i < 400; ++i) target.push_back("word" + std::to_string(i));
  std::sort(target.begin(), target.end());

  for (const char* p : {"0.1", "0.5", "0.9"}) {
    util::Rng rng(77);
    const auto guessed =
        payload(craft(target, {{"guess_probability", p}}, 1, rng).front());
    double fraction = static_cast<double>(guessed.size()) / target.size();
    EXPECT_NEAR(fraction, std::stod(p), 0.08) << "p=" << p;
    // Guessed words are a subset of the target.
    std::unordered_set<std::string> t(target.begin(), target.end());
    for (const auto& w : guessed) EXPECT_TRUE(t.count(w));
  }
}

TEST_F(FocusedAttackTest, SingleGuessSetSharedAcrossEmails) {
  spambayes::TokenSet target = {"aaa", "bbb", "ccc", "ddd", "eee", "fff"};
  util::Rng rng(3);
  auto emails = craft(target, {}, 10, rng);
  ASSERT_EQ(emails.size(), 10u);
  for (const auto& m : emails) {
    EXPECT_EQ(m.body(), emails[0].body());  // same payload every time
  }
}

TEST_F(FocusedAttackTest, FreshGuessVariantDiffersAcrossEmails) {
  spambayes::TokenSet target;
  for (int i = 0; i < 100; ++i) target.push_back("w" + std::to_string(i));
  std::sort(target.begin(), target.end());
  util::Rng rng(4);
  auto emails = craft(target, {{"fresh_guess_per_email", "true"}}, 5, rng);
  bool any_difference = false;
  for (std::size_t i = 1; i < emails.size(); ++i) {
    any_difference |= emails[i].body() != emails[0].body();
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(FocusedAttackTest, ClonesSpamHeadersButStripsMime) {
  spambayes::TokenSet target = {"alpha", "beta", "gamma"};
  util::Rng rng(5);
  email::Message donor = email::MessageBuilder()
                             .from("spammer@offers.example")
                             .subject("great DEAL")
                             .header("Content-Type", "multipart/mixed; "
                                                     "boundary=xx")
                             .header("Content-Transfer-Encoding", "base64")
                             .build();
  std::vector<const email::Message*> pool = {&donor};
  auto emails = craft(target, {{"guess_probability", "1"}}, 3, rng, &pool);
  for (const auto& m : emails) {
    EXPECT_EQ(m.header("From").value(), "spammer@offers.example");
    EXPECT_EQ(m.header("Subject").value(), "great DEAL");
    EXPECT_FALSE(m.has_header("Content-Type"));
    EXPECT_FALSE(m.has_header("Content-Transfer-Encoding"));
    // Payload visible to the tokenizer.
    auto tokens = spambayes::unique_tokens(tok.tokenize(m));
    for (const auto& w : target) {
      EXPECT_NE(std::find(tokens.begin(), tokens.end(), w), tokens.end());
    }
  }
}

TEST_F(FocusedAttackTest, FullKnowledgeGuessesEverything) {
  spambayes::TokenSet target = {"one", "two", "three"};
  util::Rng rng(6);
  EXPECT_EQ(
      payload(craft(target, {{"guess_probability", "1"}}, 1, rng).front()),
      target);
}

TEST_F(FocusedAttackTest, ZeroKnowledgeFallsBackToMinimalPayload) {
  spambayes::TokenSet target = {"one", "two", "three"};
  util::Rng rng(7);
  // The minimal junk payload.
  EXPECT_EQ(
      payload(craft(target, {{"guess_probability", "0"}}, 1, rng).front()),
      std::vector<std::string>{"regards"});
}

TEST_F(FocusedAttackTest, Validation) {
  util::Rng rng(8);
  EXPECT_THROW(craft({"x"}, {{"guess_probability", "1.5"}}, 1, rng),
               InvalidArgument);
  EXPECT_THROW(craft({}, {}, 1, rng), InvalidArgument);
  const std::vector<const email::Message*> empty_pool;
  EXPECT_THROW(craft({"x"}, {}, 1, rng, &empty_pool), InvalidArgument);
  EXPECT_EQ(craft({"x"}, {}, 1, rng).size(), 1u);
}

TEST_F(FocusedAttackTest, AttackableBodyWordsExcludePseudoTokens) {
  email::Message msg =
      email::MessageBuilder()
          .subject("header words invisible")
          .body("normal words plus http://host.example/path and "
                "averyveryverylongunbrokenword\n")
          .build();
  auto words = attackable_body_words(msg, tok);
  for (const auto& w : words) {
    EXPECT_NE(w.rfind("url:", 0), 0u) << w;
    EXPECT_NE(w.rfind("subject:", 0), 0u) << w;
    EXPECT_NE(w.rfind("skip:", 0), 0u) << w;
  }
  EXPECT_NE(std::find(words.begin(), words.end(), "normal"), words.end());
  EXPECT_EQ(std::find(words.begin(), words.end(), "invisible"), words.end());
}

TEST_F(FocusedAttackTest, ExtraWordsAppendFillerWithoutTouchingTarget) {
  spambayes::TokenSet target = {"alpha", "beta"};
  util::Rng rng(21);
  const auto padded = payload(
      craft(target, {{"guess_probability", "1"}, {"extra_words", "25"}}, 1,
            rng)
          .front());
  // Payload = both target words + 25 filler tokens from the reserved
  // namespace.
  std::size_t filler = 0;
  for (const auto& w : padded) {
    if (w.rfind("xfiller", 0) == 0) {
      ++filler;
    } else {
      EXPECT_TRUE(w == "alpha" || w == "beta") << w;
    }
  }
  EXPECT_EQ(filler, 25u);

  // Per the Section 3.4 independence argument, filler cannot weaken the
  // attack: the target's score under the padded attack is >= under the
  // lean attack.
  spambayes::TokenDatabase db;
  db.train_ham_ids(intern_tokens({"alpha", "beta", "gamma"}), 20);
  db.train_spam_ids(intern_tokens({"junk"}), 20);
  spambayes::Classifier classifier;
  util::Rng rng2(22);
  const auto lean =
      payload(craft(target, {{"guess_probability", "1"}}, 1, rng2).front());
  auto payload_set = [](const std::vector<std::string>& words) {
    return intern_tokens(spambayes::unique_tokens(words));
  };
  const spambayes::TokenIdSet target_ids =
      intern_tokens({"alpha", "beta", "gamma"});
  const double with_filler = score_under_attack(
      classifier, db, target_ids, payload_set(padded), 10);
  const double lean_score =
      score_under_attack(classifier, db, target_ids, payload_set(lean), 10);
  EXPECT_GE(with_filler, lean_score - 1e-12);
}

TEST_F(FocusedAttackTest, PoisoningPushesTargetTowardSpam) {
  // End-to-end: the focused attack raises the target's score while barely
  // moving other ham.
  const corpus::TrecLikeGenerator& gen = generator();
  util::Rng rng(9);
  spambayes::Filter filter;
  std::vector<email::Message> spam_pool;
  for (int i = 0; i < 150; ++i) {
    filter.train_ham(gen.generate_ham(rng));
    email::Message s = gen.generate_spam(rng);
    filter.train_spam(s);
    spam_pool.push_back(std::move(s));
  }
  std::vector<const email::Message*> pool;
  for (const auto& s : spam_pool) pool.push_back(&s);

  email::Message target = gen.generate_ham(rng);
  email::Message other = gen.generate_ham(rng);
  const double target_before = filter.classify(target).score;
  const double other_before = filter.classify(other).score;

  for (const auto& m : craft(attackable_body_words(target, tok),
                             {{"guess_probability", "0.9"}}, 40, rng,
                             &pool)) {
    filter.train_spam(m);
  }
  const double target_after = filter.classify(target).score;
  const double other_after = filter.classify(other).score;
  EXPECT_GT(target_after, target_before + 0.3);
  // The attack is targeted: collateral damage stays small.
  EXPECT_LT(other_after - other_before, 0.2);
}

}  // namespace
}  // namespace sbx::core
