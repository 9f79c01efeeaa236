// Tests for spambayes/classifier: Eq. 1-4 against hand-computed fixtures,
// score properties (bounds, monotonicity), token selection rules and
// thresholding.
#include "spambayes/classifier.h"

#include <cmath>

#include <gtest/gtest.h>

#include "support/token_ids.h"
#include "util/error.h"
#include "util/stats.h"

namespace sbx::spambayes {
namespace {

using test_support::intern_tokens;

ClassifierOptions default_opts() { return ClassifierOptions{}; }

std::string_view spelling(const TokenIdEvidence& ev) {
  return global_interner().spelling(ev.id);
}

TEST(TokenScore, UnknownTokenGetsPrior) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"other"}));
  db.train_ham_ids(intern_tokens({"another"}));
  Classifier c(default_opts());
  // N(w) = 0 -> f = x = 0.5.
  EXPECT_DOUBLE_EQ(c.token_score(db, "never-seen"), 0.5);
}

TEST(TokenScore, HandComputedFixture) {
  // NS = 3 spam, NH = 2 ham; token "w": NS(w) = 2, NH(w) = 1.
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"w", "s1"}));
  db.train_spam_ids(intern_tokens({"w", "s2"}));
  db.train_spam_ids(intern_tokens({"s3"}));
  db.train_ham_ids(intern_tokens({"w"}));
  db.train_ham_ids(intern_tokens({"h1"}));

  // Eq. 1: PS = NH*NS(w) / (NH*NS(w) + NS*NH(w)) = 2*2 / (2*2 + 3*1) = 4/7.
  // Eq. 2: N(w) = 3, s = 0.45, x = 0.5:
  //        f = (0.45*0.5 + 3*(4/7)) / (0.45 + 3).
  const double expected = (0.45 * 0.5 + 3.0 * (4.0 / 7.0)) / (0.45 + 3.0);
  Classifier c(default_opts());
  EXPECT_NEAR(c.token_score(db, "w"), expected, 1e-12);
}

TEST(TokenScore, PureSpamAndPureHamTokens) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"spammy"}), 50);
  db.train_ham_ids(intern_tokens({"hammy"}), 50);
  Classifier c(default_opts());
  // PS = 1 for spam-only tokens; f -> (s*x + N) / (s + N), close to 1.
  const double fs = c.token_score(db, "spammy");
  EXPECT_NEAR(fs, (0.45 * 0.5 + 50.0) / (0.45 + 50.0), 1e-12);
  EXPECT_GT(fs, 0.99);
  const double fh = c.token_score(db, "hammy");
  EXPECT_NEAR(fh, (0.45 * 0.5) / (0.45 + 50.0), 1e-12);
  EXPECT_LT(fh, 0.01);
  // Always strictly inside (0, 1) with s > 0.
  EXPECT_GT(fh, 0.0);
  EXPECT_LT(fs, 1.0);
}

TEST(TokenScore, PrevalenceNormalization) {
  // Eq. 1 normalizes by class sizes: a token present in 1 of 10 spam and
  // 1 of 100 ham leans spammy even though the raw counts are equal.
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"w"}));
  db.train_spam_ids(intern_tokens({"filler"}), 9);
  db.train_ham_ids(intern_tokens({"w"}));
  db.train_ham_ids(intern_tokens({"hfiller"}), 99);
  Classifier c(default_opts());
  // PS = (1/10) / (1/10 + 1/100) = 10/11.
  const double expected_ps = (1.0 / 10.0) / (1.0 / 10.0 + 1.0 / 100.0);
  const double expected = (0.45 * 0.5 + 2.0 * expected_ps) / (0.45 + 2.0);
  EXPECT_NEAR(c.token_score(db, "w"), expected, 1e-12);
}

TEST(TokenScore, EmptyDatabaseYieldsPrior) {
  TokenDatabase db;
  Classifier c(default_opts());
  EXPECT_DOUBLE_EQ(c.token_score(db, "anything"), 0.5);
}

TEST(Score, EmptyTokenSetIsUnsureMidpoint) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"x"}));
  db.train_ham_ids(intern_tokens({"y"}));
  Classifier c(default_opts());
  ScoreIdResult r = c.score_ids(db, {});
  EXPECT_DOUBLE_EQ(r.score, 0.5);
  EXPECT_EQ(r.tokens_used, 0u);
  EXPECT_EQ(r.verdict, Verdict::unsure);
}

TEST(Score, NeutralTokensExcludedFromDelta) {
  TokenDatabase db;
  // Balanced classes so that a token present once in each has PS exactly
  // 0.5 and falls inside the excluded [0.4, 0.6] band.
  db.train_spam_ids(intern_tokens({"strong", "weak"}));
  db.train_spam_ids(intern_tokens({"strong"}), 19);
  db.train_ham_ids(intern_tokens({"filler", "weak"}));
  db.train_ham_ids(intern_tokens({"filler"}), 19);
  Classifier c(default_opts());
  ScoreIdResult r =
      c.score_ids(db, intern_tokens({"strong", "weak", "unknown"}));
  EXPECT_EQ(r.tokens_used, 1u);
  for (const auto& ev : r.evidence) {
    if (spelling(ev) == "strong") {
      EXPECT_TRUE(ev.used);
    } else {
      EXPECT_FALSE(ev.used) << spelling(ev);
    }
  }
}

TEST(Score, SpammyMessageScoresHigh) {
  TokenDatabase db;
  for (int i = 0; i < 20; ++i) {
    db.train_spam_ids(intern_tokens({"viagra", "pills", "cheap"}));
    db.train_ham_ids(intern_tokens({"meeting", "budget", "agenda"}));
  }
  Classifier c(default_opts());
  ScoreIdResult spam =
      c.score_ids(db, intern_tokens({"viagra", "pills", "cheap"}));
  EXPECT_GT(spam.score, 0.95);
  EXPECT_EQ(spam.verdict, Verdict::spam);
  ScoreIdResult ham =
      c.score_ids(db, intern_tokens({"meeting", "budget", "agenda"}));
  EXPECT_LT(ham.score, 0.05);
  EXPECT_EQ(ham.verdict, Verdict::ham);
  ScoreIdResult mixed = c.score_ids(
      db, intern_tokens({"viagra", "pills", "meeting", "budget"}));
  EXPECT_EQ(mixed.verdict, Verdict::unsure);
}

TEST(Score, HandComputedTwoTokenFisher) {
  // Two tokens with known f values; verify I(E) against a direct
  // evaluation of Eq. 3-4.
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"a"}), 3);  // f(a) = (0.225 + 3) / 3.45
  db.train_ham_ids(intern_tokens({"b"}), 2);   // f(b) = 0.225 / 2.45
  Classifier c(default_opts());
  const double fa = c.token_score(db, "a");
  const double fb = c.token_score(db, "b");

  const double h =
      util::chi2q_even_dof(-2.0 * (std::log(fa) + std::log(fb)), 2);
  const double s = util::chi2q_even_dof(
      -2.0 * (std::log1p(-fa) + std::log1p(-fb)), 2);
  const double expected = (1.0 + h - s) / 2.0;

  ScoreIdResult r = c.score_ids(db, intern_tokens({"a", "b"}));
  EXPECT_EQ(r.tokens_used, 2u);
  EXPECT_NEAR(r.score, expected, 1e-12);
  EXPECT_NEAR(r.spam_evidence, h, 1e-12);
  EXPECT_NEAR(r.ham_evidence, s, 1e-12);
}

TEST(Score, AlwaysWithinUnitInterval) {
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"s1", "s2", "s3"}), 100);
  db.train_ham_ids(intern_tokens({"h1", "h2", "h3"}), 100);
  Classifier c(default_opts());
  for (auto tokens :
       {TokenSet{"s1"}, TokenSet{"h1"}, TokenSet{"s1", "h1"},
        TokenSet{"s1", "s2", "s3", "h1", "h2", "h3"}, TokenSet{"zz"}}) {
    double score = c.score_ids(db, intern_tokens(tokens)).score;
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(Score, MaxDiscriminatorsCapRespected) {
  ClassifierOptions opts;
  opts.max_discriminators = 5;
  TokenDatabase db;
  TokenSet msg;
  for (int i = 0; i < 30; ++i) {
    std::string t = "tok" + std::to_string(i);
    db.train_spam_ids(intern_tokens({t}), 5);
    msg.push_back(t);
  }
  Classifier c(opts);
  ScoreIdResult r = c.score_ids(db, intern_tokens(msg));
  EXPECT_EQ(r.tokens_used, 5u);
  std::size_t used = 0;
  for (const auto& ev : r.evidence) used += ev.used ? 1 : 0;
  EXPECT_EQ(used, 5u);
}

TEST(Score, StrongestTokensSelectedFirst) {
  ClassifierOptions opts;
  opts.max_discriminators = 1;
  TokenDatabase db;
  db.train_spam_ids(intern_tokens({"mild"}), 2);
  db.train_ham_ids(intern_tokens({"mild"}), 1);
  db.train_spam_ids(intern_tokens({"extreme"}), 50);
  Classifier c(opts);
  ScoreIdResult r = c.score_ids(db, intern_tokens({"mild", "extreme"}));
  for (const auto& ev : r.evidence) {
    EXPECT_EQ(ev.used, spelling(ev) == "extreme");
  }
}

TEST(Score, MonotoneInAttackWordInclusion) {
  // §3.4's key fact: with the number of attack *messages* held fixed,
  // adding a word to the attack message does not change other tokens'
  // scores and never lowers I(E) for messages containing that word. (Note
  // that adding more attack *messages* is not pointwise monotone, because
  // growing NS rescales every token's PS — the experiments measure that
  // effect in aggregate instead.)
  const TokenSet message = {"target", "other"};
  Classifier c(default_opts());
  auto score_with_attack = [&](bool include_target) {
    TokenDatabase db;
    db.train_ham_ids(intern_tokens({"target", "other"}), 10);
    TokenSet attack = {"decoy"};
    if (include_target) attack.push_back("target");
    db.train_spam_ids(intern_tokens(attack), 10);
    return c.score_ids(db, intern_tokens(message));
  };
  ScoreIdResult without = score_with_attack(false);
  ScoreIdResult with = score_with_attack(true);
  EXPECT_GT(with.score, without.score);
  // Independence: the excluded token's score is untouched by the new word.
  for (const auto& ev : without.evidence) {
    if (spelling(ev) != "other") continue;
    for (const auto& ev2 : with.evidence) {
      if (spelling(ev2) == "other") {
        EXPECT_DOUBLE_EQ(ev.score, ev2.score);
      }
    }
  }
}

TEST(Verdicts, ThresholdBoundaries) {
  Classifier c(default_opts());  // theta0 = 0.15, theta1 = 0.9
  EXPECT_EQ(c.verdict_for(0.0), Verdict::ham);
  EXPECT_EQ(c.verdict_for(0.15), Verdict::ham);       // [0, theta0]
  EXPECT_EQ(c.verdict_for(0.150001), Verdict::unsure);
  EXPECT_EQ(c.verdict_for(0.9), Verdict::unsure);     // (theta0, theta1]
  EXPECT_EQ(c.verdict_for(0.900001), Verdict::spam);  // (theta1, 1]
  EXPECT_EQ(c.verdict_for(1.0), Verdict::spam);
}

TEST(Verdicts, StaticOverload) {
  EXPECT_EQ(Classifier::verdict_for(0.5, 0.6, 0.7), Verdict::ham);
  EXPECT_EQ(Classifier::verdict_for(0.65, 0.6, 0.7), Verdict::unsure);
  EXPECT_EQ(Classifier::verdict_for(0.75, 0.6, 0.7), Verdict::spam);
}

TEST(Verdicts, InvalidCutoffsRejected) {
  ClassifierOptions opts;
  opts.ham_cutoff = 0.9;
  opts.spam_cutoff = 0.15;
  EXPECT_THROW(Classifier{opts}, InvalidArgument);
}

TEST(Verdicts, ToStringNames) {
  EXPECT_EQ(to_string(Verdict::ham), "ham");
  EXPECT_EQ(to_string(Verdict::unsure), "unsure");
  EXPECT_EQ(to_string(Verdict::spam), "spam");
}

// Property sweep: for mixtures of k spammy and (n-k) hammy tokens, the
// score increases with k (more spam evidence -> higher I).
class MixtureSweep : public ::testing::TestWithParam<int> {};

TEST_P(MixtureSweep, ScoreIncreasesWithSpamEvidence) {
  const int n = 10;
  TokenDatabase db;
  for (int i = 0; i < n; ++i) {
    db.train_spam_ids(intern_tokens({"s" + std::to_string(i)}), 20);
    db.train_ham_ids(intern_tokens({"h" + std::to_string(i)}), 20);
  }
  Classifier c(default_opts());
  const int k = GetParam();
  auto score_for = [&](int spam_tokens) {
    TokenSet tokens;
    for (int i = 0; i < spam_tokens; ++i)
      tokens.push_back("s" + std::to_string(i));
    for (int i = spam_tokens; i < n; ++i)
      tokens.push_back("h" + std::to_string(i));
    return c.score_ids(db, intern_tokens(tokens)).score;
  };
  EXPECT_LE(score_for(k), score_for(k + 1) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(KSweep, MixtureSweep,
                         ::testing::Range(0, 9));

}  // namespace
}  // namespace sbx::spambayes
