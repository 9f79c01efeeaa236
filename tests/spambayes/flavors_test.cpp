// Tests for the tokenizer flavor presets (footnote 1 of the paper) and the
// prefix_header_tokens option they exercise.
#include <algorithm>

#include <gtest/gtest.h>

#include "email/builder.h"
#include "spambayes/classifier.h"
#include "spambayes/token_db.h"
#include "spambayes/tokenizer.h"
#include "support/token_ids.h"

namespace sbx::spambayes {
namespace {

bool contains(const TokenList& tokens, const std::string& t) {
  return std::find(tokens.begin(), tokens.end(), t) != tokens.end();
}

TEST(Flavors, PresetsDiffer) {
  auto sb = TokenizerFlavors::spambayes();
  auto bogo = TokenizerFlavors::bogofilter();
  auto sa = TokenizerFlavors::spamassassin();
  EXPECT_EQ(sb.max_token_length, 12u);
  EXPECT_TRUE(sb.generate_skip_tokens);
  EXPECT_TRUE(sb.prefix_header_tokens);
  EXPECT_EQ(bogo.max_token_length, 30u);
  EXPECT_FALSE(bogo.generate_skip_tokens);
  EXPECT_FALSE(bogo.prefix_header_tokens);
  EXPECT_EQ(sa.max_token_length, 15u);
  EXPECT_TRUE(sa.prefix_header_tokens);
}

TEST(Flavors, UnprefixedHeadersShareBodyTokenSpace) {
  email::Message msg = email::MessageBuilder()
                           .subject("budget meeting")
                           .body("unrelated words\n")
                           .build();
  Tokenizer spambayes_tok(TokenizerFlavors::spambayes());
  auto prefixed = spambayes_tok.tokenize(msg);
  EXPECT_TRUE(contains(prefixed, "subject:budget"));
  EXPECT_FALSE(contains(prefixed, "budget"));

  Tokenizer bogo_tok(TokenizerFlavors::bogofilter());
  auto plain = bogo_tok.tokenize(msg);
  EXPECT_TRUE(contains(plain, "budget"));
  EXPECT_TRUE(contains(plain, "meeting"));
  EXPECT_FALSE(contains(plain, "subject:budget"));
}

TEST(Flavors, UnprefixedHeadersRespectBodyMinLength) {
  email::Message msg =
      email::MessageBuilder().subject("RE of it").body("x\n").build();
  Tokenizer bogo_tok(TokenizerFlavors::bogofilter());
  auto tokens = bogo_tok.tokenize(msg);
  // 2-char header words are dropped when unprefixed (body min length 3).
  EXPECT_FALSE(contains(tokens, "re"));
  EXPECT_FALSE(contains(tokens, "of"));
  EXPECT_FALSE(contains(tokens, "it"));
}

TEST(Flavors, BogofilterKeepsLongWordsWhole) {
  Tokenizer bogo_tok(TokenizerFlavors::bogofilter());
  auto tokens = bogo_tok.tokenize_text("pneumonoultramicroscopic regular");
  EXPECT_TRUE(contains(tokens, "pneumonoultramicroscopic"));  // 24 <= 30
  for (const auto& t : tokens) EXPECT_NE(t.rfind("skip:", 0), 0u);
}

TEST(Flavors, BodyPoisonReachesHeaderEvidenceOnlyWhenUnprefixed) {
  // The mechanism behind the ext_tokenizer_flavors figure: with unprefixed
  // headers, training a body-only email as spam also poisons the tokens a
  // victim's subject line produces.
  email::Message attack;  // body-only, per the contamination assumption
  attack.set_body("budget\n");
  email::Message victim = email::MessageBuilder()
                              .subject("budget")
                              .body("neutral filler words here\n")
                              .build();

  for (bool prefixed : {true, false}) {
    TokenizerOptions opts = prefixed ? TokenizerFlavors::spambayes()
                                     : TokenizerFlavors::bogofilter();
    Tokenizer tok(opts);
    TokenDatabase db;
    db.train_spam_ids(tok.tokenize_id_set(attack), 10);
    db.train_ham_ids(
        test_support::intern_tokens({"neutral", "filler", "words", "here"}),
        10);
    Classifier c;
    // Find the evidence score of the victim's subject token.
    auto subject_token = prefixed ? "subject:budget" : "budget";
    double f = c.token_score(db, subject_token);
    if (prefixed) {
      EXPECT_DOUBLE_EQ(f, 0.5) << "prefixed header token must be untouched";
    } else {
      EXPECT_GT(f, 0.9) << "unprefixed header token must be poisoned";
    }
  }
}

}  // namespace
}  // namespace sbx::spambayes
