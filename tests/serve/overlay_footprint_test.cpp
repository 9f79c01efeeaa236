// The serving layer's memory contract under vocabulary growth: a user's
// overlay holds that user's feedback and nothing else. Its own binary,
// because it interns over a million tokens into the process-global
// interner, and every later test in the same process would then pay for
// id-indexed tables (base databases, ScoreEngine memos) sized by them.

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "email/rfc2822.h"
#include "serve/base_model.h"
#include "serve/frontend.h"
#include "spambayes/interner.h"
#include "util/random.h"

namespace sbx::serve {
namespace {

// A million unrelated interned tokens before the train, and a random-word
// classify flood after it, change neither the overlay's entries nor its
// bytes; an exact untrain empties it. The flood's 160,000 novel words do
// not reach the process-global interner either: classify only looks
// tokens up.
TEST(ServeFrontend, OverlayFootprintScalesWithFeedbackNotVocabulary) {
  ServeFrontend frontend(build_base_filter({/*base_size=*/200, 0.5, 5}),
                         {2, 8});
  spambayes::TokenInterner& interner = spambayes::global_interner();
  const std::size_t target = interner.size() + 1'000'000;
  for (std::size_t i = 0; interner.size() < target; ++i) {
    interner.intern("unrelated-" + std::to_string(i));
  }

  corpus::TrecLikeGenerator generator;
  util::Rng rng(8);
  const std::string message =
      email::render_message(generator.generate_spam(rng));
  const std::size_t distinct =
      frontend.base().message_token_ids(email::parse_message(message)).size();
  TrainRequest t;
  t.user_id = 5;
  t.message = message;
  frontend.train(t);
  const OverlaySnapshot trained = frontend.overlay(5);
  ASSERT_NE(trained, nullptr);
  EXPECT_EQ(trained->vocabulary_size(), distinct);
  EXPECT_LT(trained->bytes(), 64 * distinct);
  const std::size_t bytes = trained->bytes();

  const std::size_t vocabulary_before = interner.size();
  ClassifyBatchRequest flood;
  flood.user_id = 5;
  for (int i = 0; i < 10'000; ++i) {
    std::string body;
    for (int w = 0; w < 16; ++w) {
      for (int k = 0; k < 10; ++k) {
        body += static_cast<char>('a' + rng.index(26));
      }
      body += ' ';
    }
    flood.messages.push_back("Subject: offer\n\n" + body + "\n");
    if (flood.messages.size() == 100) {
      frontend.classify_batch(flood);
      flood.messages.clear();
    }
  }
  EXPECT_EQ(interner.size(), vocabulary_before);
  EXPECT_EQ(frontend.overlay(5), trained);
  EXPECT_EQ(trained->vocabulary_size(), distinct);
  EXPECT_EQ(trained->bytes(), bytes);

  UntrainRequest u;
  u.user_id = 5;
  u.message = message;
  frontend.untrain(u);
  EXPECT_EQ(frontend.overlay(5)->vocabulary_size(), 0u);
}

}  // namespace
}  // namespace sbx::serve
