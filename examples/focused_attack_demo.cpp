// focused_attack_demo: the paper's §3.3 motivating scenario.
//
// A malicious contractor ("Mallory Construction") wants to stop its
// competitor's bid from reaching the procurement officer. Mallory knows
// the kind of email the competitor will send — company names, product
// terms, a bid template — and mails the victim spam containing those
// words. SpamBayes trains on the spam, the target tokens turn spammy, and
// the real bid lands in the spam folder while the rest of the victim's
// mail flows normally.
//
//   $ ./focused_attack_demo
#include <cstdio>

#include "core/attack_registry.h"
#include "core/focused_attack.h"
#include "corpus/generator.h"
#include "spambayes/filter.h"
#include "util/random.h"
#include "util/strings.h"

namespace {

void classify_and_print(const sbx::spambayes::Filter& filter,
                        const sbx::email::Message& msg, const char* tag) {
  auto result = filter.classify(msg);
  std::printf("  %-28s score %.3f -> filed as %s\n", tag, result.score,
              std::string(sbx::spambayes::to_string(result.verdict)).c_str());
}

}  // namespace

int main() {
  using namespace sbx;

  corpus::TrecLikeGenerator generator;
  util::Rng rng(1337);

  // The victim: a procurement office whose filter trained on 4,000 emails.
  std::printf("training the victim's SpamBayes filter on 4,000 emails...\n");
  spambayes::Filter filter;
  std::vector<email::Message> spam_pool;
  for (int i = 0; i < 2'000; ++i) {
    filter.train_ham(generator.generate_ham(rng));
    email::Message s = generator.generate_spam(rng);
    filter.train_spam(s);
    if (spam_pool.size() < 50) spam_pool.push_back(s);
  }

  // The competitor's bid email (a future message the attacker anticipates).
  email::Message bid = generator.generate_ham(rng);
  email::Message unrelated = generator.generate_ham(rng);

  std::printf("\nbefore the attack:\n");
  classify_and_print(filter, bid, "competitor's bid:");
  classify_and_print(filter, unrelated, "unrelated ham:");

  // Mallory guesses half of the bid's words (p = 0.5: a realistic level of
  // insider knowledge per Figure 2) and sends 150 spam emails carrying
  // them, with headers copied from ordinary spam so they blend in.
  spambayes::Tokenizer tokenizer;
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  util::Config params = attack.default_params();
  params.set("guess_probability", "0.5");
  const spambayes::TokenSet bid_words =
      core::attackable_body_words(bid, tokenizer);
  std::vector<const email::Message*> headers;
  for (const auto& s : spam_pool) headers.push_back(&s);
  core::CraftContext ctx{generator, params, rng,      150,
                         &bid,      &bid_words, &headers};
  const std::vector<email::Message> poison = attack.craft_poison(ctx);
  std::printf("\nMallory guessed %zu of the bid's words; sending 150 attack "
              "emails (trained as spam)...\n",
              util::split_whitespace(poison.front().body()).size());
  for (const auto& message : poison) filter.train_spam(message);

  std::printf("\nafter the attack:\n");
  classify_and_print(filter, bid, "competitor's bid:");
  classify_and_print(filter, unrelated, "unrelated ham:");

  std::printf(
      "\nThe bid is gone from the inbox; everything else still flows.\n"
      "The victim has no reason to suspect the filter (this is the\n"
      "Causative Availability Targeted cell of the paper's taxonomy: %s).\n",
      attack.properties().description().c_str());
  return 0;
}
