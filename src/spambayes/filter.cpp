#include "spambayes/filter.h"

#include "spambayes/scoring_math.h"
#include "util/error.h"

namespace sbx::spambayes {

Filter::Filter(FilterOptions opts)
    : opts_(opts),
      classify_id_mode_(detail::unseen_token_is_discriminator(opts.classifier)
                            ? IdMode::kIntern
                            : IdMode::kLookupOnly),
      tokenizer_(opts.tokenizer),
      classifier_(opts.classifier) {}

TokenIdSet Filter::message_token_ids(const email::Message& msg) const {
  return tokenizer_.tokenize_id_set(msg);
}

TokenIdSet Filter::classify_token_ids(const email::Message& msg) const {
  return tokenizer_.tokenize_id_set(msg, classify_id_mode_);
}

void Filter::train_ham(const email::Message& msg) {
  db_.train_ham_ids(message_token_ids(msg));
}

void Filter::train_spam(const email::Message& msg) {
  db_.train_spam_ids(message_token_ids(msg));
}

void Filter::train_spam_copies(const email::Message& msg,
                               std::uint32_t copies) {
  db_.train_spam_ids(message_token_ids(msg), copies);
}

void Filter::untrain_ham(const email::Message& msg) {
  db_.untrain_ham_ids(message_token_ids(msg));
}

void Filter::untrain_spam(const email::Message& msg) {
  db_.untrain_spam_ids(message_token_ids(msg));
}

void Filter::train_ham_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.train_ham_ids(ids, copies);
}

void Filter::train_spam_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.train_spam_ids(ids, copies);
}

void Filter::untrain_ham_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.untrain_ham_ids(ids, copies);
}

void Filter::untrain_spam_ids(const TokenIdSet& ids, std::uint32_t copies) {
  db_.untrain_spam_ids(ids, copies);
}

ScoreIdResult Filter::classify(const email::Message& msg) const {
  return classify_ids(classify_token_ids(msg));
}

ScoreIdResult Filter::classify_ids(const TokenIdSet& ids) const {
  return ScoreEngine::for_current_thread(opts_.classifier)
      .score_ids(db_, ids);
}

void Filter::set_cutoffs(double ham_cutoff, double spam_cutoff) {
  if (ham_cutoff < 0 || spam_cutoff > 1 || ham_cutoff > spam_cutoff) {
    throw InvalidArgument("Filter::set_cutoffs: invalid thresholds");
  }
  opts_.classifier.ham_cutoff = ham_cutoff;
  opts_.classifier.spam_cutoff = spam_cutoff;
  classifier_ = Classifier(opts_.classifier);
}

}  // namespace sbx::spambayes
