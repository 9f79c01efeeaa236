#include "spambayes/classifier.h"

#include "spambayes/score_engine.h"
#include "spambayes/scoring_math.h"
#include "util/error.h"

namespace sbx::spambayes {

std::string_view to_string(Verdict v) {
  switch (v) {
    case Verdict::ham:
      return "ham";
    case Verdict::unsure:
      return "unsure";
    case Verdict::spam:
      return "spam";
  }
  return "unsure";
}

bool verdict_at_most(Verdict v, Verdict goal) {
  auto rank = [](Verdict x) {
    switch (x) {
      case Verdict::ham:
        return 0;
      case Verdict::unsure:
        return 1;
      case Verdict::spam:
        return 2;
    }
    return 1;
  };
  return rank(v) <= rank(goal);
}

Classifier::Classifier(ClassifierOptions opts) : opts_(opts) {
  if (opts_.ham_cutoff < 0 || opts_.spam_cutoff > 1 ||
      opts_.ham_cutoff > opts_.spam_cutoff) {
    throw InvalidArgument("Classifier: cutoffs must satisfy 0 <= theta0 <= "
                          "theta1 <= 1");
  }
}

double Classifier::token_score(const TokenDatabase& db,
                               std::string_view token) const {
  const TokenCounts c = db.counts(token);
  return detail::score_from_counts(c.spam, c.ham, db.spam_count(),
                                   db.ham_count(), opts_);
}

double Classifier::token_score(const TokenDatabase& db, TokenId id) const {
  const TokenCounts c = db.counts(id);
  return detail::score_from_counts(c.spam, c.ham, db.spam_count(),
                                   db.ham_count(), opts_);
}

ScoreIdResult Classifier::score_ids(const TokenDatabase& db,
                                    const TokenIdList& ids) const {
  return ScoreEngine::for_current_thread(opts_).score_ids(db, ids);
}

ScoreIdResult Classifier::score_ids(const TokenDatabase& base,
                                    const SparseTokenDatabase& overlay,
                                    const TokenIdList& ids) const {
  return ScoreEngine::for_current_thread(opts_).score_ids(base, overlay, ids);
}

Verdict Classifier::verdict_for(double score) const {
  return verdict_for(score, opts_.ham_cutoff, opts_.spam_cutoff);
}

Verdict Classifier::verdict_for(double score, double ham_cutoff,
                                double spam_cutoff) {
  if (score <= ham_cutoff) return Verdict::ham;
  if (score <= spam_cutoff) return Verdict::unsure;
  return Verdict::spam;
}

}  // namespace sbx::spambayes
