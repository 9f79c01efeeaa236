// The string-keyed reference scorer: a verbatim port of the
// pre-interning SpamBayes classifier and database
// (unordered_map<string, TokenCounts>, a full sort of the candidates,
// spelling tie-break, two single chi-square calls). It shares no code
// with ScoreEngine beyond the verdict cutoffs, and keeps its own
// string-keyed result types, so the equivalence tests hold the engine to
// it with EXPECT_EQ on doubles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "spambayes/classifier.h"
#include "spambayes/options.h"
#include "spambayes/token_db.h"
#include "spambayes/tokenizer.h"
#include "util/stats.h"

namespace sbx::test_support {

using spambayes::Classifier;
using spambayes::ClassifierOptions;
using spambayes::TokenCounts;
using spambayes::TokenSet;
using spambayes::Verdict;

/// One token's contribution to a reference score, keyed by spelling.
struct TokenEvidence {
  std::string token;
  double score = 0.5;  // f(w) from Eq. 2
  bool used = false;   // selected into delta(E)?
};

/// The reference's scoring breakdown, field for field the engine's
/// ScoreIdResult with spellings in place of ids.
struct ScoreResult {
  double score = 0.5;           // I(E), Eq. 3
  double spam_evidence = 0.0;   // H(E), Eq. 4
  double ham_evidence = 0.0;    // S(E)
  std::size_t tokens_used = 0;  // |delta(E)|
  Verdict verdict = Verdict::unsure;
  std::vector<TokenEvidence> evidence;  // one per token, in input order
};

struct RefDatabase {
  std::unordered_map<std::string, TokenCounts> counts;
  std::uint32_t nspam = 0;
  std::uint32_t nham = 0;

  void train(const TokenSet& tokens, bool spam, std::uint32_t copies = 1) {
    for (const auto& t : tokens) {
      TokenCounts& c = counts[t];
      (spam ? c.spam : c.ham) += copies;
    }
    (spam ? nspam : nham) += copies;
  }

  void untrain(const TokenSet& tokens, bool spam, std::uint32_t copies = 1) {
    for (const auto& t : tokens) {
      auto it = counts.find(t);
      ASSERT_TRUE(it != counts.end());
      (spam ? it->second.spam : it->second.ham) -= copies;
      if (it->second.spam == 0 && it->second.ham == 0) counts.erase(it);
    }
    (spam ? nspam : nham) -= copies;
  }

  TokenCounts lookup(const std::string& token) const {
    auto it = counts.find(token);
    return it == counts.end() ? TokenCounts{} : it->second;
  }
};

inline double ref_token_score(const RefDatabase& db,
                              const std::string& token,
                              const ClassifierOptions& opts) {
  const TokenCounts c = db.lookup(token);
  const double ns = db.nspam;
  const double nh = db.nham;
  const double spam_ratio = ns > 0 ? c.spam / ns : 0.0;
  const double ham_ratio = nh > 0 ? c.ham / nh : 0.0;
  double ps = 0.5;
  if (spam_ratio + ham_ratio > 0) {
    ps = spam_ratio / (spam_ratio + ham_ratio);
  }
  const double n_w = static_cast<double>(c.spam) + static_cast<double>(c.ham);
  const double s = opts.unknown_word_strength;
  const double x = opts.unknown_word_prob;
  return (s * x + n_w * ps) / (s + n_w);
}

inline ScoreResult ref_score(const RefDatabase& db, const TokenSet& tokens,
                             const ClassifierOptions& opts) {
  ScoreResult result;
  result.evidence.reserve(tokens.size());
  for (const auto& t : tokens) {
    result.evidence.push_back({t, ref_token_score(db, t, opts), false});
  }
  std::vector<std::size_t> candidates;
  candidates.reserve(result.evidence.size());
  for (std::size_t i = 0; i < result.evidence.size(); ++i) {
    if (std::fabs(result.evidence[i].score - 0.5) >
        opts.minimum_prob_strength) {
      candidates.push_back(i);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              double da = std::fabs(result.evidence[a].score - 0.5);
              double db_ = std::fabs(result.evidence[b].score - 0.5);
              if (da != db_) return da > db_;
              return result.evidence[a].token < result.evidence[b].token;
            });
  if (candidates.size() > opts.max_discriminators) {
    candidates.resize(opts.max_discriminators);
  }
  const std::size_t n = candidates.size();
  result.tokens_used = n;
  if (n == 0) {
    result.score = 0.5;
    result.spam_evidence = result.ham_evidence = 0.5;
    result.verdict = Classifier::verdict_for(0.5, opts.ham_cutoff,
                                             opts.spam_cutoff);
    return result;
  }
  double sum_log_f = 0.0;
  double sum_log_1mf = 0.0;
  for (std::size_t idx : candidates) {
    TokenEvidence& ev = result.evidence[idx];
    ev.used = true;
    double f = std::clamp(ev.score, 1e-300, 1.0 - 1e-15);
    sum_log_f += std::log(f);
    sum_log_1mf += std::log1p(-f);
  }
  const double h = util::chi2q_even_dof(-2.0 * sum_log_f, n);
  const double s = util::chi2q_even_dof(-2.0 * sum_log_1mf, n);
  result.spam_evidence = h;
  result.ham_evidence = s;
  result.score = (1.0 + h - s) / 2.0;
  result.verdict = Classifier::verdict_for(result.score, opts.ham_cutoff,
                                           opts.spam_cutoff);
  return result;
}

}  // namespace sbx::test_support
