// sbx/spambayes/classifier.h
//
// The SpamBayes classifier's public face (paper §2.3): its options, the
// per-token score f(w) of Eq. 1-2, and the ham / unsure / spam cutoffs
// applied to I(E). Scoring a message forwards to the calling thread's
// ScoreEngine (score_engine.h), the one implementation of delta(E)
// selection and Fisher's method. Messages are interned id sets:
//  * score_ids(db, ids) — against a TokenDatabase;
//  * score_ids(base, overlay, ids) — against a base plus a per-user
//    sparse overlay (the serving layer's users with feedback).
// Evidence entries carry ids; TokenInterner::spelling() resolves them.
#pragma once

#include <string_view>
#include <vector>

#include "spambayes/interner.h"
#include "spambayes/options.h"
#include "spambayes/sparse_token_db.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes {

/// Three-way SpamBayes verdict.
enum class Verdict { ham, unsure, spam };

/// Human-readable verdict name ("ham" / "unsure" / "spam").
std::string_view to_string(Verdict v);

/// True when `v` is no spammier than `goal` under the ordering
/// ham < unsure < spam — the success test every Exploratory (evasion)
/// attack applies to its goal verdict.
bool verdict_at_most(Verdict v, Verdict goal);

/// One token's contribution to a score, exposed for analysis (Figure 4
/// plots these before/after an attack). Resolve the spelling on demand via
/// TokenInterner::spelling.
struct TokenIdEvidence {
  TokenId id = 0;
  double score = 0.5;  // f(w) from Eq. 2
  bool used = false;   // selected into delta(E)?
};

/// Full scoring breakdown for one message.
struct ScoreIdResult {
  double score = 0.5;           // I(E) in [0,1], Eq. 3
  double spam_evidence = 0.0;   // H(E) in the paper's notation, Eq. 4
  double ham_evidence = 0.0;    // S(E)
  std::size_t tokens_used = 0;  // n = |delta(E)|
  Verdict verdict = Verdict::unsure;
  std::vector<TokenIdEvidence> evidence;  // one per id, in input order
};

/// Stateless scorer over a TokenDatabase snapshot.
class Classifier {
 public:
  explicit Classifier(ClassifierOptions opts = {});

  /// f(w) per Eq. 1-2 against the given database.
  double token_score(const TokenDatabase& db, std::string_view token) const;

  /// f(w) for an interned token (the hot-path form).
  double token_score(const TokenDatabase& db, TokenId id) const;

  /// ScoreEngine::score_ids(db, ids) on the calling thread's engine.
  ScoreIdResult score_ids(const TokenDatabase& db,
                          const TokenIdList& ids) const;

  /// ScoreEngine::score_ids(base, overlay, ids) on the calling thread's
  /// engine: bit-identical to score_ids() on a database trained on base's
  /// and overlay's message sets together.
  ScoreIdResult score_ids(const TokenDatabase& base,
                          const SparseTokenDatabase& overlay,
                          const TokenIdList& ids) const;

  /// Maps a score I(E) to a verdict using the configured cutoffs:
  /// ham for [0, theta0], unsure for (theta0, theta1], spam for (theta1, 1].
  Verdict verdict_for(double score) const;

  /// Verdict with explicit cutoffs (the dynamic-threshold defense swaps
  /// thresholds without re-scoring).
  static Verdict verdict_for(double score, double ham_cutoff,
                             double spam_cutoff);

  const ClassifierOptions& options() const { return opts_; }

 private:
  ClassifierOptions opts_;
};

}  // namespace sbx::spambayes
