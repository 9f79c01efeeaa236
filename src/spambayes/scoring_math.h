// sbx/spambayes/scoring_math.h
//
// The per-token arithmetic of SpamBayes scoring (paper §2.3): Eq. 1-2
// (the spam score smoothed toward the prior), the delta(E) eligibility
// test and the Fisher log terms. ScoreEngine is the only scorer; its
// memoized base path and its overlay path both call these functions, so
// the two evaluate the same floating-point operations and a memoized
// value carries the bits a fresh call would return.
#pragma once

#include <algorithm>
#include <cmath>

#include "spambayes/options.h"
#include "spambayes/token_db.h"

namespace sbx::spambayes::detail {

/// Eq. 1-2 over raw presence counts NS(w), NH(w), NS and NH. Expressed
/// through per-class presence ratios, which is exactly NH*NS(w) /
/// (NH*NS(w) + NS*NH(w)) when both class counts are nonzero and degrades
/// gracefully when one class is empty; Eq. 2 then shrinks toward the prior
/// x with strength s. Counts arrive as doubles: every count below 2^53 is
/// exact there, so a sum of counts never wraps.
inline double score_from_counts(double spam, double ham, double ns,
                                double nh, const ClassifierOptions& opts) {
  const double spam_ratio = ns > 0 ? spam / ns : 0.0;
  const double ham_ratio = nh > 0 ? ham / nh : 0.0;
  double ps = 0.5;
  if (spam_ratio + ham_ratio > 0) {
    ps = spam_ratio / (spam_ratio + ham_ratio);
  }
  const double n_w = spam + ham;
  const double s = opts.unknown_word_strength;
  const double x = opts.unknown_word_prob;
  return (s * x + n_w * ps) / (s + n_w);
}

/// |f - 0.5|, the key delta(E) is ordered by.
inline double neutral_distance(double f) { return std::fabs(f - 0.5); }

/// delta(E) eligibility: a token is a discriminator only when its score is
/// strictly outside [0.5 - strength, 0.5 + strength].
inline bool is_discriminator(double distance, const ClassifierOptions& opts) {
  return distance > opts.minimum_prob_strength;
}

/// One selected token's contribution to Fisher's method (Eq. 4).
struct FisherTerms {
  double log_f = 0.0;
  double log_1mf = 0.0;
};

/// log f and log(1 - f). f is inside (0,1) when s > 0; the clamp keeps a
/// degenerate configuration (s == 0) from taking log(0).
inline FisherTerms fisher_terms(double f) {
  const double clamped = std::clamp(f, 1e-300, 1.0 - 1e-15);
  return {std::log(clamped), std::log1p(-clamped)};
}

/// Whether a token absent from every database can enter delta(E). Its
/// counts are {0, 0} in the base and in any overlay, and with both counts
/// zero the score does not depend on the class totals. When this is false
/// (it is for the default options), dropping such tokens before scoring
/// leaves delta(E), and with it the score and verdict, bit-identical.
inline bool unseen_token_is_discriminator(const ClassifierOptions& opts) {
  return is_discriminator(
      neutral_distance(score_from_counts(0.0, 0.0, 0.0, 0.0, opts)), opts);
}

}  // namespace sbx::spambayes::detail
