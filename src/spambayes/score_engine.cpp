#include "spambayes/score_engine.h"

#include <algorithm>
#include <bit>

#include "spambayes/scoring_math.h"
#include "util/error.h"
#include "util/stats.h"

namespace sbx::spambayes {
namespace {

/// First 8 bytes of a spelling as a big-endian integer (zero-padded).
/// Ordering by this key agrees with bytewise lexicographic order whenever
/// the keys differ; equal keys defer to the full comparison.
std::uint64_t spelling_prefix(std::string_view spelling) {
  std::uint64_t key = 0;
  const std::size_t n = std::min<std::size_t>(spelling.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    key |= static_cast<std::uint64_t>(static_cast<unsigned char>(spelling[i]))
           << (56 - 8 * i);
  }
  return key;
}

ScoreIdResult to_result(const BatchScore& scored,
                        std::vector<TokenIdEvidence> evidence) {
  return {scored.score,       scored.spam_evidence, scored.ham_evidence,
          scored.tokens_used, scored.verdict,       std::move(evidence)};
}

}  // namespace

ScoreEngine::ScoreEngine(ClassifierOptions opts) : opts_(opts) {}

void ScoreEngine::rebind_options(const ClassifierOptions& opts) {
  if (opts.unknown_word_strength != opts_.unknown_word_strength ||
      opts.unknown_word_prob != opts_.unknown_word_prob ||
      opts.minimum_prob_strength != opts_.minimum_prob_strength) {
    ++epoch_;
  }
  opts_ = opts;
}

void ScoreEngine::bind(const TokenDatabase& db) {
  const std::uint64_t gen = db.generation();
  if (gen != generation_) {
    generation_ = gen;
    ns_ = db.spam_count();
    nh_ = db.ham_count();
    ++epoch_;
  }
}

void ScoreEngine::check_generation(const TokenDatabase& db,
                                   std::uint64_t bound) const {
  if (db.generation() != bound) {
    throw InvalidArgument(
        "ScoreEngine::score_batch: TokenDatabase mutated mid-batch "
        "(generation moved; a batch scores one database snapshot)");
  }
}

const ScoreEngine::TokenMemo& ScoreEngine::memo_for(const TokenDatabase& db,
                                                    TokenId id) {
  if (id >= memo_.size()) {
    memo_.resize(std::max<std::size_t>(id + 1, memo_.size() * 2));
  }
  TokenMemo& m = memo_[id];
  if (m.epoch != epoch_) {
    const TokenCounts c = db.counts(id);
    const double f = detail::score_from_counts(c.spam, c.ham, ns_, nh_, opts_);
    m.f = f;
    m.distance = detail::neutral_distance(f);
    m.strong = detail::is_discriminator(m.distance, opts_);
    if (m.strong) {
      m.terms = detail::fisher_terms(f);
      m.spell_prefix = spelling_prefix(global_interner().spelling(id));
    }
    m.epoch = epoch_;
  }
  return m;
}

ScoreEngine::DistanceKey ScoreEngine::distance_key(double distance) {
  return ~std::bit_cast<std::uint64_t>(distance);
}

ScoreEngine::SortKey ScoreEngine::sort_key(double distance,
                                           std::uint64_t spell_prefix) {
  return (static_cast<SortKey>(distance_key(distance)) << 64) | spell_prefix;
}

template <typename Key, typename LogTerms>
void ScoreEngine::select_and_combine(std::vector<Candidate<Key>>& candidates,
                                     std::span<TokenIdEvidence> evidence,
                                     BatchScore& out,
                                     const LogTerms& log_terms) {
  // Delta(E): up to max_discriminators candidates in the strict total
  // order (distance desc, spelling asc). One packed-integer compare stands
  // in for the (distance, spelling) pair (see SortKey; distance ties are
  // common in small corpora and full string compares are the expensive
  // part of the sort); equal keys fall back to the interner. Because the
  // order is strict and total, nth_element + a prefix sort picks exactly
  // the prefix a full sort would, and the summation order below, and with
  // it every bit of the score, does not depend on input order.
  const TokenInterner& interner = global_interner();
  const auto stronger = [&](const Candidate<Key>& a,
                            const Candidate<Key>& b) {
    if (a.key != b.key) return a.key < b.key;
    return interner.spelling(evidence[a.index].id) <
           interner.spelling(evidence[b.index].id);
  };
  if (candidates.size() > opts_.max_discriminators) {
    const auto cut = candidates.begin() +
                     static_cast<std::ptrdiff_t>(opts_.max_discriminators);
    std::nth_element(candidates.begin(), cut, candidates.end(), stronger);
    candidates.resize(opts_.max_discriminators);
  }
  std::sort(candidates.begin(), candidates.end(), stronger);

  const std::size_t n = candidates.size();
  out.tokens_used = n;
  out.evidence = evidence;
  if (n == 0) {
    // No evidence: I = 0.5, which the default thresholds call unsure.
    out.score = 0.5;
    out.spam_evidence = out.ham_evidence = 0.5;
    out.verdict = Classifier::verdict_for(out.score, opts_.ham_cutoff,
                                          opts_.spam_cutoff);
    return;
  }

  double sum_log_f = 0.0;
  double sum_log_1mf = 0.0;
  for (const Candidate<Key>& candidate : candidates) {
    TokenIdEvidence& ev = evidence[candidate.index];
    ev.used = true;
    const detail::FisherTerms terms = log_terms(ev);
    sum_log_f += terms.log_f;
    sum_log_1mf += terms.log_1mf;
  }

  // Eq. 4 (survival form): H = Q(-2 sum log f; 2n), S = Q(-2 sum log(1-f)).
  // The pair form interleaves the two independent Erlang folds
  // (bit-identical to two single calls, roughly half the wall clock).
  double h;
  double s;
  util::chi2q_even_dof_pair(-2.0 * sum_log_f, -2.0 * sum_log_1mf, n, &h, &s);
  out.spam_evidence = h;
  out.ham_evidence = s;
  out.score = (1.0 + h - s) / 2.0;  // Eq. 3
  out.verdict = Classifier::verdict_for(out.score, opts_.ham_cutoff,
                                        opts_.spam_cutoff);
}

void ScoreEngine::score_into(const TokenDatabase& db, const TokenIdList& ids,
                             BatchScore& out) {
  evidence_.clear();
  candidates_.clear();
  for (TokenId id : ids) {
    const TokenMemo& m = memo_for(db, id);
    evidence_.push_back({id, m.f, false});
    if (m.strong) {
      candidates_.push_back({sort_key(m.distance, m.spell_prefix),
                             static_cast<std::uint32_t>(evidence_.size() - 1)});
    }
  }
  select_and_combine(candidates_, evidence_, out,
                     [&](const TokenIdEvidence& ev) {
                       return memo_[ev.id].terms;  // filled above, same epoch
                     });
}

ScoreIdResult ScoreEngine::score_ids(const TokenDatabase& db,
                                     const TokenIdList& ids) {
  bind(db);
  BatchScore scored;
  score_into(db, ids, scored);
  return to_result(scored, {scored.evidence.begin(), scored.evidence.end()});
}

ScoreIdResult ScoreEngine::score_ids(const TokenDatabase& base,
                                     const SparseTokenDatabase& overlay,
                                     const TokenIdList& ids) {
  // Counts and totals are summed in double, where every sum of two uint32
  // values is exact: bit-identical inputs to score_from_counts versus a
  // database trained on base's and overlay's message sets together, and
  // no wrap where an untrain left a token's count above its class total.
  // The memo is neither read nor rebound (merged totals move every token's
  // f), so the base memo stays warm for the next empty-overlay user on
  // this thread.
  const double ns =
      static_cast<double>(base.spam_count()) + overlay.spam_count();
  const double nh =
      static_cast<double>(base.ham_count()) + overlay.ham_count();
  std::vector<TokenIdEvidence> evidence;
  evidence.reserve(ids.size());
  overlay_candidates_.clear();
  for (TokenId id : ids) {
    const TokenCounts b = base.counts(id);
    const TokenCounts o = overlay.counts(id);
    const double f = detail::score_from_counts(
        static_cast<double>(b.spam) + o.spam,
        static_cast<double>(b.ham) + o.ham, ns, nh, opts_);
    evidence.push_back({id, f, false});
    const double distance = detail::neutral_distance(f);
    if (detail::is_discriminator(distance, opts_)) {
      overlay_candidates_.push_back(
          {distance_key(distance),
           static_cast<std::uint32_t>(evidence.size() - 1)});
    }
  }
  BatchScore scored;
  select_and_combine(overlay_candidates_, evidence, scored,
                     [](const TokenIdEvidence& ev) {
                       // Selected tokens only.
                       return detail::fisher_terms(ev.score);
                     });
  return to_result(scored, std::move(evidence));
}

ScoreEngine& ScoreEngine::for_current_thread(const ClassifierOptions& opts) {
  thread_local ScoreEngine engine;
  engine.rebind_options(opts);
  return engine;
}

}  // namespace sbx::spambayes
