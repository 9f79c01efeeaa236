// Figures 2, 3 and 4 drivers: the focused (targeted) attack. Poison
// emails come from a core::Attack's craft_poison hook (the CraftContext
// carries the target and the spam header pool): the knowledge/size curves
// take any attack, Figure 4 the registry "focused" attack.
#include <algorithm>
#include <unordered_set>

#include "core/attack_math.h"
#include "core/attack_registry.h"
#include "core/focused_attack.h"
#include "eval/attack_axis.h"
#include "eval/experiments.h"
#include "eval/runner.h"
#include "util/error.h"
#include "util/strings.h"

namespace sbx::eval {
namespace {

/// Per-repetition environment shared by the focused-attack experiments:
/// a fresh clean inbox, the trained base filter, and the pool of spam
/// messages whose headers attack emails clone.
struct FocusedRun {
  corpus::Dataset inbox;
  corpus::TokenizedDataset tokenized;
  spambayes::Filter filter;
  std::vector<const email::Message*> spam_headers;

  FocusedRun(const corpus::TrecLikeGenerator& gen,
             const FocusedConfig& config, util::Rng& rng)
      : filter(config.filter) {
    inbox = gen.sample_mailbox(config.inbox_size, config.spam_fraction, rng);
    tokenized = corpus::tokenize_dataset(
        inbox, spambayes::Tokenizer(config.filter.tokenizer));
    for (std::size_t i = 0; i < inbox.items.size(); ++i) {
      const auto& item = tokenized.items[i];
      if (item.label == corpus::TrueLabel::spam) {
        filter.train_spam_ids(item.ids);
        spam_headers.push_back(&inbox.items[i].message);
      } else {
        filter.train_ham_ids(item.ids);
      }
    }
    if (spam_headers.empty()) {
      throw InvalidArgument("FocusedRun: inbox contains no spam headers");
    }
  }
};

/// Trains the given attack emails under `label`, runs `body`, then
/// untrains them exactly, restoring the filter. Returns body's
/// verdict-relevant result through the callable's side effects.
template <typename Body>
void with_attack_trained(spambayes::Filter& filter,
                         const std::vector<spambayes::TokenIdSet>& attack_ids,
                         std::size_t count, corpus::TrueLabel label,
                         Body&& body) {
  const bool spam = label == corpus::TrueLabel::spam;
  for (std::size_t i = 0; i < count; ++i) {
    if (spam) {
      filter.train_spam_ids(attack_ids[i]);
    } else {
      filter.train_ham_ids(attack_ids[i]);
    }
  }
  body();
  for (std::size_t i = 0; i < count; ++i) {
    if (spam) {
      filter.untrain_spam_ids(attack_ids[i]);
    } else {
      filter.untrain_ham_ids(attack_ids[i]);
    }
  }
}

/// Per-point attack params: `guess_probability` (when the attack declares
/// it) overridden with the point's value, round-trip-formatted so the
/// attack parses back the identical double.
std::vector<util::Config> per_point_params(
    const util::Config& attack_params,
    const std::vector<double>& guess_probabilities) {
  std::vector<util::Config> out(guess_probabilities.size(), attack_params);
  if (attack_params.has("guess_probability")) {
    for (std::size_t pi = 0; pi < guess_probabilities.size(); ++pi) {
      out[pi].set("guess_probability",
                  round_trip_string(guess_probabilities[pi]));
    }
  }
  return out;
}

std::vector<spambayes::TokenIdSet> tokenize_attack_emails(
    const std::vector<email::Message>& emails,
    const spambayes::Tokenizer& tokenizer) {
  std::vector<spambayes::TokenIdSet> out;
  out.reserve(emails.size());
  for (const auto& m : emails) {
    out.push_back(tokenizer.tokenize_id_set(m));
  }
  return out;
}

}  // namespace

std::vector<FocusedKnowledgePoint> run_focused_knowledge(
    const corpus::TrecLikeGenerator& gen, const core::Attack& attack,
    const util::Config& attack_params,
    const std::vector<double>& guess_probabilities, std::size_t attack_count,
    const FocusedConfig& config) {
  Runner runner(config.seed, config.threads);
  const std::vector<util::Config> point_params =
      per_point_params(attack_params, guess_probabilities);
  const corpus::TrueLabel poison_label = attack.poison_label();

  std::vector<FocusedKnowledgePoint> points(guess_probabilities.size());
  for (std::size_t pi = 0; pi < guess_probabilities.size(); ++pi) {
    points[pi].guess_probability = guess_probabilities[pi];
  }

  // One trial per repetition; targets/probabilities iterate inside so the
  // expensive inbox construction is amortized.
  runner.map_reduce(
      config.repetitions, /*salt=*/1000,
      [&](std::size_t, util::Rng& rng) {
        FocusedRun run(gen, config, rng);
        const spambayes::Tokenizer tokenizer(config.filter.tokenizer);

        std::vector<FocusedKnowledgePoint> local(points.size());
        for (std::size_t t = 0; t < config.target_count; ++t) {
          // Fresh held-out ham target (not part of the training inbox).
          const email::Message target = gen.generate_ham(rng);
          const spambayes::TokenIdSet target_ids =
              run.filter.message_token_ids(target);
          const spambayes::TokenSet body_words =
              core::attackable_body_words(target, tokenizer);
          const bool control_ham =
              run.filter.classify_ids(target_ids).verdict ==
              spambayes::Verdict::ham;

          for (std::size_t pi = 0; pi < guess_probabilities.size(); ++pi) {
            util::Rng attack_rng = rng.fork(7919 * (t + 1) + pi);
            core::CraftContext ctx{gen,     point_params[pi],
                                   attack_rng, attack_count,
                                   &target, &body_words,
                                   &run.spam_headers};
            const auto attack_ids =
                tokenize_attack_emails(attack.craft_poison(ctx), tokenizer);

            spambayes::Verdict verdict = spambayes::Verdict::unsure;
            with_attack_trained(run.filter, attack_ids, attack_ids.size(),
                                poison_label, [&] {
                                  verdict = run.filter
                                                .classify_ids(target_ids)
                                                .verdict;
                                });
            FocusedKnowledgePoint& p = local[pi];
            p.targets += 1;
            p.control_as_ham += control_ham ? 1 : 0;
            switch (verdict) {
              case spambayes::Verdict::ham:
                p.as_ham += 1;
                break;
              case spambayes::Verdict::unsure:
                p.as_unsure += 1;
                break;
              case spambayes::Verdict::spam:
                p.as_spam += 1;
                break;
            }
          }
        }
        return local;
      },
      [&](std::size_t, std::vector<FocusedKnowledgePoint> local) {
        for (std::size_t pi = 0; pi < points.size(); ++pi) {
          points[pi].targets += local[pi].targets;
          points[pi].as_ham += local[pi].as_ham;
          points[pi].as_unsure += local[pi].as_unsure;
          points[pi].as_spam += local[pi].as_spam;
          points[pi].control_as_ham += local[pi].control_as_ham;
        }
      });
  return points;
}

std::vector<FocusedSizePoint> run_focused_size(
    const corpus::TrecLikeGenerator& gen, const core::Attack& attack,
    const util::Config& attack_params, double guess_probability,
    const std::vector<double>& attack_fractions, const FocusedConfig& config) {
  Runner runner(config.seed, config.threads);
  const std::vector<util::Config> point_params =
      per_point_params(attack_params, {guess_probability});
  const corpus::TrueLabel poison_label = attack.poison_label();
  const bool poison_spam = poison_label == corpus::TrueLabel::spam;

  std::vector<double> fractions = attack_fractions;
  std::sort(fractions.begin(), fractions.end());

  std::vector<FocusedSizePoint> points(fractions.size());

  runner.map_reduce(
      config.repetitions, /*salt=*/2000,
      [&](std::size_t, util::Rng& rng) {
        FocusedRun run(gen, config, rng);
        const spambayes::Tokenizer tokenizer(config.filter.tokenizer);
        const std::size_t max_messages = core::attack_message_count(
            config.inbox_size, fractions.back());

        std::vector<FocusedSizePoint> local(fractions.size());
        for (std::size_t t = 0; t < config.target_count; ++t) {
          const email::Message target = gen.generate_ham(rng);
          const spambayes::TokenIdSet target_ids =
              run.filter.message_token_ids(target);
          const spambayes::TokenSet body_words =
              core::attackable_body_words(target, tokenizer);

          util::Rng attack_rng = rng.fork(104729 * (t + 1));
          core::CraftContext ctx{gen,     point_params.front(),
                                 attack_rng, max_messages,
                                 &target, &body_words,
                                 &run.spam_headers};
          const auto attack_ids =
              tokenize_attack_emails(attack.craft_poison(ctx), tokenizer);

          // Ascending sweep: train incrementally, then untrain everything.
          std::size_t trained = 0;
          for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
            const std::size_t want = core::attack_message_count(
                config.inbox_size, fractions[pi]);
            for (; trained < want; ++trained) {
              if (poison_spam) {
                run.filter.train_spam_ids(attack_ids[trained]);
              } else {
                run.filter.train_ham_ids(attack_ids[trained]);
              }
            }
            spambayes::Verdict verdict =
                run.filter.classify_ids(target_ids).verdict;
            FocusedSizePoint& p = local[pi];
            p.targets += 1;
            p.as_spam += verdict == spambayes::Verdict::spam ? 1 : 0;
            p.as_unsure_or_spam +=
                verdict != spambayes::Verdict::ham ? 1 : 0;
          }
          for (std::size_t i = 0; i < trained; ++i) {
            if (poison_spam) {
              run.filter.untrain_spam_ids(attack_ids[i]);
            } else {
              run.filter.untrain_ham_ids(attack_ids[i]);
            }
          }
        }
        return local;
      },
      [&](std::size_t, std::vector<FocusedSizePoint> local) {
        for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
          points[pi].targets += local[pi].targets;
          points[pi].as_spam += local[pi].as_spam;
          points[pi].as_unsure_or_spam += local[pi].as_unsure_or_spam;
        }
      });

  for (std::size_t pi = 0; pi < fractions.size(); ++pi) {
    points[pi].attack_fraction = fractions[pi];
    points[pi].attack_messages =
        core::attack_message_count(config.inbox_size, fractions[pi]);
  }
  return points;
}

std::vector<TokenShiftExample> run_token_shift(
    const corpus::TrecLikeGenerator& gen, double guess_probability,
    std::size_t attack_count, const FocusedConfig& config,
    std::size_t max_targets) {
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  util::Config params = attack.default_params();
  params.set("guess_probability", round_trip_string(guess_probability));
  util::Rng rng(config.seed);
  FocusedRun run(gen, config, rng);
  const spambayes::Tokenizer tokenizer(config.filter.tokenizer);
  const spambayes::Classifier& classifier = run.filter.classifier();

  bool have_spam = false;
  bool have_unsure = false;
  bool have_ham = false;
  std::vector<TokenShiftExample> examples;

  for (std::size_t t = 0; t < max_targets; ++t) {
    if (have_spam && have_unsure && have_ham) break;
    const email::Message target = gen.generate_ham(rng);
    // One tokenizer pass; spellings for the report are resolved from ids.
    const spambayes::TokenIdSet target_ids =
        run.filter.message_token_ids(target);
    const spambayes::TokenSet body_words =
        core::attackable_body_words(target, tokenizer);

    util::Rng attack_rng = rng.fork(15485863 * (t + 1));
    core::CraftContext ctx{gen,        params,      attack_rng,
                           attack_count, &target,   &body_words,
                           &run.spam_headers};
    const std::vector<email::Message> attack_emails =
        attack.craft_poison(ctx);

    // Token scores before. Shift points are reported in spelling order
    // (the order the string path produced).
    const double score_before = run.filter.classify_ids(target_ids).score;
    const spambayes::TokenInterner& interner = spambayes::global_interner();
    std::vector<spambayes::TokenId> report_ids = target_ids;
    std::sort(report_ids.begin(), report_ids.end(),
              [&](spambayes::TokenId a, spambayes::TokenId b) {
                return interner.spelling(a) < interner.spelling(b);
              });
    std::vector<TokenShiftPoint> shift;
    shift.reserve(report_ids.size());
    for (spambayes::TokenId id : report_ids) {
      TokenShiftPoint p;
      p.token = std::string(interner.spelling(id));
      p.score_before = classifier.token_score(run.filter.database(), id);
      shift.push_back(std::move(p));
    }

    const std::vector<spambayes::TokenIdSet> attack_ids =
        tokenize_attack_emails(attack_emails, tokenizer);
    // Every email carries the one fixed guess set as its body, one word
    // per whitespace-separated field, so the first body is the guess.
    std::unordered_set<std::string> guessed;
    if (!attack_emails.empty()) {
      for (const auto& word : util::split_whitespace(
               attack_emails.front().body())) {
        guessed.insert(word);
      }
    }

    for (const auto& ids : attack_ids) {
      run.filter.train_spam_ids(ids);
    }
    const spambayes::ScoreIdResult after =
        run.filter.classify_ids(target_ids);
    for (std::size_t i = 0; i < shift.size(); ++i) {
      TokenShiftPoint& p = shift[i];
      p.score_after =
          classifier.token_score(run.filter.database(), report_ids[i]);
      p.in_attack = guessed.count(p.token) != 0;
    }
    for (const auto& ids : attack_ids) {
      run.filter.untrain_spam_ids(ids);
    }

    bool* flag = nullptr;
    switch (after.verdict) {
      case spambayes::Verdict::spam:
        flag = &have_spam;
        break;
      case spambayes::Verdict::unsure:
        flag = &have_unsure;
        break;
      case spambayes::Verdict::ham:
        flag = &have_ham;
        break;
    }
    if (flag != nullptr && !*flag) {
      *flag = true;
      TokenShiftExample ex;
      ex.verdict_after = after.verdict;
      ex.message_score_before = score_before;
      ex.message_score_after = after.score;
      ex.tokens = std::move(shift);
      examples.push_back(std::move(ex));
    }
  }
  return examples;
}

}  // namespace sbx::eval
