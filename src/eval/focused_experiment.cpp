// Figures 2, 3 and 4 drivers and the focused poison harness they share
// with the §4.3 guessing ablation. Poison comes from a core::Attack (the
// CraftContext carries the target and the spam header pool): the
// knowledge/size curves take any attack, Figure 4 the registry "focused"
// attack. Identical-copy poison is tokenized once and trained as copies.
#include <algorithm>
#include <optional>
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

}  // namespace

FocusedRun::FocusedRun(const corpus::TrecLikeGenerator& gen,
                       const FocusedConfig& config, util::Rng& rng)
    : filter(config.filter) {
  inbox = gen.sample_mailbox(config.inbox_size, config.spam_fraction, rng);
  tokenized = corpus::tokenize_dataset(inbox, filter.tokenizer());
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

TargetPoison craft_target_poison(const core::Attack& attack,
                                 core::CraftContext& ctx,
                                 const spambayes::Tokenizer& tokenizer) {
  TargetPoison poison;
  poison.count = ctx.count;
  poison.label = attack.poison_label();
  // canonical_poison() draws from ctx.rng exactly as the default
  // craft_poison() would before copying its message.
  if (const std::optional<core::CanonicalPoison> canonical =
          attack.canonical_poison(ctx.generator, ctx.params, ctx.rng)) {
    poison.emails.push_back(tokenizer.tokenize_id_set(canonical->message));
    poison.first_body = canonical->message.body();
    return poison;
  }
  const std::vector<email::Message> emails = attack.craft_poison(ctx);
  poison.count = emails.size();
  poison.emails.reserve(emails.size());
  for (const email::Message& m : emails) {
    poison.emails.push_back(tokenizer.tokenize_id_set(m));
  }
  if (!emails.empty()) poison.first_body = emails.front().body();
  return poison;
}

void with_poison_trained(spambayes::Filter& filter, const TargetPoison& poison,
                         const std::vector<std::size_t>& counts,
                         const std::function<void(std::size_t)>& measure) {
  const bool spam = poison.label == corpus::TrueLabel::spam;
  // Trains (or untrains) poison emails [from, to).
  const auto apply = [&](std::size_t from, std::size_t to, bool train) {
    if (from >= to) return;
    const auto one = [&](const spambayes::TokenIdSet& ids,
                         std::uint32_t copies) {
      if (train) {
        spam ? filter.train_spam_ids(ids, copies)
             : filter.train_ham_ids(ids, copies);
      } else {
        spam ? filter.untrain_spam_ids(ids, copies)
             : filter.untrain_ham_ids(ids, copies);
      }
    };
    if (poison.emails.size() == 1) {
      one(poison.emails.front(), checked_copies(to - from));
    } else {
      for (std::size_t i = from; i < to; ++i) one(poison.emails[i], 1);
    }
  };
  std::size_t trained = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    apply(trained, counts[i], /*train=*/true);
    trained = std::max(trained, counts[i]);
    measure(i);
  }
  apply(0, trained, /*train=*/false);
}

std::vector<FocusedKnowledgePoint> run_focused_knowledge(
    const corpus::TrecLikeGenerator& gen, const core::Attack& attack,
    const util::Config& attack_params,
    const std::vector<double>& guess_probabilities, std::size_t attack_count,
    const FocusedConfig& config) {
  Runner runner(config.seed, config.threads);
  const std::vector<util::Config> point_params =
      per_point_params(attack_params, guess_probabilities);

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
        const spambayes::Tokenizer& tokenizer = run.filter.tokenizer();

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
            const TargetPoison poison =
                craft_target_poison(attack, ctx, tokenizer);

            spambayes::Verdict verdict = spambayes::Verdict::unsure;
            with_poison_trained(run.filter, poison, {poison.count},
                                [&](std::size_t) {
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

  std::vector<double> fractions = attack_fractions;
  std::sort(fractions.begin(), fractions.end());
  std::vector<std::size_t> counts;
  for (double fraction : fractions) {
    counts.push_back(core::attack_message_count(config.inbox_size, fraction));
  }

  std::vector<FocusedSizePoint> points(fractions.size());

  runner.map_reduce(
      config.repetitions, /*salt=*/2000,
      [&](std::size_t, util::Rng& rng) {
        FocusedRun run(gen, config, rng);
        const spambayes::Tokenizer& tokenizer = run.filter.tokenizer();

        std::vector<FocusedSizePoint> local(fractions.size());
        for (std::size_t t = 0; t < config.target_count; ++t) {
          const email::Message target = gen.generate_ham(rng);
          const spambayes::TokenIdSet target_ids =
              run.filter.message_token_ids(target);
          const spambayes::TokenSet body_words =
              core::attackable_body_words(target, tokenizer);

          util::Rng attack_rng = rng.fork(104729 * (t + 1));
          core::CraftContext ctx{gen,     point_params.front(),
                                 attack_rng, counts.back(),
                                 &target, &body_words,
                                 &run.spam_headers};
          const TargetPoison poison =
              craft_target_poison(attack, ctx, tokenizer);

          // Ascending sweep: each point trains on top of the last.
          with_poison_trained(
              run.filter, poison, counts, [&](std::size_t pi) {
                const spambayes::Verdict verdict =
                    run.filter.classify_ids(target_ids).verdict;
                FocusedSizePoint& p = local[pi];
                p.targets += 1;
                p.as_spam += verdict == spambayes::Verdict::spam ? 1 : 0;
                p.as_unsure_or_spam +=
                    verdict != spambayes::Verdict::ham ? 1 : 0;
              });
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
    points[pi].attack_messages = counts[pi];
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
  const spambayes::Tokenizer& tokenizer = run.filter.tokenizer();
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
    const TargetPoison poison = craft_target_poison(attack, ctx, tokenizer);

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

    // Every email carries the one fixed guess set as its body, one word
    // per whitespace-separated field, so the first body is the guess.
    std::unordered_set<std::string> guessed;
    for (const auto& word : util::split_whitespace(poison.first_body)) {
      guessed.insert(word);
    }

    spambayes::ScoreIdResult after;
    with_poison_trained(run.filter, poison, {poison.count}, [&](std::size_t) {
      after = run.filter.classify_ids(target_ids);
      for (std::size_t i = 0; i < shift.size(); ++i) {
        TokenShiftPoint& p = shift[i];
        p.score_after =
            classifier.token_score(run.filter.database(), report_ids[i]);
        p.in_attack = guessed.count(p.token) != 0;
      }
    });

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
