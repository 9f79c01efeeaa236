// Pins the registry attacks' outputs. The dictionary family is checked
// against core::DictionaryAttack built directly, message by message and
// through the Causative experiment drivers bit-for-bit. The focused,
// ham-labeled and good-word attacks were once an attack class plus a
// registry adapter each; their crafted messages (CRC-32 of headers and
// body), evade counters and the focused-knowledge counts are pinned to the
// values that two-class implementation produced at these fixed seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/attack_registry.h"
#include "core/dictionary_attack.h"
#include "core/focused_attack.h"
#include "core/informed_attack.h"
#include "email/builder.h"
#include "eval/attack_axis.h"
#include "eval/experiments.h"
#include "eval/registry.h"
#include "spambayes/filter.h"
#include "support/registry_attacks.h"
#include "util/crc32.h"
#include "util/error.h"

namespace sbx::eval {
namespace {

const corpus::TrecLikeGenerator& generator() {
  static const corpus::TrecLikeGenerator* g = new corpus::TrecLikeGenerator();
  return *g;
}

std::string flatten(const email::Message& m) {
  std::string out;
  for (const auto& field : m.headers()) {
    out += field.name;
    out += ": ";
    out += field.value;
    out += "\n";
  }
  out += "\n";
  out += m.body();
  return out;
}

std::uint32_t crc_of(const email::Message& m) {
  const std::string flat = flatten(m);
  return util::crc32(flat.data(), flat.size());
}

/// Registry canonical poison under `overrides`, crafted with Rng(seed)
/// through the experiments' eval::resolve_poison.
core::CanonicalPoison registry_poison(
    const std::string& attack_name,
    const test_support::ParamOverrides& overrides, std::uint64_t seed) {
  const core::Attack& attack =
      core::builtin_attack_registry().get(attack_name);
  BoundAttack bound{&attack, test_support::attack_params(attack, overrides)};
  util::Rng rng(seed);
  return resolve_poison(bound, generator(), rng);
}

void expect_same_poison(const core::CanonicalPoison& ported,
                        const core::DictionaryAttack& direct) {
  const core::CanonicalPoison pre = direct.canonical_poison();
  EXPECT_EQ(ported.display_name, pre.display_name);
  EXPECT_EQ(ported.payload_size, pre.payload_size);
  EXPECT_EQ(ported.train_as, pre.train_as);
  EXPECT_TRUE(ported.trigger.empty());
  EXPECT_EQ(flatten(ported.message), flatten(pre.message));
}

TEST(AttackEquivalence, DictionaryFamilyCanonicalMessages) {
  const auto& lexicons = generator().lexicons();
  expect_same_poison(registry_poison("usenet", {}, 1),
                     core::DictionaryAttack::usenet(lexicons));
  expect_same_poison(
      registry_poison("usenet", {{"dictionary_size", "25000"}}, 1),
      core::DictionaryAttack::usenet(lexicons, 25'000));
  expect_same_poison(registry_poison("aspell", {}, 1),
                     core::DictionaryAttack::aspell(lexicons));
  expect_same_poison(
      registry_poison("aspell", {{"dictionary_size", "10000"}}, 1),
      core::DictionaryAttack::aspell_truncated(lexicons, 10'000));
  expect_same_poison(registry_poison("optimal", {}, 1),
                     core::DictionaryAttack::optimal(generator()));
  expect_same_poison(
      registry_poison("informed", {{"dictionary_size", "5000"}}, 1),
      core::make_informed_attack(generator().ham_word_distribution(), 5'000));
}

TEST(AttackEquivalence, OptimalRejectsTruncation) {
  EXPECT_THROW(registry_poison("optimal", {{"dictionary_size", "100"}}, 1),
               InvalidArgument);
}

TEST(AttackEquivalence, HamLabeledCanonicalMessage) {
  const core::CanonicalPoison poison = registry_poison("ham-labeled", {}, 77);
  EXPECT_EQ(poison.train_as, corpus::TrueLabel::ham);
  EXPECT_EQ(poison.display_name, "ham-labeled");
  EXPECT_EQ(poison.payload_size, 8500u);
  EXPECT_TRUE(poison.trigger.empty());
  EXPECT_EQ(crc_of(poison.message), 0x9fc969dfu);
}

TEST(AttackEquivalence, FocusedCraftedMessages) {
  const spambayes::Tokenizer tokenizer;
  util::Rng setup_rng(3);
  const email::Message target = generator().generate_ham(setup_rng);
  const spambayes::TokenSet body_words =
      core::attackable_body_words(target, tokenizer);
  const email::Message spam_a = generator().generate_spam(setup_rng);
  const email::Message spam_b = generator().generate_spam(setup_rng);
  // A MIME donor: the attack must strip its framing headers.
  const email::Message mime_donor =
      email::MessageBuilder()
          .from("offers@deals.example")
          .subject("your order")
          .header("Content-Type", "multipart/mixed; boundary=\"b1\"")
          .header("Content-Transfer-Encoding", "base64")
          .build();
  const std::vector<const email::Message*> header_pool = {&spam_a, &spam_b,
                                                          &mime_donor};

  struct Variant {
    test_support::ParamOverrides overrides;
    std::vector<std::uint32_t> crcs;
  };
  const std::vector<Variant> variants = {
      {{}, {0x798d2dd6, 0x0d8bf718, 0xadf5616b, 0x0d8bf718, 0x798d2dd6}},
      {{{"fresh_guess_per_email", "true"}},
       {0x00f36326, 0xb0420886, 0x9042ad88, 0xceb2e88f, 0x4fe44dc4}},
      {{{"extra_words", "5"}},
       {0xf0736eec, 0xf0736eec, 0x5781342f, 0x5781342f, 0x5781342f}},
  };
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  for (const Variant& variant : variants) {
    util::Config params =
        test_support::attack_params(attack, variant.overrides);
    params.set("guess_probability", "0.3");
    util::Rng rng(11);
    core::CraftContext ctx{generator(), params, rng, 5, &target, &body_words,
                           &header_pool};
    const std::vector<email::Message> crafted = attack.craft_poison(ctx);
    ASSERT_EQ(crafted.size(), variant.crcs.size());
    for (std::size_t i = 0; i < crafted.size(); ++i) {
      EXPECT_EQ(crc_of(crafted[i]), variant.crcs[i]) << "message " << i;
    }
  }
}

TEST(AttackEquivalence, FocusedWithoutTargetContextThrows) {
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  const util::Config params = attack.default_params();
  util::Rng rng(1);
  core::CraftContext ctx{generator(), params, rng, 1, nullptr, nullptr,
                         nullptr};
  EXPECT_THROW(attack.craft_poison(ctx), InvalidArgument);
}

TEST(AttackEquivalence, GoodWordEvadeResult) {
  spambayes::Filter filter;
  util::Rng train_rng(21);
  for (int i = 0; i < 100; ++i) {
    filter.train_spam(generator().generate_spam(train_rng));
    filter.train_ham(generator().generate_ham(train_rng));
  }
  const email::Message spam = generator().generate_spam(train_rng);

  struct Expected {
    spambayes::Verdict goal;
    std::uint32_t crc;
    std::size_t words_added;
    std::size_t queries;
    bool evaded;
  };
  const core::Attack& attack =
      core::builtin_attack_registry().get("good-word");
  util::Config params = attack.default_params();
  params.set("common_words", "500");
  for (const Expected& expected :
       {Expected{spambayes::Verdict::unsure, 0x42107211, 250, 26, true},
        Expected{spambayes::Verdict::ham, 0xcf321d28, 400, 41, false}}) {
    core::EvadeContext ctx{generator(), params, filter, 400, expected.goal};
    const core::EvadeResult result = attack.evade(ctx, spam);
    EXPECT_EQ(crc_of(result.message), expected.crc);
    EXPECT_EQ(result.words_added, expected.words_added);
    EXPECT_EQ(result.queries, expected.queries);
    EXPECT_EQ(result.evaded, expected.evaded);
    // The scores are the filter's own, bit-for-bit.
    EXPECT_EQ(result.score_before, filter.classify(spam).score);
    EXPECT_EQ(result.score_after, filter.classify(result.message).score);
  }
}

// ---------------------------------------------------------------------------
// Experiment-level equivalence: the Causative drivers give the same numbers
// for a registry attack as for the core::DictionaryAttack it wraps, and the
// focused driver reproduces its pinned counts at any thread count.
// ---------------------------------------------------------------------------

void expect_same_matrix(const ConfusionMatrix& a, const ConfusionMatrix& b) {
  for (corpus::TrueLabel truth :
       {corpus::TrueLabel::ham, corpus::TrueLabel::spam}) {
    for (spambayes::Verdict verdict :
         {spambayes::Verdict::ham, spambayes::Verdict::unsure,
          spambayes::Verdict::spam}) {
      EXPECT_EQ(a.count(truth, verdict), b.count(truth, verdict));
    }
  }
}

TEST(AttackEquivalence, DictionaryCurveThroughRegistry) {
  DictionaryCurveConfig config;
  config.training_set_size = 400;
  config.folds = 2;
  config.attack_fractions = {0.02};

  // Reference: the DictionaryAttack's own canonical poison.
  const DictionaryCurve pre = run_dictionary_curve(
      generator(),
      core::DictionaryAttack::usenet(generator().lexicons(), 2'000)
          .canonical_poison(),
      config);
  // The same attack resolved through the registry.
  const DictionaryCurve ported = run_dictionary_curve(
      generator(),
      registry_poison("usenet", {{"dictionary_size", "2000"}}, 1), config);

  EXPECT_EQ(ported.attack_name, pre.attack_name);
  EXPECT_EQ(ported.dictionary_size, pre.dictionary_size);
  ASSERT_EQ(ported.points.size(), pre.points.size());
  for (std::size_t i = 0; i < pre.points.size(); ++i) {
    expect_same_matrix(ported.points[i].matrix, pre.points[i].matrix);
    EXPECT_EQ(ported.points[i].attack_messages, pre.points[i].attack_messages);
    EXPECT_EQ(ported.points[i].attack_token_ratio,
              pre.points[i].attack_token_ratio);  // bit-identical
    EXPECT_EQ(ported.points[i].ham_misclassified_by_fold.mean(),
              pre.points[i].ham_misclassified_by_fold.mean());
    EXPECT_EQ(ported.points[i].ham_misclassified_by_fold.stddev(),
              pre.points[i].ham_misclassified_by_fold.stddev());
  }
}

TEST(AttackEquivalence, ThresholdCurveThroughRegistry) {
  DictionaryCurveConfig config;
  config.training_set_size = 400;
  config.folds = 2;
  config.attack_fractions = {0.02};
  config.threshold_variants = {{0.1, 0.9}};

  const auto pre = run_dictionary_curve(
                       generator(),
                       core::DictionaryAttack::usenet(generator().lexicons(),
                                                      2'000)
                           .canonical_poison(),
                       config)
                       .points;
  const auto ported =
      run_dictionary_curve(
          generator(),
          registry_poison("usenet", {{"dictionary_size", "2000"}}, 1), config)
          .points;

  ASSERT_EQ(ported.size(), pre.size());
  for (std::size_t i = 0; i < pre.size(); ++i) {
    expect_same_matrix(ported[i].matrix, pre[i].matrix);
    ASSERT_EQ(ported[i].defended.size(), pre[i].defended.size());
    for (std::size_t vi = 0; vi < pre[i].defended.size(); ++vi) {
      expect_same_matrix(ported[i].defended[vi], pre[i].defended[vi]);
      EXPECT_EQ(ported[i].mean_thresholds[vi].theta0,
                pre[i].mean_thresholds[vi].theta0);
      EXPECT_EQ(ported[i].mean_thresholds[vi].theta1,
                pre[i].mean_thresholds[vi].theta1);
    }
  }
}

TEST(AttackEquivalence, FocusedKnowledgeThroughRegistry) {
  FocusedConfig config;
  config.inbox_size = 400;
  config.target_count = 8;
  config.repetitions = 1;

  struct Expected {
    double p;
    std::size_t as_ham, as_unsure, as_spam;
  };
  const std::vector<Expected> expected = {
      {0.2, 6, 2, 0}, {0.3, 0, 8, 0}, {0.5, 0, 1, 7}};
  const core::Attack& attack = core::builtin_attack_registry().get("focused");
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    config.threads = threads;
    const auto points = run_focused_knowledge(
        generator(), attack, attack.default_params(), {0.2, 0.3, 0.5}, 20,
        config);
    ASSERT_EQ(points.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(points[i].guess_probability, expected[i].p);
      EXPECT_EQ(points[i].targets, 8u);
      EXPECT_EQ(points[i].as_ham, expected[i].as_ham);
      EXPECT_EQ(points[i].as_unsure, expected[i].as_unsure);
      EXPECT_EQ(points[i].as_spam, expected[i].as_spam);
      EXPECT_EQ(points[i].control_as_ham, 8u);
    }
  }
}

// Identical-copy poison on the focused axis is tokenized once and trained
// as copies. Its counts are pinned to the values that tokenizing and
// training every crafted email one by one produced at these seeds.
TEST(AttackEquivalence, FocusedIdenticalCopyAttacksPinned) {
  FocusedConfig config;
  config.inbox_size = 400;
  config.target_count = 6;
  config.repetitions = 2;

  struct Expected {
    std::string attack;
    test_support::ParamOverrides overrides;
    // Knowledge at p = 0.5, 40 emails per target: ham, unsure, spam.
    std::vector<std::size_t> knowledge;
    // Size at 0.5%, 2% and 10% of the inbox: (spam, unsure or spam) each.
    std::vector<std::size_t> size;
  };
  const std::vector<Expected> expected = {
      {"usenet", {{"dictionary_size", "2000"}}, {2, 5, 5}, {0, 0, 0, 4, 8, 12}},
      {"ham-labeled", {}, {12, 0, 0}, {0, 0, 0, 0, 0, 0}}};
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    config.threads = threads;
    for (const Expected& e : expected) {
      const core::Attack& attack =
          core::builtin_attack_registry().get(e.attack);
      const util::Config params =
          test_support::attack_params(attack, e.overrides);
      const auto k = run_focused_knowledge(generator(), attack, params, {0.5},
                                           40, config);
      ASSERT_EQ(k.size(), 1u);
      EXPECT_EQ(k[0].targets, 12u);
      EXPECT_EQ(k[0].control_as_ham, 12u);
      EXPECT_EQ((std::vector<std::size_t>{k[0].as_ham, k[0].as_unsure,
                                          k[0].as_spam}),
                e.knowledge)
          << e.attack << " at " << threads << " threads";

      const auto s = run_focused_size(generator(), attack, params, 0.5,
                                      {0.005, 0.02, 0.1}, config);
      std::vector<std::size_t> got;
      for (const FocusedSizePoint& p : s) {
        EXPECT_EQ(p.targets, 12u);
        got.push_back(p.as_spam);
        got.push_back(p.as_unsure_or_spam);
      }
      EXPECT_EQ(got, e.size) << e.attack << " at " << threads << " threads";
    }
  }
}

TEST(AttackEquivalence, RegistryExperimentsBitIdenticalAcrossThreads) {
  // The two NEW attacks end-to-end through the registry experiments, 1 vs
  // 4 threads: the serialized documents must agree byte-for-byte.
  const Experiment& dictionary = builtin_registry().get("dictionary");
  Config config = dictionary.default_config();
  config.set("training_set_size", "400");
  config.set("folds", "2");
  config.set("attack_fractions", "0.02");
  config.set("attack", "backdoor-trigger");

  RunContext one;
  one.threads = 1;
  RunContext four;
  four.threads = 4;
  const std::string doc_one = dictionary.run(config, one).to_json();
  const std::string doc_four = dictionary.run(config, four).to_json();
  EXPECT_EQ(doc_one, doc_four);
  EXPECT_NE(doc_one.find("\"attack\": {\"name\": \"backdoor-trigger\""),
            std::string::npos);
  EXPECT_NE(doc_one.find("Causative Integrity Targeted"), std::string::npos);
}

}  // namespace
}  // namespace sbx::eval
