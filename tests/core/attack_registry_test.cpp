// Contract tests for the attack registry: every registered attack exposes
// coherent taxonomy coordinates, a self-validating schema, and crafts /
// evades deterministically — including under concurrent callers, the
// multi-thread shape the sweep harness exercises (one rng per trial, the
// attack itself stateless).
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/attack_registry.h"
#include "core/focused_attack.h"  // attackable_body_words
#include "corpus/generator.h"
#include "spambayes/filter.h"
#include "spambayes/tokenizer.h"
#include "util/error.h"

namespace sbx::core {
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

/// Params with small payloads so the determinism tests stay fast; attacks
/// without a dictionary_size knob run their defaults.
util::Config fast_params(const Attack& attack) {
  util::Config params = attack.default_params();
  if (attack.name() == "usenet" || attack.name() == "aspell" ||
      attack.name() == "informed") {
    params.set("dictionary_size", "2000");
  }
  return params;
}

/// A small shared victim filter for the Exploratory attacks.
const spambayes::Filter& victim_filter() {
  static const spambayes::Filter* filter = [] {
    auto* f = new spambayes::Filter();
    util::Rng rng(99);
    for (int i = 0; i < 120; ++i) {
      f->train_spam(generator().generate_spam(rng));
      f->train_ham(generator().generate_ham(rng));
    }
    return f;
  }();
  return *filter;
}

TEST(AttackRegistry, ContainsEveryBuiltinAttack) {
  const std::vector<std::string> expected = {
      "aspell",      "backdoor-trigger", "focused",
      "good-word",   "ham-labeled",      "informed",
      "obfuscation", "optimal",          "usenet"};
  std::vector<std::string> names;
  for (const Attack* attack : builtin_attack_registry().attacks()) {
    names.push_back(attack->name());
  }
  EXPECT_EQ(names, expected);  // attacks() sorts by name
}

TEST(AttackRegistry, DuplicateAddThrows) {
  AttackRegistry registry;
  register_builtin_attacks(registry);
  EXPECT_THROW(register_builtin_attacks(registry), InvalidArgument);
}

TEST(AttackRegistry, GetUnknownThrowsWithKnownNames) {
  try {
    builtin_attack_registry().get("no-such-attack");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("backdoor-trigger"), std::string::npos) << message;
    EXPECT_NE(message.find("usenet"), std::string::npos) << message;
  }
}

TEST(AttackRegistry, EveryAttackHasCoherentContract) {
  for (const Attack* attack : builtin_attack_registry().attacks()) {
    SCOPED_TRACE(attack->name());
    EXPECT_FALSE(attack->name().empty());
    for (char c : attack->name()) {
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) != 0 ||
                  std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-')
          << "registry names are lowercase-dash, got '" << c << "'";
    }
    EXPECT_FALSE(attack->description().empty());
    EXPECT_FALSE(attack->paper_ref().empty());

    // Exactly one hook, matching the Influence axis.
    const AttackProperties properties = attack->properties();
    EXPECT_EQ(attack->crafts_poison(),
              properties.influence == Influence::causative);
    EXPECT_EQ(attack->evades(),
              properties.influence == Influence::exploratory);
    EXPECT_NE(attack->crafts_poison(), attack->evades());

    // The schema's declared defaults all validate (default_params() throws
    // otherwise), and every key round-trips through raw_value.
    const util::Config defaults = attack->default_params();
    for (const auto& spec : attack->schema().params()) {
      EXPECT_EQ(defaults.raw_value(spec.key), spec.default_value);
      EXPECT_FALSE(spec.description.empty()) << spec.key;
    }
  }
}

TEST(AttackRegistry, WrongHookThrows) {
  util::Rng rng(1);
  for (const Attack* attack : builtin_attack_registry().attacks()) {
    SCOPED_TRACE(attack->name());
    const util::Config params = attack->default_params();
    if (attack->evades()) {
      CraftContext ctx{generator(), params, rng, 1, nullptr, nullptr,
                       nullptr};
      EXPECT_THROW(attack->craft_poison(ctx), InvalidArgument);
      EXPECT_EQ(attack->canonical_poison(generator(), params, rng),
                std::nullopt);
    } else {
      EvadeContext ctx{generator(), params, victim_filter(), 100,
                       spambayes::Verdict::unsure};
      EXPECT_THROW(attack->evade(ctx, generator().generate_spam(rng)),
                   InvalidArgument);
    }
  }
}

/// Crafts one attack's poison with a fresh Rng(seed); returns the
/// flattened messages. Covers both the canonical (indiscriminate) and the
/// targeted (focused) CraftContext shapes.
std::vector<std::string> craft_once(const Attack& attack,
                                    const util::Config& params,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng target_rng(seed + 1);
  const email::Message target = generator().generate_ham(target_rng);
  const spambayes::Tokenizer tokenizer;
  const spambayes::TokenSet body_words =
      attackable_body_words(target, tokenizer);
  const email::Message spam_a = generator().generate_spam(target_rng);
  const email::Message spam_b = generator().generate_spam(target_rng);
  const std::vector<const email::Message*> header_pool = {&spam_a, &spam_b};

  CraftContext ctx{generator(), params, rng, 3, &target, &body_words,
                   &header_pool};
  std::vector<std::string> out;
  for (const auto& message : attack.craft_poison(ctx)) {
    out.push_back(flatten(message));
  }
  return out;
}

TEST(AttackRegistry, CausativeAttacksCraftDeterministically) {
  for (const Attack* attack : builtin_attack_registry().attacks()) {
    if (!attack->crafts_poison()) continue;
    SCOPED_TRACE(attack->name());
    const util::Config params = fast_params(*attack);

    const std::vector<std::string> first = craft_once(*attack, params, 42);
    const std::vector<std::string> second = craft_once(*attack, params, 42);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first, second);

    // Identical-copy attacks replicate their canonical message; the
    // canonical form agrees with craft_poison and with poison_label().
    util::Rng rng(42);
    const std::optional<CanonicalPoison> canonical =
        attack->canonical_poison(generator(), params, rng);
    if (canonical.has_value()) {
      EXPECT_EQ(first[0], first[1]);
      EXPECT_EQ(first[0], first[2]);
      EXPECT_EQ(first[0], flatten(canonical->message));
      EXPECT_EQ(canonical->train_as, attack->poison_label());
      EXPECT_FALSE(canonical->display_name.empty());
    }
  }
}

TEST(AttackRegistry, CraftIsIdenticalAcrossConcurrentCallers) {
  // The sweep harness crafts from many worker threads at once (one rng
  // per trial, a shared const Attack). Every thread must see the bytes the
  // single-threaded caller sees.
  for (const char* name : {"backdoor-trigger", "ham-labeled", "focused"}) {
    SCOPED_TRACE(name);
    const Attack& attack = builtin_attack_registry().get(name);
    const util::Config params = fast_params(attack);
    const std::vector<std::string> expected = craft_once(attack, params, 7);

    std::vector<std::vector<std::string>> results(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < results.size(); ++t) {
      threads.emplace_back([&, t] {
        results[t] = craft_once(attack, params, 7);
      });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& result : results) EXPECT_EQ(result, expected);
  }
}

TEST(AttackRegistry, ExploratoryAttacksEvadeDeterministically) {
  util::Rng spam_rng(5);
  const email::Message spam = generator().generate_spam(spam_rng);
  for (const Attack* attack : builtin_attack_registry().attacks()) {
    if (!attack->evades()) continue;
    SCOPED_TRACE(attack->name());
    const util::Config params = attack->default_params();

    auto evade_once = [&] {
      EvadeContext ctx{generator(), params, victim_filter(), 200,
                       spambayes::Verdict::unsure};
      return attack->evade(ctx, spam);
    };
    const EvadeResult first = evade_once();
    EXPECT_GE(first.queries, 1u);

    // Sequential repeat and 4 concurrent callers all reproduce the same
    // result, bit-for-bit on the scores.
    std::vector<EvadeResult> results(5);
    results[0] = evade_once();
    std::vector<std::thread> threads;
    for (std::size_t t = 1; t < results.size(); ++t) {
      threads.emplace_back([&, t] { results[t] = evade_once(); });
    }
    for (auto& thread : threads) thread.join();
    for (const EvadeResult& r : results) {
      EXPECT_EQ(flatten(r.message), flatten(first.message));
      EXPECT_EQ(r.words_added, first.words_added);
      EXPECT_EQ(r.queries, first.queries);
      EXPECT_EQ(r.score_before, first.score_before);
      EXPECT_EQ(r.score_after, first.score_after);
      EXPECT_EQ(r.evaded, first.evaded);
    }
  }
}

TEST(AttackRegistry, BackdoorTriggerTokensAreRareAndSeedStable) {
  const Attack& attack = builtin_attack_registry().get("backdoor-trigger");
  util::Config params = attack.default_params();
  auto trigger_of = [&](const util::Config& p) {
    util::Rng rng(1);
    return attack.canonical_poison(generator(), p, rng)->trigger;
  };
  const std::vector<std::string> trigger = trigger_of(params);
  ASSERT_EQ(trigger.size(), 8u);  // the default trigger_length
  for (const auto& token : trigger) {
    EXPECT_EQ(token.rfind("xq", 0), 0u) << token;  // lexicon-disjoint prefix
    EXPECT_EQ(token.size(), 8u);
  }
  EXPECT_EQ(trigger, trigger_of(params));  // seed-stable

  params.set("trigger_seed", "43");
  EXPECT_NE(trigger, trigger_of(params));
  params.set("trigger_length", "3");
  EXPECT_EQ(trigger_of(params).size(), 3u);
  params.set("trigger_length", "0");
  EXPECT_THROW(trigger_of(params), InvalidArgument);
}

TEST(AttackRegistry, DegenerateQueryBatchesThrow) {
  // A zero-word batch between filter queries would never progress; the
  // Exploratory attacks reject it instead of silently querying one word
  // at a time.
  util::Rng spam_rng(5);
  const email::Message spam = generator().generate_spam(spam_rng);
  for (const auto& [name, key] :
       {std::pair<const char*, const char*>{"good-word", "batch_size"},
        std::pair<const char*, const char*>{"obfuscation",
                                            "mangle_per_query"}}) {
    SCOPED_TRACE(name);
    const Attack& attack = builtin_attack_registry().get(name);
    util::Config params = attack.default_params();
    params.set(key, "0");
    EvadeContext ctx{generator(), params, victim_filter(), 200,
                     spambayes::Verdict::unsure};
    EXPECT_THROW(attack.evade(ctx, spam), InvalidArgument);
    params.set(key, "1");
    EXPECT_GE(attack.evade(ctx, spam).queries, 1u);
  }
}

}  // namespace
}  // namespace sbx::core
