// Tests for the experiment registry layer: schema/config validation (the
// strict parsing that replaced the atoll-style flag handling), registry
// lookup, ResultDoc serialization, and a reduced-scale registry run of the
// extension drivers that used to exist only as bench binaries.
#include "eval/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "eval/result_doc.h"
#include "util/error.h"

namespace sbx::eval {
namespace {

// ---------------------------------------------------------------------------
// Strict scalar parsing.
// ---------------------------------------------------------------------------

TEST(Parsing, UIntAcceptsPlainDigitsOnly) {
  EXPECT_EQ(parse_uint("0", "t"), 0u);
  EXPECT_EQ(parse_uint("12345", "t"), 12345u);
  EXPECT_EQ(parse_uint(" 7 ", "t"), 7u);  // surrounding whitespace trimmed
  EXPECT_THROW(parse_uint("abc", "t"), ParseError);
  EXPECT_THROW(parse_uint("12abc", "t"), ParseError);  // atoll accepted this
  EXPECT_THROW(parse_uint("", "t"), ParseError);
  EXPECT_THROW(parse_uint("-3", "t"), ParseError);
  EXPECT_THROW(parse_uint("1.5", "t"), ParseError);
}

TEST(Parsing, DoubleRequiresFullConsumptionAndFiniteness) {
  EXPECT_DOUBLE_EQ(parse_double("0.25", "t"), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3", "t"), -1e-3);
  EXPECT_THROW(parse_double("0.25x", "t"), ParseError);
  EXPECT_THROW(parse_double("nan", "t"), ParseError);
  EXPECT_THROW(parse_double("inf", "t"), ParseError);
  EXPECT_THROW(parse_double("", "t"), ParseError);
}

TEST(Parsing, BoolAcceptsTheUsualSpellings) {
  EXPECT_TRUE(parse_bool("true", "t"));
  EXPECT_TRUE(parse_bool("1", "t"));
  EXPECT_TRUE(parse_bool("Yes", "t"));
  EXPECT_FALSE(parse_bool("false", "t"));
  EXPECT_FALSE(parse_bool("0", "t"));
  EXPECT_FALSE(parse_bool("off", "t"));
  EXPECT_THROW(parse_bool("maybe", "t"), ParseError);
}

// ---------------------------------------------------------------------------
// Schema + Config.
// ---------------------------------------------------------------------------

ConfigSchema test_schema() {
  ConfigSchema schema;
  schema.add("count", ParamType::kUInt, "10", "a count")
      .add("rate", ParamType::kDouble, "0.5", "a rate")
      .add("enabled", ParamType::kBool, "false", "a flag")
      .add("label", ParamType::kString, "base", "a label")
      .add("fractions", ParamType::kDoubleList, "0.1,0.2", "a list");
  return schema;
}

TEST(Config, DefaultsResolveTyped) {
  ConfigSchema schema = test_schema();
  Config config(&schema);
  EXPECT_EQ(config.get_uint("count"), 10u);
  EXPECT_DOUBLE_EQ(config.get_double("rate"), 0.5);
  EXPECT_FALSE(config.get_bool("enabled"));
  EXPECT_EQ(config.get_string("label"), "base");
  EXPECT_EQ(config.get_double_list("fractions"),
            (std::vector<double>{0.1, 0.2}));
}

TEST(Config, SetValidatesTypeAndKey) {
  ConfigSchema schema = test_schema();
  Config config(&schema);
  config.set("count", "42");
  EXPECT_EQ(config.get_uint("count"), 42u);
  EXPECT_THROW(config.set("count", "abc"), ParseError);
  EXPECT_THROW(config.set("rate", "fast"), ParseError);
  EXPECT_THROW(config.set("nope", "1"), InvalidArgument);
  EXPECT_THROW(config.set_key_value("no-equals-sign"), InvalidArgument);
  config.set_key_value("label=other");
  EXPECT_EQ(config.get_string("label"), "other");
}

TEST(Config, ListValuesSplitOnCommaAndSemicolon) {
  ConfigSchema schema = test_schema();
  Config config(&schema);
  config.set("fractions", "0.3;0.4,0.5");
  EXPECT_EQ(config.get_double_list("fractions"),
            (std::vector<double>{0.3, 0.4, 0.5}));
  EXPECT_THROW(config.set("fractions", "0.3;;0.5"), ParseError);
}

TEST(Config, GetWithWrongTypeThrows) {
  ConfigSchema schema = test_schema();
  Config config(&schema);
  EXPECT_THROW(config.get_double("count"), InvalidArgument);
  EXPECT_THROW(config.get_uint("label"), InvalidArgument);
}

TEST(ConfigSchema, RejectsDuplicateKeysAndBadDefaults) {
  ConfigSchema schema;
  schema.add("k", ParamType::kUInt, "1", "");
  EXPECT_THROW(schema.add("k", ParamType::kUInt, "2", ""), InvalidArgument);
  EXPECT_THROW(schema.add("bad", ParamType::kDouble, "oops", ""), ParseError);
}

// ---------------------------------------------------------------------------
// Registry contents.
// ---------------------------------------------------------------------------

TEST(Registry, ContainsEveryBuiltinExperiment) {
  const std::vector<std::string> expected = {
      "dictionary",  "focused-guessing", "focused-knowledge",
      "focused-size", "good-word",       "ham-labeled",
      "retraining",   "roni",            "threshold",
      "token-shift"};
  std::vector<std::string> names;
  for (const Experiment* e : builtin_registry().experiments()) {
    names.push_back(e->name());
  }
  EXPECT_EQ(names, expected);  // experiments() sorts by name
}

TEST(Registry, GetUnknownThrowsWithKnownNames) {
  try {
    builtin_registry().get("no-such-experiment");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("dictionary"), std::string::npos);
  }
}

TEST(Registry, EverySchemaHasASeedAndValidQuickOverrides) {
  for (const Experiment* experiment : builtin_registry().experiments()) {
    const ParamSpec* seed = experiment->schema().find("seed");
    ASSERT_NE(seed, nullptr) << experiment->name();
    EXPECT_EQ(seed->type, ParamType::kUInt) << experiment->name();
    // Quick overrides must name declared keys and carry valid values.
    Config config = experiment->default_config();
    for (const auto& [key, value] : experiment->quick_overrides()) {
      EXPECT_NO_THROW(config.set(key, value))
          << experiment->name() << ": " << key << "=" << value;
    }
    EXPECT_FALSE(experiment->description().empty()) << experiment->name();
    EXPECT_FALSE(experiment->paper_ref().empty()) << experiment->name();
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  Registry registry;
  register_builtin_experiments(registry);
  EXPECT_THROW(register_builtin_experiments(registry), InvalidArgument);
}

// ---------------------------------------------------------------------------
// ResultDoc serialization.
// ---------------------------------------------------------------------------

TEST(ResultDoc, JsonEscapesAndStructure) {
  EXPECT_EQ(json_quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");

  ResultDoc doc;
  doc.experiment = "demo";
  doc.config = {{"k", "v"}};
  doc.add_metric("m", 1.25);
  util::Table& table = doc.add_table("t", {"h1", "h2"});
  table.add_row({"a", "b,c"});
  doc.series.push_back({"s", {1.0, 2.0}, {3.0, 4.0}});
  doc.report.push_back("line");

  const std::string json = doc.to_json();
  EXPECT_NE(json.find("\"experiment\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": \"v\""), std::string::npos);
  EXPECT_NE(json.find("\"m\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"headers\": [\"h1\",\"h2\"]"), std::string::npos);
  EXPECT_NE(json.find("[\"a\",\"b,c\"]"), std::string::npos);
  EXPECT_NE(json.find("\"x\": [1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"report\": [\"line\"]"), std::string::npos);

  EXPECT_EQ(&doc.table("t"), &doc.tables[0].table);
  EXPECT_THROW(doc.table("missing"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Reduced-scale registry runs of the extension drivers (previously only
// reachable through the extension bench programs).
// ---------------------------------------------------------------------------

TEST(RegistryRun, HamLabeledProducesCampaignTableAndMetrics) {
  const Experiment& experiment = builtin_registry().get("ham-labeled");
  Config config = experiment.default_config();
  config.set("inbox_size", "300");
  config.set("probes", "40");
  config.set("copies", "0;50");
  const ResultDoc doc = experiment.run(config, RunContext{});

  EXPECT_EQ(doc.experiment, "ham-labeled");
  const util::Table& table = doc.table("campaign");
  ASSERT_EQ(table.row_count(), 2u);  // one row per copies value
  // Whitening the campaign vocabulary must move campaign spam out of the
  // spam folder relative to the clean filter.
  const double clean_as_ham = std::stod(table.rows()[0][2]);
  const double poisoned_as_ham = std::stod(table.rows()[1][2]);
  EXPECT_GT(poisoned_as_ham, clean_as_ham);
  bool found = false;
  for (const auto& [name, value] : doc.metrics) {
    if (name == "max_copies_campaign_as_ham_pct") {
      found = true;
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value, 100.0);
    }
  }
  EXPECT_TRUE(found);
  ASSERT_GE(doc.report.size(), 3u);  // payload + RONI verdict preamble
  EXPECT_NE(doc.report[0].find("payload:"), std::string::npos);
}

TEST(RegistryRun, GoodWordProducesEvasionTableAndPoisonComparison) {
  const Experiment& experiment = builtin_registry().get("good-word");
  Config config = experiment.default_config();
  config.set("inbox_size", "300");
  config.set("common_words", "400");
  config.set("probes", "6");
  config.set("max_words", "300");
  config.set("poison_probes", "20");
  const ResultDoc doc = experiment.run(config, RunContext{});

  EXPECT_EQ(doc.experiment, "good-word");
  const util::Table& table = doc.table("evasion");
  ASSERT_EQ(table.row_count(), 2u);  // goals: unsure, ham
  EXPECT_EQ(table.rows()[0][0], "unsure");
  EXPECT_EQ(table.rows()[1][0], "ham");
  bool found = false;
  for (const auto& [name, value] : doc.metrics) {
    if (name == "poisoned_ham_misdelivered_pct") {
      found = true;
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value, 100.0);
    }
  }
  EXPECT_TRUE(found);
  ASSERT_GE(doc.report.size(), 2u);
  EXPECT_NE(doc.report[0].find("causative comparison:"), std::string::npos);
}

// A poison copy count the model's uint32 message counts cannot hold
// throws (the CLI exits 2) instead of wrapping into a different count.
TEST(RegistryRun, RetrainingRejectsCopiesPastUint32) {
  const Experiment& experiment = builtin_registry().get("retraining");
  Config config = experiment.default_config();
  config.set("weeks", "3");
  config.set("messages_per_week", "100");
  config.set("test_messages", "20");
  config.set("attack_copies", "4294967296");
  EXPECT_THROW(experiment.run(config, RunContext{}), InvalidArgument);
}

TEST(RegistryRun, HamLabeledRejectsCopiesPastUint32) {
  const Experiment& experiment = builtin_registry().get("ham-labeled");
  Config config = experiment.default_config();
  config.set("inbox_size", "300");
  config.set("probes", "10");
  config.set("copies", "0;4294967296");
  EXPECT_THROW(experiment.run(config, RunContext{}), InvalidArgument);
}

TEST(RegistryRun, DictionaryRejectsAttackCountsPastUint32) {
  const Experiment& experiment = builtin_registry().get("dictionary");
  Config config = experiment.default_config();
  config.set("training_set_size", "400");
  config.set("folds", "2");
  config.set("attack", "aspell");
  config.set("dictionary_size", "100");
  config.set("attack_fractions", "0.99999999");  // 2e10 copies per fold
  EXPECT_THROW(experiment.run(config, RunContext{}), InvalidArgument);
}

TEST(RegistryRun, GoodWordRejectsPoisonCopiesPastUint32) {
  const Experiment& experiment = builtin_registry().get("good-word");
  Config config = experiment.default_config();
  config.set("inbox_size", "300");
  config.set("common_words", "400");
  config.set("probes", "2");
  config.set("max_words", "50");
  config.set("poison_probes", "5");
  config.set("poison_fraction", "0.99999999");  // 3e10 copies
  EXPECT_THROW(experiment.run(config, RunContext{}), InvalidArgument);
}

}  // namespace
}  // namespace sbx::eval
