// Figure specs and their renderer (see figures.h).
//
// A figure is data: which registry experiment it runs, one "key=value"
// override list per run, the table it prints and saves, its chart and its
// footnote. The few cells no experiment computes directly (the per-10 KB
// efficiency, the RONI margin, the threshold variant names, the retraining
// scenario names, the flavor control cell, Table 1's defaults) and the
// config-echo preamble lines live in small per-figure functions.
//
// Every run resolves through eval::resolve_config, the same policy as
// `sbx_experiments run`: schema defaults, the experiment's --quick
// overrides (with --quick), the run's overrides, then --seed. A figure
// whose --quick grid differs from its full one lists it in `quick_runs`.
#include "figures.h"

#include <array>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/attack_registry.h"
#include "eval/experiment.h"
#include "eval/registry.h"
#include "spambayes/classifier.h"
#include "util/ascii_chart.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace sbx::figures {
namespace {

using util::Table;

/// "key=value" config overrides for one registry run.
using Overrides = std::vector<std::string>;

struct Run {
  eval::Config config;
  eval::ResultDoc doc;
};

/// Where a figure prints its documents' report lines.
enum class Report { kNone, kBeforeTable, kAfterTable, kAfterCsv };

struct Chart {
  /// One glyph per line; empty means no chart. A one-run figure charts
  /// all of its document's series; a multi-run figure charts the first
  /// series of each of its last glyphs.size() runs.
  std::string glyphs{};
  double y_min = 0.0;
  double y_max = 100.0;
  std::string x_label = "percent control of training set";
  std::string y_label = "percent of test ham misclassified";
};

struct Figure {
  std::string name;  // `figure <name>` and the CSV stem
  std::string title;
  std::string paper_ref;
  std::string experiment{};  // registry experiment; empty: no runs
  /// One override list per run; the default is one run of the resolved
  /// defaults. `quick_runs`, when set, replaces `runs` under --quick.
  std::vector<Overrides> runs = {Overrides{}};
  std::vector<Overrides> quick_runs{};
  void (*preamble)(const std::vector<eval::Config>&) = nullptr;
  /// The figure's table: every run's rows of this document table, or,
  /// with `rows`, the `headers` table those functions fill.
  std::string table{};
  std::vector<std::string> headers{};
  void (*rows)(const std::vector<Run>&, Table&) = nullptr;
  bool print_table = true;  // false: the table goes to the CSV only
  Report report = Report::kNone;
  Chart chart{};
  std::string csv_note = "CSV written to";  // empty: write no CSV
  std::string footnote{};
};

/// Row-major cross product: one override list per combination of one
/// value from each axis (an axis of one value is a constant).
std::vector<Overrides> cross(const std::vector<Overrides>& axes) {
  std::vector<Overrides> runs = {Overrides{}};
  for (const Overrides& axis : axes) {
    std::vector<Overrides> next;
    for (const Overrides& run : runs) {
      for (const std::string& value : axis) {
        next.push_back(run);
        next.back().push_back(value);
      }
    }
    runs = std::move(next);
  }
  return runs;
}

/// `runs` with `constants` prepended to each.
std::vector<Overrides> with(const Overrides& constants,
                            const std::vector<Overrides>& runs) {
  std::vector<Overrides> out;
  for (const Overrides& run : runs) {
    out.push_back(constants);
    out.back().insert(out.back().end(), run.begin(), run.end());
  }
  return out;
}

double metric(const eval::ResultDoc& doc, std::string_view name) {
  for (const auto& [key, value] : doc.metrics) {
    if (key == name) return value;
  }
  return 0.0;
}

std::size_t uint_of(const eval::Config& config, const char* key) {
  return static_cast<std::size_t>(config.get_uint(key));
}

std::string uint_cell(const eval::Config& config, const char* key) {
  return std::to_string(config.get_uint(key));
}

// ---------------------------------------------------------------------------
// Config-echo preambles.
// ---------------------------------------------------------------------------

void dictionary_preamble(const std::vector<eval::Config>& configs) {
  std::size_t training_size = 0;
  for (const eval::Config& config : configs) {
    if (uint_of(config, "training_set_size") == training_size) continue;
    training_size = uint_of(config, "training_set_size");
    std::printf("running: %zu-message training set (%.0f%% spam), "
                "%zu-fold CV...\n",
                training_size, 100.0 * config.get_double("spam_fraction"),
                uint_of(config, "folds"));
  }
  std::printf("\n");
}

void focused_knowledge_preamble(const std::vector<eval::Config>& configs) {
  const eval::Config& config = configs.front();
  std::printf("inbox: %zu messages (%.0f%% spam); %zu attack emails; "
              "%zu targets x %zu repetitions\n\n",
              uint_of(config, "inbox_size"),
              100.0 * config.get_double("spam_fraction"),
              uint_of(config, "attack_count"), uint_of(config, "target_count"),
              uint_of(config, "repetitions"));
}

void focused_size_preamble(const std::vector<eval::Config>& configs) {
  const eval::Config& config = configs.front();
  std::printf("inbox: %zu messages (%.0f%% spam); guess probability 0.5; "
              "%zu targets x %zu repetitions\n\n",
              uint_of(config, "inbox_size"),
              100.0 * config.get_double("spam_fraction"),
              uint_of(config, "target_count"), uint_of(config, "repetitions"));
}

void threshold_preamble(const std::vector<eval::Config>& configs) {
  const eval::Config& config = configs.front();
  std::printf("training set: %zu messages (%.0f%% spam), %zu-fold CV; "
              "Usenet dictionary attack\n\n",
              uint_of(config, "training_set_size"),
              100.0 * config.get_double("spam_fraction"),
              uint_of(config, "folds"));
}

void roni_preamble(const std::vector<eval::Config>& configs) {
  const eval::Config& config = configs.front();
  std::printf("RONI: |T|=%zu, |V|=%zu, %zu resamples, rejection threshold "
              "%.1f; %zu non-attack spam queries; %zu reps per attack "
              "variant\n\n",
              uint_of(config, "train_size"), uint_of(config, "validation_size"),
              uint_of(config, "resamples"),
              config.get_double("rejection_threshold"),
              uint_of(config, "nonattack_queries"),
              uint_of(config, "attack_repetitions"));
}

void focused_guessing_preamble(const std::vector<eval::Config>& configs) {
  const eval::Config& config = configs.front();
  std::printf("inbox %zu (50%% spam), %zu attack emails, %zu targets\n\n",
              uint_of(config, "inbox_size"), uint_of(config, "attack_count"),
              uint_of(config, "target_count"));
}

void good_word_preamble(const std::vector<eval::Config>& configs) {
  std::printf("victim filter trained on %zu messages\n\n",
              uint_of(configs.front(), "inbox_size"));
  std::printf("good-word attack taxonomy: %s\n",
              core::builtin_attack_registry()
                  .get("good-word")
                  .properties()
                  .description()
                  .c_str());
}

void retraining_preamble(const std::vector<eval::Config>& configs) {
  const std::size_t messages_per_week =
      uint_of(configs.front(), "messages_per_week");
  std::printf("%zu weeks x %zu msgs; %u attack copies land in week 2\n\n",
              uint_of(configs.front(), "weeks"), messages_per_week,
              static_cast<unsigned>(messages_per_week / 50));
}

// ---------------------------------------------------------------------------
// Computed cells. The dictionary ablations read the last "curve" row (the
// 1% point); its columns are training set, attack, dict words, control %,
// attack msgs, ham->spam %, ham->spam|unsure %, fold stddev, spam->misc %
// and token ratio.
// ---------------------------------------------------------------------------

/// Ham misclassified per 10 KB of attack email.
void dictionary_size_rows(const std::vector<Run>& runs, Table& table) {
  for (const Run& run : runs) {
    const std::vector<std::string>& row = run.doc.table("curve").rows().back();
    const double bytes = metric(run.doc, "attack_email_bytes");
    const double effect = metric(run.doc, "final_ham_misclassified_pct");
    table.add_row({row[1], row[2], Table::cell(static_cast<std::size_t>(bytes)),
                   row[5], row[6], Table::cell(effect / (bytes / 10'240.0), 2)});
  }
}

void informed_rows(const std::vector<Run>& runs, Table& table) {
  for (const Run& run : runs) {
    const std::vector<std::string>& row = run.doc.table("curve").rows().back();
    table.add_row(
        {uint_cell(run.config, "dictionary_size"), row[1], row[5], row[6]});
  }
}

/// Row 0 of "curve" is the unattacked control, the last row the 1% point.
void flavor_rows(const std::vector<Run>& runs, Table& table) {
  for (const Run& run : runs) {
    const auto& rows = run.doc.table("curve").rows();
    table.add_row({run.config.raw_value("tokenizer"), rows.back()[3],
                   rows.front()[6], rows.back()[5], rows.back()[6]});
  }
}

/// The attack/non-attack separation margin and detection rates.
void roni_size_rows(const std::vector<Run>& runs, Table& table) {
  for (const Run& run : runs) {
    const double nonattack_max = metric(run.doc, "nonattack_max_impact");
    const double attack_min = metric(run.doc, "attack_min_impact");
    table.add_row({uint_cell(run.config, "train_size"),
                   uint_cell(run.config, "validation_size"),
                   Table::cell(nonattack_max, 2), Table::cell(attack_min, 2),
                   Table::cell(attack_min - nonattack_max, 2),
                   Table::cell(metric(run.doc, "attack_rejected_pct"), 1),
                   Table::cell(metric(run.doc, "nonattack_rejected_pct"), 1)});
  }
}

/// The attacked point's block of the "defense" table (the last 1 +
/// |targets| rows: fractions ascend and the control point comes first),
/// one row per variant named by its utility targets. Its columns are
/// control %, attack msgs, variant, theta0, theta1, ham->spam %,
/// ham->spam|unsure %, spam->unsure % and spam->ham %.
void threshold_sweep_rows(const std::vector<Run>& runs, Table& table) {
  const Run& run = runs.front();
  const std::vector<double> targets =
      run.config.get_double_list("utility_targets");
  const auto& defense = run.doc.table("defense").rows();
  const std::size_t attacked = defense.size() - (1 + targets.size());
  for (std::size_t vi = 0; vi <= targets.size(); ++vi) {
    const std::vector<std::string>& row = defense[attacked + vi];
    std::string name = "static 0.15/0.90";
    if (vi > 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "g=(%.2f, %.2f)", targets[vi - 1],
                    1.0 - targets[vi - 1]);
      name = buf;
    }
    table.add_row({name, row[3], row[4], row[5], row[6], row[7], row[8]});
  }
}

/// Prefixes each run's timeline rows with its scenario name, one name per
/// run of the ext_retraining spec, in order.
void retraining_rows(const std::vector<Run>& runs, Table& table) {
  const std::array<const char*, 4> scenarios = {
      "cumulative", "3-week window", "cumulative + RONI",
      "window + RONI + thresholds"};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const auto& row : runs[i].doc.table("timeline").rows()) {
      std::vector<std::string> cells = {scenarios.at(i)};
      cells.insert(cells.end(), row.begin(), row.end());
      table.add_row(std::move(cells));
    }
  }
}

/// Table 1 from the registry experiments' default configs: editing a
/// schema default changes this table and the runs in lockstep.
void table1_rows(const std::vector<Run>&, Table& table) {
  const eval::Registry& registry = eval::builtin_registry();
  const eval::Config dict = registry.get("dictionary").default_config();
  const eval::Config focused =
      registry.get("focused-knowledge").default_config();
  const eval::Config roni = registry.get("roni").default_config();
  const eval::Config threshold = registry.get("threshold").default_config();
  const auto test_size = [](const eval::Config& config) {
    return "~" + std::to_string(config.get_uint("training_set_size") /
                                (config.get_uint("folds") - 1));
  };
  const auto spam_share = [](const eval::Config& config) {
    return Table::cell(config.get_double("spam_fraction"), 2);
  };
  table.add_row({"Training set size", "2,000 / 10,000 (default 10,000)",
                 uint_cell(focused, "inbox_size"),
                 uint_cell(roni, "train_size"),
                 uint_cell(threshold, "training_set_size")});
  table.add_row({"Test set size", test_size(dict), "N/A",
                 uint_cell(roni, "validation_size"), test_size(threshold)});
  table.add_row({"Spam prevalence", spam_share(dict), spam_share(focused),
                 spam_share(roni), spam_share(threshold)});
  table.add_row({"Attack fraction", "0.001,0.005,0.01,0.02,0.05,0.10",
                 "0.02 to 0.10 by 0.02 (Fig 3)", "0.05 (variants, Fig RONI)",
                 "0.001,0.01,0.05,0.10"});
  table.add_row({"Folds of validation", uint_cell(dict, "folds"),
                 uint_cell(focused, "repetitions") + " repetitions",
                 uint_cell(roni, "resamples") + " repetitions",
                 uint_cell(threshold, "folds")});
  table.add_row({"Target emails", "N/A", uint_cell(focused, "target_count"),
                 "N/A", "N/A"});
}

std::string spambayes_defaults() {
  const spambayes::ClassifierOptions options;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "SpamBayes defaults: s=%.2f, x=%.2f, max_discriminators=%zu, "
                "band=[0.4,0.6], theta0=%.2f, theta1=%.2f\n",
                options.unknown_word_strength, options.unknown_word_prob,
                options.max_discriminators, options.ham_cutoff,
                options.spam_cutoff);
  return buf;
}

// ---------------------------------------------------------------------------
// The specs.
// ---------------------------------------------------------------------------

/// The 1%-point dictionary grids' historical scale: 10,000 messages x
/// 10 folds, and 2,000 x 5 under --quick (the registry's own --quick keeps
/// 10 folds).
const Overrides kOnePercent = {"attack_fractions=0.01",
                               "training_set_size=10000", "folds=10"};
const Overrides kOnePercentQuick = {"attack_fractions=0.01",
                                    "training_set_size=2000", "folds=5"};

const std::vector<Overrides> kDictionarySizes = {
    {"attack=usenet", "dictionary_size=10000"},
    {"attack=usenet", "dictionary_size=25000"},
    {"attack=usenet", "dictionary_size=50000"},
    {"attack=usenet", "dictionary_size=90000"},
    {"attack=aspell", "dictionary_size=0"}};

const std::vector<Overrides> kInformedBudgets = cross(
    {{"dictionary_size=5000", "dictionary_size=10000",
      "dictionary_size=25000", "dictionary_size=44000"},
     {"attack=informed", "attack=usenet", "attack=aspell"}});

const std::vector<Overrides> kFlavors = {{"tokenizer=spambayes"},
                                         {"tokenizer=bogofilter"},
                                         {"tokenizer=spamassassin"}};

/// (|T|, |V|) from the paper's (20, 50) down 2x and up 4x. The rejection
/// threshold scales the paper's 5.5 (tuned for 25 ham in V) with |V|, so
/// the decision rule stays comparable across sizes.
const std::vector<Overrides> kRoniSizes = {
    {"train_size=10", "validation_size=25", "rejection_threshold=2.75"},
    {"train_size=20", "validation_size=50", "rejection_threshold=5.5"},
    {"train_size=40", "validation_size=100", "rejection_threshold=11"},
    {"train_size=80", "validation_size=200", "rejection_threshold=22"}};

const std::vector<Figure>& specs() {
  static const std::vector<Figure> figures = {
      {.name = "fig1_dictionary",
       .title = "Figure 1: dictionary attacks vs. percent control of "
                "training set",
       .paper_ref = "Figure 1 + Section 4.2 of Nelson et al. 2008",
       .experiment = "dictionary",
       // Table 1 lists both training-set sizes; --quick runs the small one.
       .runs = cross({{"training_set_size=2000", "training_set_size=10000"},
                      {"attack=optimal", "attack=usenet", "attack=aspell"}}),
       .quick_runs = cross({{"training_set_size=2000"},
                            {"attack=optimal", "attack=usenet",
                             "attack=aspell"}}),
       .preamble = dictionary_preamble,
       .table = "curve",
       .chart = {.glyphs = "OUA"},
       .footnote = R"(
paper shape check: optimal >> usenet > aspell; all curves rise
steeply and the filter is unusable by ~1% control (101 messages).
The fold-stddev column verifies §4.1's 'variation on our tests was
small' remark (no error bars in the paper's graphs).
)"},
      {.name = "fig2_focused_knowledge",
       .title = "Figure 2: focused attack vs. attacker knowledge",
       .paper_ref = "Figure 2 of Nelson et al. 2008",
       .experiment = "focused-knowledge",
       .preamble = focused_knowledge_preamble,
       .table = "knowledge",
       .footnote = R"(
paper shape check: attack success rises with p; at p=0.3 the
paper reports classification changes on ~60% of targets, and at
p=0.9 nearly all targets leave the inbox.
)"},
      {.name = "fig3_focused_size",
       .title = "Figure 3: focused attack vs. attack size",
       .paper_ref = "Figure 3 of Nelson et al. 2008",
       .experiment = "focused-size",
       .preamble = focused_size_preamble,
       .table = "size",
       .chart = {.glyphs = "Ss",
                 .y_label = "percent of target ham misclassified"},
       .footnote = R"(
paper shape check: both lines rise with attack size; the paper
reports ~32% target->spam at 100 attack emails (2% of 5,000).
)"},
      {.name = "fig4_token_shift",
       .title = "Figure 4: token score shift under the focused attack",
       .paper_ref = "Figure 4 of Nelson et al. 2008",
       .experiment = "token-shift",
       .table = "tokens",
       .print_table = false,
       .report = Report::kBeforeTable,
       .csv_note = "per-token CSV written to",
       .footnote = R"(
paper shape check: tokens included in the attack jump toward 1.0
while excluded tokens decrease slightly; the after-histogram mass
piles up at the spammy end for misclassified targets.
)"},
      {.name = "fig5_threshold",
       .title = "Figure 5: dynamic threshold defense",
       .paper_ref = "Figure 5 + Section 5.2 of Nelson et al. 2008",
       .experiment = "threshold",
       .preamble = threshold_preamble,
       .table = "defense",
       .chart = {.glyphs = "N51"},
       .footnote = R"(
paper shape check: with the defense, ham->spam stays ~0 and
ham->unsure stays moderate even under attack, but spam->unsure
explodes — the defense trades spam certainty for ham safety.
)"},
      {.name = "roni_defense",
       .title = "RONI defense vs. dictionary attacks",
       .paper_ref = "Section 5.1 of Nelson et al. 2008",
       .experiment = "roni",
       .preamble = roni_preamble,
       .table = "assessments",
       .report = Report::kAfterCsv},
      {.name = "table1_parameters",
       .title = "Table 1: experiment parameters",
       .paper_ref = "Table 1 of Nelson et al. 2008",
       .headers = {"Parameter", "Dictionary Attack", "Focused Attack",
                   "RONI Defense", "Threshold Defense"},
       .rows = table1_rows,
       .csv_note = "",
       .footnote = spambayes_defaults()},
      {.name = "ablation_dictionary_size",
       .title = "Ablation: dictionary size vs. attack effectiveness (1% "
                "control)",
       .paper_ref = "Section 3.2 remark (informed attacks, smaller emails)",
       .experiment = "dictionary",
       .runs = with(kOnePercent, kDictionarySizes),
       .quick_runs = with(kOnePercentQuick, kDictionarySizes),
       .headers = {"attack", "dict words", "email bytes", "ham->spam %",
                   "ham->spam|unsure %", "misclass per 10KB"},
       .rows = dictionary_size_rows,
       .footnote = R"(
reading: the top-ranked truncations keep most of the damage at a
fraction of the bytes — the paper's 'smaller emails' remark — while
coverage of the victim's rare-word tail is what the full lists buy.
)"},
      {.name = "ablation_focused_guessing",
       .title = "Ablation: fixed vs. per-email guess sets in the focused "
                "attack",
       .paper_ref = "Section 4.3 interpretation (DESIGN.md section 5)",
       .experiment = "focused-guessing",
       .preamble = focused_guessing_preamble,
       .table = "models",
       .footnote = R"(
reading: under per-email guessing even p=0.1 behaves like near-full
knowledge (every target token lands in some payload, and each email
adds spam evidence), so the Figure-2 p-dependence only exists under
the fixed-knowledge model.
)"},
      {.name = "ablation_informed",
       .title = "Ablation: optimal constrained attack vs. approximations (1% "
                "control)",
       .paper_ref = "Section 3.4 'optimal constrained attack' (future work)",
       .experiment = "dictionary",
       .runs = with(kOnePercent, kInformedBudgets),
       .quick_runs = with(kOnePercentQuick, kInformedBudgets),
       .headers = {"budget", "attack", "ham->spam %", "ham->spam|unsure %"},
       .rows = informed_rows,
       .footnote = R"(
reading: at every budget the distribution-informed payload
dominates the Usenet ranking, which dominates the unranked
dictionary — knowledge of p buys attack efficiency, exactly the
spectrum Section 3.4 describes between the dictionary and focused
extremes.
)"},
      {.name = "ablation_roni_sizes",
       .title = "Ablation: RONI (|T|, |V|) scaling",
       .paper_ref = "Section 5.1 future-work remark",
       .experiment = "roni",
       .runs = with({"attack=usenet,aspell", "nonattack_queries=60",
                     "attack_repetitions=10", "pool_size=1000"},
                    kRoniSizes),
       .quick_runs = with({"attack=usenet,aspell", "nonattack_queries=20",
                           "attack_repetitions=4", "pool_size=400"},
                          kRoniSizes),
       .headers = {"|T|", "|V|", "nonattack max", "attack min", "margin",
                   "attack rejected %", "false pos %"},
       .rows = roni_size_rows,
       .footnote = R"(
reading: the separation margin grows with |V| (more ham to knock
over) and detection stays at 100% across the sweep, confirming the
paper's expectation that larger test sets only help.
)"},
      {.name = "ablation_threshold_sweep",
       .title = "Ablation: dynamic-threshold utility targets (5% usenet "
                "attack)",
       .paper_ref = "Section 5.2 closing remark",
       .experiment = "threshold",
       .runs = {{"attack_fractions=0.05",
                 "utility_targets=0.01,0.05,0.1,0.2"}},
       .headers = {"utility targets", "theta0", "theta1", "ham->spam %",
                   "ham->spam|unsure %", "spam->unsure %", "spam->ham %"},
       .rows = threshold_sweep_rows,
       .footnote = R"(
reading: tighter targets (0.01/0.99) push both cutoffs toward the
extremes — maximal ham protection, most spam downgraded to unsure;
looser targets trade some ham-as-unsure for crisper spam verdicts.
)"},
      {.name = "ext_good_words",
       .title = "Extension: good-word evasion (Exploratory) vs. poisoning "
                "(Causative)",
       .paper_ref = "Sections 3.1 + 6 (Lowd-Meek / Wittel-Wu contrast)",
       .experiment = "good-word",
       .preamble = good_word_preamble,
       .table = "evasion",
       .report = Report::kAfterTable,
       .csv_note = "\nCSV written to",
       .footnote = R"(
reading: evasion into the unsure folder is cheap per message but
helps only that message; reaching a ham verdict is much harder.
Poisoning amortizes: one small causative injection degrades the
victim's mail service wholesale — the paper's core point.
)"},
      {.name = "ext_ham_labeled",
       .title = "Extension: ham-labeled poisoning (Causative Integrity)",
       .paper_ref = "Section 2.2 remark (more powerful attacks)",
       .experiment = "ham-labeled",
       .table = "campaign",
       .report = Report::kBeforeTable,
       .footnote = R"(
reading: a few percent of ham-labeled injection moves the campaign
out of the spam folder (into the inbox or the unsure folder users
end up reading, §2.1) while legitimate ham is untouched — and RONI
never fires because the attack *improves* ham classification.
Residual header evidence (which the attacker cannot whiten) is what
keeps part of the campaign at unsure. Defending this channel needs
a symmetric gate (e.g. impact on spam recall); the paper leaves it
open.
)"},
      {.name = "ext_retraining",
       .title = "Extension: attack persistence across weekly retraining",
       .paper_ref = "Section 2.1 deployment scenario",
       .experiment = "retraining",
       .runs = with({"window_weeks=3"},
                    {{"cumulative=true", "roni_gate=false",
                      "dynamic_thresholds=false"},
                     {"cumulative=false", "roni_gate=false",
                      "dynamic_thresholds=false"},
                     {"cumulative=true", "roni_gate=true",
                      "dynamic_thresholds=false"},
                     {"cumulative=false", "roni_gate=true",
                      "dynamic_thresholds=true"}}),
       .preamble = retraining_preamble,
       .headers = {"scenario", "week", "ham misc %", "spam misc %",
                   "attack admitted", "theta1"},
       .rows = retraining_rows,
       .footnote = R"(
reading: under cumulative retraining the week-2 poison degrades
every later week (diluting only slowly); a sliding window forgets it
after the window passes; the RONI gate rejects the injection at
arrival so no week is ever degraded.
)"},
      {.name = "ext_tokenizer_flavors",
       .title = "Extension: dictionary attack vs. tokenizer flavors (1% "
                "control)",
       .paper_ref = "footnote 1 + Section 7 conjecture",
       .experiment = "dictionary",
       .runs = with(kOnePercent, with({"attack=usenet"}, kFlavors)),
       .quick_runs = with(kOnePercentQuick, with({"attack=usenet"}, kFlavors)),
       .headers = {"flavor", "control %", "baseline ham misc %",
                   "attacked ham->spam %", "attacked ham->spam|unsure %"},
       .rows = flavor_rows,
       .footnote = R"(
reading: the attack transfers to every flavor (the learner, not
the tokenizer, is the vulnerability); unprefixed header tokenization
is strictly worse for the victim because body-only poison then also
taints header evidence.
)"},
  };
  return figures;
}

// ---------------------------------------------------------------------------
// The renderer.
// ---------------------------------------------------------------------------

const Figure& find(const std::string& name) {
  std::vector<std::string> known;
  for (const Figure& figure : specs()) {
    if (figure.name == name) return figure;
    known.push_back(figure.name);
  }
  throw InvalidArgument(util::unknown_name_message("figure", name, known));
}

std::vector<eval::Config> resolve_runs(const Figure& figure, bool quick,
                                       std::optional<std::uint64_t> seed) {
  std::vector<eval::Config> configs;
  if (figure.experiment.empty()) return configs;
  const eval::Experiment& experiment =
      eval::builtin_registry().get(figure.experiment);
  const bool quick_grid = quick && !figure.quick_runs.empty();
  for (const Overrides& overrides :
       quick_grid ? figure.quick_runs : figure.runs) {
    configs.push_back(eval::resolve_config(experiment, quick, overrides, seed));
  }
  return configs;
}

Table figure_table(const Figure& figure, const std::vector<Run>& runs) {
  if (figure.rows != nullptr) {
    Table table(figure.headers);
    figure.rows(runs, table);
    return table;
  }
  Table table(runs.front().doc.table(figure.table).headers());
  for (const Run& run : runs) {
    for (const auto& row : run.doc.table(figure.table).rows()) {
      table.add_row(row);
    }
  }
  return table;
}

std::string figure_chart(const Chart& chart, const std::vector<Run>& runs) {
  std::vector<eval::Series> lines;
  if (runs.size() == 1) {
    lines = runs.front().doc.series;
  } else {
    const std::size_t first = runs.size() > chart.glyphs.size()
                                  ? runs.size() - chart.glyphs.size()
                                  : 0;
    for (std::size_t i = first; i < runs.size(); ++i) {
      lines.push_back(runs[i].doc.series.front());
    }
  }
  std::vector<util::ChartSeries> series;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    series.push_back({lines[i].name, chart.glyphs[i % chart.glyphs.size()],
                      lines[i].x, lines[i].y});
  }
  util::ChartOptions options;
  options.y_min = chart.y_min;
  options.y_max = chart.y_max;
  options.x_label = chart.x_label;
  options.y_label = chart.y_label;
  return util::render_chart(series, options);
}

void print_report(const std::vector<Run>& runs) {
  for (const Run& run : runs) {
    for (const auto& line : run.doc.report) {
      std::printf("%s\n", line.c_str());
    }
  }
}

}  // namespace

void list() {
  for (const Figure& figure : specs()) {
    try {
      for (bool quick : {false, true}) {
        resolve_runs(figure, quick, std::nullopt);
      }
    } catch (const Error& e) {
      throw InvalidArgument("figure " + figure.name + ": " + e.what());
    }
  }
  for (const Figure& figure : specs()) {
    std::printf("%s\n", figure.name.c_str());
  }
}

void render(const std::string& name, bool quick, std::size_t threads,
            std::optional<std::uint64_t> seed, const std::string& out_dir) {
  const Figure& figure = find(name);
  const std::vector<eval::Config> configs = resolve_runs(figure, quick, seed);

  std::printf("==========================================================\n");
  std::printf("%s\n", figure.title.c_str());
  std::printf("reproduces: %s\n", figure.paper_ref.c_str());
  std::printf("==========================================================\n");
  if (figure.preamble != nullptr) figure.preamble(configs);

  eval::RunContext ctx;
  ctx.threads = threads;
  std::vector<Run> runs;
  for (const eval::Config& config : configs) {
    const eval::Experiment& experiment =
        eval::builtin_registry().get(figure.experiment);
    runs.push_back({config, experiment.run(config, ctx)});
  }
  const Table table = figure_table(figure, runs);

  if (figure.report == Report::kBeforeTable) print_report(runs);
  if (figure.print_table) std::printf("%s\n", table.to_text().c_str());
  if (figure.report == Report::kAfterTable) print_report(runs);
  if (!figure.chart.glyphs.empty()) {
    std::printf("%s\n", figure_chart(figure.chart, runs).c_str());
  }
  if (!figure.csv_note.empty()) {
    const std::string path = out_dir + "/" + figure.name + ".csv";
    table.write_csv(path);
    std::printf("%s %s\n", figure.csv_note.c_str(), path.c_str());
  }
  if (figure.report == Report::kAfterCsv) print_report(runs);
  std::printf("%s", figure.footnote.c_str());
}

}  // namespace sbx::figures
