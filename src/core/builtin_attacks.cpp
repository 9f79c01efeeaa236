// Built-in core::Attack registry entries: one class per attack, each
// reading its parameters from the util::Config its schema validated and
// doing the work itself. The dictionary family (aspell / usenet / optimal
// / informed) wraps the core::DictionaryAttack value type, which the RONI
// suite and the examples also use directly; every other attack lives only
// here:
//
//  * focused (§3.3) — spam carrying guessed words of one target email;
//  * ham-labeled (§2.2 remark) — whitewash the attacker's campaign
//    vocabulary by getting it trained as ham;
//  * good-word (§3.1/§6 contrast) — Lowd-Meek / Wittel-Wu evasion by
//    padding one spam with common hammy words;
//  * backdoor-trigger — BadNets-style data poisoning (Roychoudhury &
//    Veldanda, arXiv:2307.09649): train a rare trigger-token pattern as
//    ham, then stamp future spam with the trigger so it leaks past the
//    filter. Causative / Integrity / Targeted — the taxonomy quadrant the
//    paper's own attacks barely cover.
//  * obfuscation — Hotoğlu et al.'s character-level attack family
//    (arXiv:2505.03831): mangle the spammiest words of one message
//    (leet substitutions / inserted punctuation) until the fixed filter
//    no longer recognizes them. Exploratory / Integrity / Targeted — an
//    evasion baseline to contrast the Causative attacks against.
#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/attack_registry.h"
#include "core/dictionary_attack.h"
#include "core/informed_attack.h"
#include "email/builder.h"
#include "spambayes/classifier.h"
#include "util/error.h"

namespace sbx::core {
namespace {

using util::ParamType;

/// Shared base: name/description/paper_ref/properties plus an owned schema.
class AttackBase : public Attack {
 public:
  AttackBase(std::string name, std::string description, std::string paper_ref,
             AttackProperties properties)
      : name_(std::move(name)),
        description_(std::move(description)),
        paper_ref_(std::move(paper_ref)),
        properties_(properties) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::string paper_ref() const override { return paper_ref_; }
  AttackProperties properties() const override { return properties_; }
  const util::ConfigSchema& schema() const override { return schema_; }

 protected:
  util::ConfigSchema schema_;

 private:
  std::string name_;
  std::string description_;
  std::string paper_ref_;
  AttackProperties properties_;
};

// ---------------------------------------------------------------------------
// The dictionary family (§3.2, §3.4): aspell / usenet / optimal / informed.
// ---------------------------------------------------------------------------

class AspellAttack : public AttackBase {
 public:
  AspellAttack()
      : AttackBase("aspell",
                   "spam-labeled email carrying a full formal dictionary",
                   "Section 3.2 + Figure 1 of Nelson et al. 2008",
                   DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "truncate to the first N dictionary words (0 = full)");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    const auto top_n =
        static_cast<std::size_t>(params.get_uint("dictionary_size"));
    return (top_n == 0 ? DictionaryAttack::aspell(generator.lexicons())
                       : DictionaryAttack::aspell_truncated(
                             generator.lexicons(), top_n))
        .canonical_poison();
  }
};

class UsenetAttack : public AttackBase {
 public:
  UsenetAttack()
      : AttackBase("usenet",
                   "spam-labeled email carrying the top-N Usenet-ranked words",
                   "Section 3.2 + Figure 1 of Nelson et al. 2008",
                   DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "take the top N ranked words (0 = the paper's 90,000)");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    const auto top_n =
        static_cast<std::size_t>(params.get_uint("dictionary_size"));
    return (top_n == 0 ? DictionaryAttack::usenet(generator.lexicons())
                       : DictionaryAttack::usenet(generator.lexicons(), top_n))
        .canonical_poison();
  }
};

class OptimalAttack : public AttackBase {
 public:
  OptimalAttack()
      : AttackBase(
            "optimal",
            "every token the victim's email distribution can produce",
            "Section 3.4 of Nelson et al. 2008 (information-theoretic bound)",
            DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "must stay 0: the optimal attack is the full vocabulary");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    if (params.get_uint("dictionary_size") != 0) {
      throw InvalidArgument(
          "dictionary_size does not apply to the optimal attack (it always "
          "uses the full emittable vocabulary); leave it 0");
    }
    return DictionaryAttack::optimal(generator).canonical_poison();
  }
};

class InformedAttack : public AttackBase {
 public:
  InformedAttack()
      : AttackBase("informed",
                   "optimal budget-constrained attack: the most probable "
                   "victim ham words",
                   "Section 3.4 'optimal constrained attack' (future work)",
                   DictionaryAttack::properties()) {
    schema_.add("dictionary_size", ParamType::kUInt, "0",
                "word budget: the N most probable ham words (0 = the whole "
                "distribution support)");
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng&) const override {
    auto distribution = generator.ham_word_distribution();
    auto budget = static_cast<std::size_t>(params.get_uint("dictionary_size"));
    if (budget == 0) budget = distribution.size();
    return make_informed_attack(std::move(distribution), budget)
        .canonical_poison();
  }
};

// ---------------------------------------------------------------------------
// focused (§3.3): targeted poisoning of one known future email.
// ---------------------------------------------------------------------------

/// One guess at the target's body words (focused_attack.h's knowledge
/// model): each target word independently with probability `p`, in the
/// target's spelling order, then `extra_words` filler tokens.
std::vector<std::string> draw_guess(const spambayes::TokenSet& target,
                                    double p, std::size_t extra_words,
                                    util::Rng& rng) {
  std::vector<std::string> out;
  out.reserve(target.size() + extra_words);
  for (const auto& w : target) {
    if (rng.bernoulli(p)) out.push_back(w);
  }
  // §3.3: "the attack email may include additional words as well" — e.g.
  // cover text making the message look like ordinary spam. The filler
  // tokens come from a reserved namespace disjoint from the corpus
  // vocabulary, so they add spam-trained mass without touching the target
  // (by §3.4's independence, they cannot weaken the attack).
  for (std::size_t i = 0; i < extra_words; ++i) {
    out.push_back("xfiller" + std::to_string(rng.index(10'000)));
  }
  // An attack email must have *some* body; with very low p the attacker may
  // guess nothing, in which case it sends a minimal junk payload (the
  // attack is simply ineffective, as the paper's p=0.1 bars show).
  if (out.empty()) out.push_back("regards");
  return out;
}

class FocusedAttack : public AttackBase {
 public:
  FocusedAttack()
      : AttackBase("focused",
                   "spam carrying guessed tokens of one target email",
                   "Section 3.3 + Figures 2-4 of Nelson et al. 2008",
                   AttackProperties{Influence::causative,
                                    Violation::availability,
                                    Specificity::targeted}) {
    schema_
        .add("guess_probability", ParamType::kDouble, "0.5",
             "probability of correctly guessing each target token")
        .add("extra_words", ParamType::kUInt, "0",
             "filler words appended from the attacker's own vocabulary")
        .add("fresh_guess_per_email", ParamType::kBool, "false",
             "redraw the guess set per email (ablation; the paper's model "
             "fixes one guess set per attack)");
  }

  /// Each email clones the header block of a random spam from the pool and
  /// carries the guessed payload as its body. The one guess set is drawn
  /// from ctx.rng before the first email (unless fresh_guess_per_email).
  std::vector<email::Message> craft_poison(CraftContext& ctx) const override {
    if (ctx.target_tokens == nullptr || ctx.spam_header_pool == nullptr) {
      throw InvalidArgument(
          "attack 'focused' is targeted: craft_poison needs target_tokens "
          "and spam_header_pool in the CraftContext (only the focused "
          "experiments provide them)");
    }
    const double p = ctx.params.get_double("guess_probability");
    if (p < 0.0 || p > 1.0) {
      throw InvalidArgument("focused: guess_probability outside [0,1]");
    }
    const spambayes::TokenSet& target = *ctx.target_tokens;
    if (target.empty()) {
      throw InvalidArgument("focused: target has no attackable words");
    }
    const auto extra_words =
        static_cast<std::size_t>(ctx.params.get_uint("extra_words"));
    const bool fresh = ctx.params.get_bool("fresh_guess_per_email");
    std::vector<std::string> guessed;
    if (!fresh) guessed = draw_guess(target, p, extra_words, ctx.rng);

    const std::vector<const email::Message*>& pool = *ctx.spam_header_pool;
    if (pool.empty()) {
      throw InvalidArgument("focused: empty spam header pool");
    }
    std::vector<email::Message> out;
    out.reserve(ctx.count);
    for (std::size_t i = 0; i < ctx.count; ++i) {
      const email::Message* donor = pool[ctx.rng.index(pool.size())];
      email::Message msg;
      msg.set_headers(donor->headers());
      // The donor's MIME framing must not survive: the attack body is plain
      // text, so a cloned Content-Type (e.g. multipart boundary) would hide
      // the payload from the tokenizer.
      msg.remove_headers("Content-Type");
      msg.remove_headers("Content-Transfer-Encoding");
      const std::vector<std::string>& payload =
          fresh ? draw_guess(target, p, extra_words, ctx.rng) : guessed;
      email::Message body_holder =
          email::MessageBuilder().body_from_words(payload).build();
      msg.set_body(body_holder.body());
      out.push_back(std::move(msg));
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// ham-labeled (§2.2 remark): whitewash the attacker's campaign vocabulary.
// ---------------------------------------------------------------------------

/// The extension the paper flags in §2.2: "using ham-labeled attack emails
/// could enable more powerful attacks that place spam in a user's inbox."
/// The mirror image of the dictionary attack: the attacker arranges for
/// emails carrying its future spam vocabulary to be trained as ham (e.g.
/// innocuous-looking mail the victim's pipeline auto-labels, or a
/// train-on-everything policy), driving the spam scores of those tokens
/// down so that later spam carrying them slips into the inbox. It whitens
/// a whole campaign vocabulary, not one message: Indiscriminate.
class HamLabeledAttack : public AttackBase {
 public:
  HamLabeledAttack()
      : AttackBase("ham-labeled",
                   "ham-trained email whitening a spam campaign vocabulary",
                   "Section 2.2 remark (more powerful attacks)",
                   AttackProperties{Influence::causative, Violation::integrity,
                                    Specificity::indiscriminate}) {}

  corpus::TrueLabel poison_label() const override {
    return corpus::TrueLabel::ham;
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config&,
      util::Rng& rng) const override {
    // The attacker's payload: its own campaign vocabulary (the generator's
    // spam word list plus the obfuscated junk tokens). Headers clone a
    // real ham message so the email passes as legitimate — unlike the
    // spam-labeled attacks, its premise is believable headers.
    std::vector<std::string> payload = generator.spam_vocab_words();
    const auto& junk = generator.spam_junk_words();
    payload.insert(payload.end(), junk.begin(), junk.end());
    if (payload.empty()) {
      throw InvalidArgument("ham-labeled: empty payload");
    }
    const email::Message donor = generator.generate_ham(rng);
    CanonicalPoison poison;
    poison.message = email::MessageBuilder().body_from_words(payload).build();
    poison.message.set_headers(donor.headers());
    poison.train_as = corpus::TrueLabel::ham;
    poison.display_name = "ham-labeled";
    poison.payload_size = payload.size();
    return poison;
  }
};

// ---------------------------------------------------------------------------
// good-word (§3.1/§6 contrast): Lowd-Meek / Wittel-Wu evasion.
// ---------------------------------------------------------------------------

using spambayes::verdict_at_most;

/// Black-box good-word evasion, the Exploratory quadrant the paper
/// contrasts its Causative attacks against. The attacker does NOT touch
/// training: it appends the most common ham-core words to one spam, in
/// batches between filter queries (Lowd-Meek's membership-query model),
/// until the fixed filter's verdict is at most the goal, the candidates
/// run out, or the word budget is spent.
class GoodWordAttack : public AttackBase {
 public:
  GoodWordAttack()
      : AttackBase("good-word",
                   "pad one spam with common hammy words until it passes",
                   "Sections 3.1 + 6 (Lowd-Meek / Wittel-Wu contrast)",
                   AttackProperties{Influence::exploratory,
                                    Violation::integrity,
                                    Specificity::targeted}) {
    schema_
        .add("common_words", ParamType::kUInt, "2000",
             "how many top ham-core words the evader pads with")
        .add("batch_size", ParamType::kUInt, "10",
             "words appended between filter queries");
  }

  EvadeResult evade(EvadeContext& ctx,
                    const email::Message& message) const override {
    const auto& candidates = ctx.generator.ham_core_words();
    const std::size_t candidate_count = std::min<std::size_t>(
        candidates.size(),
        static_cast<std::size_t>(ctx.params.get_uint("common_words")));
    if (candidate_count == 0) {
      throw InvalidArgument("good-word: no candidate words");
    }
    const auto batch_size =
        static_cast<std::size_t>(ctx.params.get_uint("batch_size"));
    if (batch_size == 0) {
      throw InvalidArgument("good-word: batch_size must be greater than 0");
    }

    EvadeResult result;
    result.message = message;
    const spambayes::ScoreIdResult initial = ctx.filter.classify(message);
    result.queries = 1;
    result.score_before = initial.score;
    result.score_after = initial.score;
    if (verdict_at_most(initial.verdict, ctx.goal)) {
      result.evaded = true;  // nothing to do
      return result;
    }

    std::string padded_body = message.body();
    if (!padded_body.empty() && padded_body.back() != '\n') {
      padded_body.push_back('\n');
    }
    std::size_t next_candidate = 0;
    const std::size_t limit = std::min(ctx.max_words, candidate_count);
    while (result.words_added < limit) {
      const std::size_t batch =
          std::min(batch_size, limit - result.words_added);
      for (std::size_t i = 0; i < batch; ++i) {
        padded_body += candidates[next_candidate++];
        padded_body.push_back(i + 1 == batch ? '\n' : ' ');
      }
      result.words_added += batch;
      result.message.set_body(padded_body);
      const spambayes::ScoreIdResult r = ctx.filter.classify(result.message);
      result.queries += 1;
      result.score_after = r.score;
      if (verdict_at_most(r.verdict, ctx.goal)) {
        result.evaded = true;
        return result;
      }
    }
    return result;
  }
};

// ---------------------------------------------------------------------------
// backdoor-trigger (NEW): BadNets-style ham-labeled trigger poisoning.
// ---------------------------------------------------------------------------

/// Deterministic rare trigger tokens: "xq" + random lowercase letters.
/// The prefix keeps them out of every lexicon the generator emits from, so
/// the only training evidence they ever acquire is the attacker's poison.
std::vector<std::string> make_trigger(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed ^ 0x6261646e65747321ULL);  // "badnets!"
  std::vector<std::string> trigger;
  trigger.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string token = "xq";
    for (int c = 0; c < 6; ++c) {
      token.push_back(
          static_cast<char>('a' + static_cast<char>(rng.index(26))));
    }
    trigger.push_back(std::move(token));
  }
  return trigger;
}

class BackdoorTriggerAttack : public AttackBase {
 public:
  BackdoorTriggerAttack()
      : AttackBase("backdoor-trigger",
                   "ham-trained rare trigger pattern; trigger-stamped spam "
                   "then leaks through",
                   "BadNets-style poisoning (Roychoudhury & Veldanda, "
                   "arXiv:2307.09649)",
                   AttackProperties{Influence::causative, Violation::integrity,
                                    Specificity::targeted}) {
    schema_
        .add("trigger_length", ParamType::kUInt, "8",
             "trigger tokens per poison email (and per stamped spam)")
        .add("trigger_seed", ParamType::kUInt, "42",
             "seed deriving the rare trigger-token spellings")
        .add("carrier_words", ParamType::kUInt, "120",
             "innocuous ham-core words padding the poison email so it "
             "passes as ordinary mail");
  }

  corpus::TrueLabel poison_label() const override {
    return corpus::TrueLabel::ham;
  }

  std::optional<CanonicalPoison> canonical_poison(
      const corpus::TrecLikeGenerator& generator, const util::Config& params,
      util::Rng& rng) const override {
    const std::size_t length =
        static_cast<std::size_t>(params.get_uint("trigger_length"));
    if (length == 0) {
      throw InvalidArgument("backdoor-trigger: trigger_length must be > 0");
    }
    std::vector<std::string> trigger =
        make_trigger(params.get_uint("trigger_seed"), length);
    std::vector<std::string> words = trigger;
    const auto& core_words = generator.ham_core_words();
    const std::size_t carrier = std::min<std::size_t>(
        core_words.size(),
        static_cast<std::size_t>(params.get_uint("carrier_words")));
    words.insert(words.end(), core_words.begin(), core_words.begin() + carrier);
    // Headers clone a real ham message: the poison's premise is that it
    // passes the victim's (auto-)labeling as legitimate mail.
    const email::Message donor = generator.generate_ham(rng);
    email::MessageBuilder builder;
    for (const auto& field : donor.headers()) {
      builder.header(field.name, field.value);
    }
    CanonicalPoison poison;
    poison.message = builder.body_from_words(words).build();
    poison.train_as = corpus::TrueLabel::ham;
    poison.display_name = "backdoor-trigger";
    poison.payload_size = trigger.size();
    poison.trigger = std::move(trigger);
    return poison;
  }
};

// ---------------------------------------------------------------------------
// obfuscation (NEW): character-level mangling of the spammiest words.
// ---------------------------------------------------------------------------

/// Character-level mangling: leet substitutions where possible, an
/// inserted '.' otherwise. Either way the result is a token the filter
/// has never trained on, so the word's spam evidence drops to the
/// unknown-word prior.
std::string mangle_word(const std::string& word, bool leet) {
  std::string out = word;
  bool changed = false;
  if (leet) {
    for (char& c : out) {
      switch (std::tolower(static_cast<unsigned char>(c))) {
        case 'a': c = '@'; changed = true; break;
        case 'e': c = '3'; changed = true; break;
        case 'i': c = '1'; changed = true; break;
        case 'o': c = '0'; changed = true; break;
        case 's': c = '$'; changed = true; break;
        default: break;
      }
    }
  }
  if (!changed && out.size() >= 2) {
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(out.size() / 2), '.');
  }
  return out;
}

class ObfuscationAttack : public AttackBase {
 public:
  ObfuscationAttack()
      : AttackBase("obfuscation",
                   "mangle the spammiest words character-by-character until "
                   "the filter misses them",
                   "character-level attack family of Hotoğlu et al. "
                   "(arXiv:2505.03831)",
                   AttackProperties{Influence::exploratory,
                                    Violation::integrity,
                                    Specificity::targeted}) {
    schema_
        .add("mangle_per_query", ParamType::kUInt, "5",
             "words mangled between filter queries")
        .add("leet", ParamType::kBool, "true",
             "use leet substitutions (a->@, e->3, ...); false inserts "
             "punctuation instead");
  }

  EvadeResult evade(EvadeContext& ctx,
                    const email::Message& message) const override {
    const bool leet = ctx.params.get_bool("leet");
    const auto per_query =
        static_cast<std::size_t>(ctx.params.get_uint("mangle_per_query"));
    if (per_query == 0) {
      throw InvalidArgument(
          "obfuscation: mangle_per_query must be greater than 0");
    }

    EvadeResult result;
    result.message = message;
    const spambayes::ScoreIdResult initial = ctx.filter.classify(message);
    result.queries = 1;
    result.score_before = initial.score;
    result.score_after = initial.score;
    if (verdict_at_most(initial.verdict, ctx.goal)) {
      result.evaded = true;
      return result;
    }

    // Split the body into whitespace-separated chunks, remembering the
    // separators so the mangled body keeps the original layout. Chunks
    // alternate separator (even index, possibly empty first) and word
    // (odd index).
    const std::string& body = message.body();
    std::vector<std::string> chunks;
    chunks.emplace_back();
    bool in_word = false;
    for (char c : body) {
      const bool space = std::isspace(static_cast<unsigned char>(c)) != 0;
      if (space == in_word) {
        chunks.emplace_back();
        in_word = !space;
      }
      chunks.back().push_back(c);
    }

    // Rank word chunks by the filter's own per-token spam score,
    // spammiest first; ties break on position for determinism.
    const spambayes::Classifier& classifier = ctx.filter.classifier();
    const spambayes::TokenDatabase& db = ctx.filter.database();
    struct Candidate {
      std::size_t chunk;
      double score;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 1; i < chunks.size(); i += 2) {
      // Look up the spelling the filter actually trained on: the
      // tokenizer strips surrounding punctuation and lowercases, so
      // 'Viagra.' must rank by the score of token 'viagra', not by the
      // unknown-word prior of the raw chunk.
      const std::string_view word = spambayes::strip_punct(chunks[i]);
      if (word.size() < 3) continue;  // below the token-length floor
      std::string lowered(word);
      for (char& c : lowered) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      candidates.push_back({i, classifier.token_score(db, lowered)});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.score > b.score;
                     });

    const std::size_t limit = std::min(ctx.max_words, candidates.size());
    std::size_t next = 0;
    while (result.words_added < limit) {
      const std::size_t batch =
          std::min(per_query, limit - result.words_added);
      for (std::size_t i = 0; i < batch; ++i) {
        std::string& word = chunks[candidates[next++].chunk];
        word = mangle_word(word, leet);
      }
      result.words_added += batch;
      std::string mangled;
      mangled.reserve(body.size() + result.words_added);
      for (const auto& chunk : chunks) mangled += chunk;
      result.message.set_body(std::move(mangled));
      const spambayes::ScoreIdResult r = ctx.filter.classify(result.message);
      result.queries += 1;
      result.score_after = r.score;
      if (verdict_at_most(r.verdict, ctx.goal)) {
        result.evaded = true;
        return result;
      }
    }
    return result;
  }
};

}  // namespace

void register_builtin_attacks(AttackRegistry& registry) {
  registry.add(std::make_unique<AspellAttack>());
  registry.add(std::make_unique<UsenetAttack>());
  registry.add(std::make_unique<OptimalAttack>());
  registry.add(std::make_unique<InformedAttack>());
  registry.add(std::make_unique<FocusedAttack>());
  registry.add(std::make_unique<HamLabeledAttack>());
  registry.add(std::make_unique<GoodWordAttack>());
  registry.add(std::make_unique<BackdoorTriggerAttack>());
  registry.add(std::make_unique<ObfuscationAttack>());
}

}  // namespace sbx::core
