// sbx/spambayes/tokenizer.h
//
// SpamBayes-style tokenization. The paper (footnote 1) notes tokenization is
// the main difference between SpamBayes, BogoFilter and SpamAssassin's
// learner; we reimplement the SpamBayes flavour:
//
//  * The MIME-decoded body is split on whitespace; each chunk is stripped of
//    surrounding punctuation and lower-cased.
//  * Words of length [min, max] become tokens verbatim.
//  * Longer words become "skip:<c> <n>" pseudo-tokens (first character plus
//    length bucketed to 10) and are additionally split on punctuation so
//    embedded words still contribute.
//  * http/https URLs yield "url:<component>" pseudo-tokens for the scheme,
//    host labels and path segments.
//  * Subject/From/To/Reply-To header values are tokenized with a
//    "<field>:" prefix so header evidence is distinct from body evidence
//    (this is why the focused attack clones real spam headers: they carry
//    spammy header tokens).
//
// Tokens are returned with duplicates; the classifier counts *presence*, so
// TokenDatabase consumes the deduplicated id set (tokenize_id_set()).
//
// Output forms. One emitter produces every form, so the token streams are
// byte-identical across them:
//  * tokenize(): one std::string per token, in emission order.
//  * tokenize_ids(): the same stream as ids in the process-global interner,
//    spelling(tokenize_ids(m)[i]) == tokenize(m)[i] for all i.
//  * tokenize_id_set(): the one-pass set every train and classify path
//    uses — the deduplicated, ascending TokenIdSet, built without the
//    intermediate stream. Each spelling is hashed once; that hash drives a
//    per-message dedup, so repeats never reach the interner, and is handed
//    to the interner for the first occurrence. Novel tokens are interned in
//    first-emission order, as tokenize_ids() would intern them. The same
//    pass counts the tokens it emits, duplicates included, for callers
//    that need the raw count (the §4.2 token ratio); the others pass no
//    counter.
//    IdMode::kLookupOnly only looks tokens up and drops those the interner
//    has never seen, so it never grows process-global state. That is the
//    serving layer's classify path (Filter::classify_token_ids() decides
//    when dropping them leaves the score unchanged), its Untrain path,
//    which asks the pass whether it dropped one (a never-interned token
//    has count 0 everywhere, so such an untrain must fail unless it is
//    the retry of one already applied), and its Train path, which interns
//    the dropped spellings only once the Train is known to apply.
//
// Byte classes (whitespace, alphanumerics, word characters) and
// lower-casing are the C locale's, read from inline 256-entry tables:
// bytes >= 0x80 are never alphanumeric and are never case-folded.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "email/message.h"
#include "spambayes/interner.h"
#include "spambayes/options.h"

namespace sbx::spambayes {

/// A list of tokens in occurrence order (may contain duplicates).
using TokenList = std::vector<std::string>;

/// A deduplicated, sorted set of spellings (unique_tokens()): the
/// tokenizer's spelling reference, and the word lists attacks turn into
/// message text. The model itself takes TokenIdSets.
using TokenSet = std::vector<std::string>;

/// What tokenize_id_set() does with a token the interner has never seen.
enum class IdMode : std::uint8_t {
  kIntern,      // intern it: training and experiments
  kLookupOnly,  // drop it, interner untouched: served classify and untrain
};

/// Stateless tokenizer; cheap to copy and safe to share between threads
/// (tokenize_id_set()'s dedup scratch is per thread).
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions opts = {});

  /// Tokenizes a full message (headers per options + MIME-decoded body).
  TokenList tokenize(const email::Message& msg) const;

  /// Tokenizes a plain text blob (no header handling).
  TokenList tokenize_text(std::string_view text) const;

  /// The same token stream as ids, every token interned (duplicates kept;
  /// the reference the one-pass set is checked against).
  TokenIdList tokenize_ids(const email::Message& msg) const;
  TokenIdList tokenize_text_ids(std::string_view text) const;

  /// The message's deduplicated, ascending id set in one pass — equal to
  /// unique_token_ids(tokenize_ids(msg)) under IdMode::kIntern, and to
  /// that set restricted to already-interned tokens under kLookupOnly.
  /// A non-null `emitted` receives tokenize(msg).size(), the raw token
  /// count with duplicates (in either mode), and a non-null `dropped`
  /// the distinct spellings kLookupOnly dropped, both from the same pass
  /// (a caller can intern those later, once it decides to keep them).
  TokenIdSet tokenize_id_set(const email::Message& msg,
                             IdMode mode = IdMode::kIntern,
                             std::size_t* emitted = nullptr,
                             std::vector<std::string>* dropped = nullptr) const;
  TokenIdSet tokenize_text_id_set(std::string_view text,
                                  IdMode mode = IdMode::kIntern,
                                  std::size_t* emitted = nullptr) const;

  const TokenizerOptions& options() const { return opts_; }

 private:
  TokenizerOptions opts_;
};

/// Deduplicates a token list into a sorted spelling set: presence, as Eq. 1
/// counts it (emails containing w, not occurrences).
TokenSet unique_tokens(const TokenList& tokens);

/// Deduplicates an id list into an ascending TokenIdSet (same presence
/// semantics; dedup by id equals dedup by spelling since interning is
/// injective). For merging id sets; a single message's set comes from
/// Tokenizer::tokenize_id_set().
TokenIdSet unique_token_ids(TokenIdList ids);

/// The deferred half of an interning pass: interns `spellings` (ones a
/// kLookupOnly tokenize_id_set() pass dropped) and adds their ids to
/// `ids`, leaving it a deduplicated, ascending set. For a caller that
/// interns a message's new tokens only once it keeps the message (the
/// serving layer's Train).
void intern_dropped(const std::vector<std::string_view>& spellings,
                    TokenIdSet& ids);

/// Strips non-word characters (anything outside the tokenizer's word-char
/// set: alnum, ', -, $, !) from both ends of `word` — the normalization
/// every body word gets before it becomes a token. Exposed so attacks that
/// rank raw text chunks by per-token score can look up the same spelling
/// the filter trained on.
std::string_view strip_punct(std::string_view word);

}  // namespace sbx::spambayes
