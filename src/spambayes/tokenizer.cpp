#include "spambayes/tokenizer.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "email/mime.h"
#include "util/strings.h"

namespace sbx::spambayes {
namespace {

// Byte classes, C locale (the library never calls setlocale): bytes >= 0x80
// belong to no class and are left as they are by lowercasing.
enum ByteClass : std::uint8_t {
  kSpace = 1,      // ' ' \t \r \n \f \v (util::is_space)
  kAlnum = 2,      // [0-9A-Za-z] (std::isalnum)
  kWordChar = 4,   // alnum plus ' - $ ! (what strip_punct keeps)
  kHeaderGap = 8,  // whitespace plus @ < > " , ( ) (address header splits)
};

constexpr std::array<std::uint8_t, 256> make_byte_classes() {
  std::array<std::uint8_t, 256> table{};
  for (unsigned c = 0; c < 256; ++c) {
    const bool space = c == ' ' || c == '\t' || c == '\r' || c == '\n' ||
                       c == '\f' || c == '\v';
    const bool alnum = (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
                       (c >= 'a' && c <= 'z');
    const bool word = alnum || c == '\'' || c == '-' || c == '$' || c == '!';
    const bool gap = space || c == '@' || c == '<' || c == '>' || c == '"' ||
                     c == ',' || c == '(' || c == ')';
    table[c] = static_cast<std::uint8_t>((space ? kSpace : 0) |
                                         (alnum ? kAlnum : 0) |
                                         (word ? kWordChar : 0) |
                                         (gap ? kHeaderGap : 0));
  }
  return table;
}

constexpr std::array<char, 256> make_lower_table() {
  std::array<char, 256> table{};
  for (unsigned c = 0; c < 256; ++c) {
    const unsigned lowered = (c >= 'A' && c <= 'Z') ? c - 'A' + 'a' : c;
    table[c] = static_cast<char>(static_cast<unsigned char>(lowered));
  }
  return table;
}

constexpr std::array<std::uint8_t, 256> kByteClass = make_byte_classes();
constexpr std::array<char, 256> kLower = make_lower_table();

inline bool in_class(char c, ByteClass cls) {
  return (kByteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

inline char ascii_lower(char c) {
  return kLower[static_cast<unsigned char>(c)];
}

/// Case-insensitive ASCII prefix test (util::istarts_with semantics).
inline bool has_iprefix(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (ascii_lower(s[i]) != ascii_lower(prefix[i])) return false;
  }
  return true;
}

bool looks_like_url(std::string_view w) {
  return has_iprefix(w, "http://") || has_iprefix(w, "https://") ||
         has_iprefix(w, "www.");
}

/// Output adapters. Each receives every token spelling exactly once, in
/// emission order; the buffer it is handed is transient scratch, so it
/// must copy, intern or look it up immediately.
struct StringSink {
  TokenList* out;
  void add(std::string_view token) { out->emplace_back(token); }
};

struct IdSink {
  TokenIdList* out;
  void add(std::string_view token) {
    out->push_back(global_interner().intern(token));
  }
};

/// The distinct spellings one message emits, in first-emission order:
/// open addressing over (hash, spelling), the spellings copied into one
/// buffer. A stamp per slot stands in for clearing, so reusing one set
/// across messages costs nothing per message.
class SeenSpellings {
 public:
  struct Entry {
    std::size_t hash;
    std::size_t offset;
    std::size_t size;
  };

  /// Forgets every spelling.
  void reset() {
    if (++stamp_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      stamp_ = 1;
    }
    entries_.clear();
    spellings_.clear();
    emitted_ = 0;
  }

  /// Records `token` unless this message already emitted it.
  void insert(std::string_view token, std::size_t token_hash) {
    ++emitted_;
    if ((entries_.size() + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = token_hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.stamp != stamp_) {
        slot = {static_cast<std::uint32_t>(entries_.size()), stamp_};
        entries_.push_back({token_hash, spellings_.size(), token.size()});
        spellings_.append(token);
        return;
      }
      const Entry& seen = entries_[slot.entry];
      if (seen.hash == token_hash && spelling(seen) == token) return;
    }
  }

  const std::vector<Entry>& entries() const { return entries_; }

  /// How many tokens insert() saw since reset(), repeats included.
  std::size_t emitted() const { return emitted_; }

  std::string_view spelling(const Entry& entry) const {
    return std::string_view(spellings_).substr(entry.offset, entry.size);
  }

 private:
  struct Slot {
    std::uint32_t entry = 0;
    std::uint32_t stamp = 0;  // live iff equal to stamp_
  };

  void grow() {
    slots_.assign(std::max<std::size_t>(512, slots_.size() * 2), Slot{});
    stamp_ = 1;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = entries_[e].hash & mask;
      while (slots_[i].stamp == stamp_) i = (i + 1) & mask;
      slots_[i] = {static_cast<std::uint32_t>(e), stamp_};
    }
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  std::string spellings_;
  std::size_t emitted_ = 0;
  std::uint32_t stamp_ = 0;
};

/// The per-thread dedup set behind every one-pass id set, emptied.
SeenSpellings& seen_for_current_thread() {
  thread_local SeenSpellings seen;
  seen.reset();
  return seen;
}

/// Collects the one-pass set's distinct spellings, each hashed once.
struct SeenSink {
  SeenSpellings* seen;
  void add(std::string_view token) {
    seen->insert(token, TokenInterner::hash(token));
  }
};

/// Resolves the distinct spellings to ids in first-emission order, so
/// kIntern assigns novel ids in that order. The lookups are independent,
/// and each walks three dependent cache lines of the interner; prefetching
/// those lines a few spellings ahead (TokenInterner::prefetch) overlaps
/// the misses instead of paying them one after another. A non-null
/// `emitted` receives the pass's raw token count, a non-null `dropped`
/// the spellings kLookupOnly dropped.
TokenIdSet resolve(const SeenSpellings& seen, IdMode mode,
                   std::size_t* emitted, std::vector<std::string>* dropped) {
  if (emitted != nullptr) *emitted = seen.emitted();
  constexpr std::size_t kAhead[] = {12, 6, 3};  // per prefetch level
  TokenInterner& interner = global_interner();
  const std::vector<SeenSpellings::Entry>& entries = seen.entries();
  TokenIdSet out;
  out.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (int level = 0; level < 3; ++level) {
      if (i + kAhead[level] < entries.size()) {
        interner.prefetch(entries[i + kAhead[level]].hash, level);
      }
    }
    const std::string_view token = seen.spelling(entries[i]);
    const std::size_t hash = entries[i].hash;
    if (mode == IdMode::kIntern) {
      out.push_back(interner.intern(token, hash));
    } else if (const auto id = interner.find(token, hash)) {
      out.push_back(*id);
    } else if (dropped != nullptr) {
      dropped->emplace_back(token);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One tokenization pass over a message/text, generic over the output sink.
/// All lower-casing and prefixing goes through a reused scratch buffer, so
/// the id paths perform no per-token allocation. The emitted byte streams
/// are identical for every sink.
template <typename Sink>
class Emitter {
 public:
  Emitter(const TokenizerOptions& opts, Sink sink) : opts_(opts), sink_(sink) {
    scratch_.reserve(64);
  }

  void word(std::string_view word) {
    std::string_view w = strip_punct(word);
    if (w.empty()) return;
    if (w.size() < opts_.min_token_length) return;
    if (w.size() <= opts_.max_token_length) {
      add_lower("", w);
      return;
    }
    // Over-length word: SpamBayes emits a "skip" pseudo-token recording the
    // first character and the length bucketed to 10, then retokenizes the
    // pieces between punctuation so embedded words still count.
    if (opts_.generate_skip_tokens) {
      scratch_ = "skip:";
      scratch_ += ascii_lower(w[0]);
      scratch_ += ' ';
      scratch_ += std::to_string(w.size() / 10 * 10);
      sink_.add(scratch_);
    }
    std::size_t start = 0;
    for (std::size_t i = 0; i <= w.size(); ++i) {
      if (i == w.size() || !in_class(w[i], kAlnum)) {
        const std::size_t len = i - start;
        if (len > 0 && len >= opts_.min_token_length &&
            len <= opts_.max_token_length && len < w.size()) {
          add_lower("", w.substr(start, len));
        }
        start = i + 1;
      }
    }
  }

  void url(std::string_view url) {
    // Normalize: strip scheme, then split host/path on separators.
    std::string_view rest = url;
    if (has_iprefix(rest, "http://")) {
      sink_.add("url:http");
      rest.remove_prefix(7);
    } else if (has_iprefix(rest, "https://")) {
      sink_.add("url:https");
      rest.remove_prefix(8);
    }
    std::size_t path_start = rest.find('/');
    std::string_view host = path_start == std::string_view::npos
                                ? rest
                                : rest.substr(0, path_start);
    for_each_field(host, '.', [&](std::string_view label) {
      auto piece = strip_punct(label);
      if (!piece.empty()) add_lower("url:", piece);
    });
    if (path_start != std::string_view::npos) {
      std::string_view path = rest.substr(path_start + 1);
      for_each_field(path, '/', [&](std::string_view seg) {
        auto piece = strip_punct(seg);
        if (piece.size() >= opts_.min_token_length &&
            piece.size() <= opts_.max_token_length) {
          add_lower("url:", piece);
        }
      });
    }
  }

  void header_value(std::string_view field, std::string_view value) {
    prefix_.clear();
    if (opts_.prefix_header_tokens) {
      for (char c : field) prefix_.push_back(ascii_lower(c));
      prefix_.push_back(':');
    }
    // Prefixed header tokens keep even short words ("RE:" in a subject is
    // evidence); unprefixed ones share the body token space and follow its
    // minimum length.
    const std::size_t min_len =
        opts_.prefix_header_tokens ? 2 : opts_.min_token_length;
    // Address-ish headers split on whitespace and on @/<>/",() so the
    // local part and domain labels become separate tokens.
    for_each_run(value, kHeaderGap, [&](std::string_view word) {
      std::string_view w = strip_punct(word);
      if (w.empty()) return;
      if (w.size() > opts_.max_token_length) {
        // Split long header atoms (e.g. message-ids) on dots.
        for_each_field(w, '.', [&](std::string_view piece) {
          auto p = strip_punct(piece);
          if (p.size() >= min_len && p.size() <= opts_.max_token_length) {
            add_lower(prefix_, p);
          }
        });
        return;
      }
      if (w.size() >= min_len) add_lower(prefix_, w);
    });
  }

  void text(std::string_view text) {
    for_each_run(text, kSpace, [&](std::string_view chunk) {
      if (opts_.tokenize_urls && looks_like_url(chunk)) {
        url(strip_punct(chunk));
      } else {
        word(chunk);
      }
    });
  }

  void message(const email::Message& msg) {
    if (opts_.tokenize_headers) {
      static constexpr std::string_view kFields[] = {"Subject", "From", "To",
                                                     "Reply-To"};
      for (auto field : kFields) {
        for (const email::HeaderField& header : msg.headers()) {
          if (util::iequals(header.name, field)) {
            header_value(field, header.value);
          }
        }
      }
    }
    text(email::extract_text(msg));
  }

 private:
  /// Emits prefix + ascii_lower(body) through the scratch buffer.
  void add_lower(std::string_view prefix, std::string_view body) {
    scratch_.assign(prefix.data(), prefix.size());
    for (char c : body) scratch_.push_back(ascii_lower(c));
    sink_.add(scratch_);
  }

  /// Visits every '.'-/'/'-separated field, keeping empty fields —
  /// identical semantics to util::split, without the allocations.
  template <typename Fn>
  static void for_each_field(std::string_view s, char sep, Fn&& fn) {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
      if (i == s.size() || s[i] == sep) {
        fn(s.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  /// Visits the maximal runs of bytes outside `gap` (with gap = kSpace,
  /// util::split_whitespace semantics).
  template <typename Fn>
  static void for_each_run(std::string_view s, ByteClass gap, Fn&& fn) {
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && in_class(s[i], gap)) ++i;
      const std::size_t start = i;
      while (i < s.size() && !in_class(s[i], gap)) ++i;
      if (i > start) fn(s.substr(start, i - start));
    }
  }

  const TokenizerOptions& opts_;
  Sink sink_;
  std::string scratch_;
  std::string prefix_;
};

}  // namespace

// Strips characters that are not word characters from both ends.
std::string_view strip_punct(std::string_view w) {
  std::size_t b = 0;
  std::size_t e = w.size();
  while (b < e && !in_class(w[b], kWordChar)) ++b;
  while (e > b && !in_class(w[e - 1], kWordChar)) --e;
  return w.substr(b, e - b);
}

Tokenizer::Tokenizer(TokenizerOptions opts) : opts_(opts) {}

TokenList Tokenizer::tokenize(const email::Message& msg) const {
  TokenList out;
  Emitter<StringSink> emitter(opts_, StringSink{&out});
  emitter.message(msg);
  return out;
}

TokenList Tokenizer::tokenize_text(std::string_view text) const {
  TokenList out;
  Emitter<StringSink> emitter(opts_, StringSink{&out});
  emitter.text(text);
  return out;
}

TokenIdList Tokenizer::tokenize_ids(const email::Message& msg) const {
  TokenIdList out;
  Emitter<IdSink> emitter(opts_, IdSink{&out});
  emitter.message(msg);
  return out;
}

TokenIdList Tokenizer::tokenize_text_ids(std::string_view text) const {
  TokenIdList out;
  Emitter<IdSink> emitter(opts_, IdSink{&out});
  emitter.text(text);
  return out;
}

TokenIdSet Tokenizer::tokenize_id_set(const email::Message& msg, IdMode mode,
                                      std::size_t* emitted,
                                      std::vector<std::string>* dropped) const {
  SeenSpellings& seen = seen_for_current_thread();
  Emitter<SeenSink>(opts_, SeenSink{&seen}).message(msg);
  return resolve(seen, mode, emitted, dropped);
}

TokenIdSet Tokenizer::tokenize_text_id_set(std::string_view text,
                                           IdMode mode,
                                           std::size_t* emitted) const {
  SeenSpellings& seen = seen_for_current_thread();
  Emitter<SeenSink>(opts_, SeenSink{&seen}).text(text);
  return resolve(seen, mode, emitted, nullptr);
}

TokenSet unique_tokens(const TokenList& tokens) {
  TokenSet set = tokens;
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

TokenIdSet unique_token_ids(TokenIdList ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void intern_dropped(const std::vector<std::string_view>& spellings,
                    TokenIdSet& ids) {
  TokenInterner& interner = global_interner();
  for (std::string_view spelling : spellings) {
    ids.push_back(interner.intern(spelling));
  }
  ids = unique_token_ids(std::move(ids));
}

}  // namespace sbx::spambayes
