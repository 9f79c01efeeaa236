#include "corpus/generator.h"

#include <algorithm>
#include <cmath>

#include "email/builder.h"
#include "util/error.h"

namespace sbx::corpus {
namespace {

constexpr std::uint64_t kFirstNameBase = 150'000;
constexpr std::uint64_t kLastNameBase = 160'000;
constexpr std::uint64_t kCompanyBase = 170'000;
constexpr std::uint64_t kSpamDomainBase = 180'000;
constexpr std::uint64_t kJunkBase = 50'000;  // colloquial index space

std::string junk_word(std::uint64_t index) {
  // Obfuscated spam token ("v1agra"-style): a q-space word with the marker
  // replaced by a digit. Starts with a digit, so it is disjoint from both
  // the formal lexicon (no digits) and the colloquial lexicon (starts 'q').
  std::string w = WordGenerator::colloquial_word(kJunkBase + index);
  w[0] = static_cast<char>('0' + index % 10);
  return w;
}

}  // namespace

struct TrecLikeGenerator::Impl {
  explicit Impl(const GeneratorConfig& cfg)
      : lexicons(cfg.lexicon_sizes),
        ham_core_dist(cfg.ham_core_vocab, cfg.zipf_exponent, cfg.zipf_offset),
        colloquial_dist(cfg.ham_colloquial_vocab, cfg.zipf_exponent,
                        cfg.zipf_offset),
        spam_dist(cfg.spam_vocab, cfg.zipf_exponent, cfg.zipf_offset),
        junk_dist(cfg.spam_junk_vocab, cfg.zipf_exponent, cfg.zipf_offset) {
    if (cfg.ham_core_vocab > cfg.lexicon_sizes.overlap) {
      throw InvalidArgument(
          "GeneratorConfig: ham_core_vocab must fit in the Aspell/Usenet "
          "overlap");
    }
    if (cfg.ham_colloquial_vocab > lexicons.colloquial().size()) {
      throw InvalidArgument(
          "GeneratorConfig: ham_colloquial_vocab exceeds colloquial lexicon");
    }
    if (cfg.lexicon_sizes.overlap + cfg.spam_vocab >
        cfg.lexicon_sizes.aspell) {
      throw InvalidArgument(
          "GeneratorConfig: spam_vocab does not fit outside the overlap "
          "region");
    }
    // Ham core: the front of the Aspell list, which is inside the Usenet
    // overlap — common formal words. Spam vocabulary: formal words past the
    // overlap (in Aspell but not Usenet).
    ham_core.assign(lexicons.aspell().begin(),
                    lexicons.aspell().begin() +
                        static_cast<std::ptrdiff_t>(cfg.ham_core_vocab));
    ham_colloquial.assign(
        lexicons.colloquial().begin(),
        lexicons.colloquial().begin() +
            static_cast<std::ptrdiff_t>(cfg.ham_colloquial_vocab));
    spam_vocab.assign(
        lexicons.aspell().begin() +
            static_cast<std::ptrdiff_t>(cfg.lexicon_sizes.overlap),
        lexicons.aspell().begin() +
            static_cast<std::ptrdiff_t>(cfg.lexicon_sizes.overlap +
                                        cfg.spam_vocab));
    junk.reserve(cfg.spam_junk_vocab);
    for (std::size_t i = 0; i < cfg.spam_junk_vocab; ++i) {
      junk.push_back(junk_word(i));
    }
    first_names.reserve(cfg.first_name_pool);
    for (std::size_t i = 0; i < cfg.first_name_pool; ++i) {
      first_names.push_back(WordGenerator::word(kFirstNameBase + i));
    }
    last_names.reserve(cfg.last_name_pool);
    for (std::size_t i = 0; i < cfg.last_name_pool; ++i) {
      last_names.push_back(WordGenerator::word(kLastNameBase + i));
    }
    companies.reserve(cfg.company_pool);
    for (std::size_t i = 0; i < cfg.company_pool; ++i) {
      companies.push_back(WordGenerator::word(kCompanyBase + i));
    }
    spam_domains.reserve(cfg.spam_domain_pool);
    for (std::size_t i = 0; i < cfg.spam_domain_pool; ++i) {
      spam_domains.push_back(WordGenerator::word(kSpamDomainBase + i));
    }
  }

  Lexicons lexicons;
  util::ZipfSampler ham_core_dist;
  util::ZipfSampler colloquial_dist;
  util::ZipfSampler spam_dist;
  util::ZipfSampler junk_dist;

  std::vector<std::string> ham_core;
  std::vector<std::string> ham_colloquial;
  std::vector<std::string> spam_vocab;
  std::vector<std::string> junk;
  std::vector<std::string> first_names;
  std::vector<std::string> last_names;
  std::vector<std::string> companies;
  std::vector<std::string> spam_domains;
};

TrecLikeGenerator::TrecLikeGenerator(GeneratorConfig config)
    : config_(config), impl_(std::make_unique<Impl>(config)) {}

TrecLikeGenerator::~TrecLikeGenerator() = default;

const Lexicons& TrecLikeGenerator::lexicons() const { return impl_->lexicons; }

const std::vector<std::string>& TrecLikeGenerator::ham_core_words() const {
  return impl_->ham_core;
}

const std::vector<std::string>& TrecLikeGenerator::ham_colloquial_words()
    const {
  return impl_->ham_colloquial;
}

const std::vector<std::string>& TrecLikeGenerator::spam_vocab_words() const {
  return impl_->spam_vocab;
}

const std::vector<std::string>& TrecLikeGenerator::spam_junk_words() const {
  return impl_->junk;
}

std::vector<TrecLikeGenerator::WordProbability>
TrecLikeGenerator::ham_word_distribution() const {
  const Impl& im = *impl_;
  const GeneratorConfig& cfg = config_;
  const double w_core = 1.0 - cfg.ham_colloquial_weight -
                        cfg.ham_name_weight - cfg.ham_number_weight -
                        cfg.ham_url_weight;
  std::vector<WordProbability> dist;
  dist.reserve(im.ham_core.size() + im.ham_colloquial.size() +
               im.first_names.size() + im.last_names.size() +
               im.companies.size());
  for (std::size_t i = 0; i < im.ham_core.size(); ++i) {
    dist.push_back({im.ham_core[i], w_core * im.ham_core_dist.probability(i)});
  }
  for (std::size_t i = 0; i < im.ham_colloquial.size(); ++i) {
    dist.push_back({im.ham_colloquial[i],
                    cfg.ham_colloquial_weight *
                        im.colloquial_dist.probability(i)});
  }
  // Name mentions: 70% people (split between first/last), 30% companies,
  // uniform within each pool (matching generate_ham's sampling).
  const double person_each =
      cfg.ham_name_weight * 0.7 * 0.5 /
      static_cast<double>(im.first_names.size());
  for (const auto& w : im.first_names) dist.push_back({w, person_each});
  const double last_each = cfg.ham_name_weight * 0.7 * 0.5 /
                           static_cast<double>(im.last_names.size());
  for (const auto& w : im.last_names) dist.push_back({w, last_each});
  const double company_each = cfg.ham_name_weight * 0.3 /
                              static_cast<double>(im.companies.size());
  for (const auto& w : im.companies) dist.push_back({w, company_each});
  return dist;
}

namespace {

// Shared helpers for body assembly.

std::size_t body_length(const GeneratorConfig& cfg, util::Rng& rng) {
  double draw = rng.log_normal(cfg.body_log_mean, cfg.body_log_sigma);
  auto n = static_cast<std::size_t>(draw);
  return std::clamp(n, cfg.min_body_tokens, cfg.max_body_tokens);
}

std::string random_number_token(util::Rng& rng, bool money) {
  std::string out;
  if (money) out = "$";
  out += std::to_string(rng.uniform_int(10, 999'999));
  return out;
}

std::string random_date_header(util::Rng& rng) {
  static const char* kDays[] = {"Mon", "Tue", "Wed", "Thu", "Fri", "Sat",
                                "Sun"};
  static const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                  "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s, %d %s 2005 %02d:%02d:%02d -0800",
                kDays[rng.index(7)], static_cast<int>(rng.uniform_int(1, 28)),
                kMonths[rng.index(12)],
                static_cast<int>(rng.uniform_int(0, 23)),
                static_cast<int>(rng.uniform_int(0, 59)),
                static_cast<int>(rng.uniform_int(0, 59)));
  return buf;
}

std::string random_message_id(util::Rng& rng, const std::string& domain) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    (static_cast<std::uint64_t>(rng()) << 32) | rng()));
  return "<" + std::string(buf) + "@" + domain + ">";
}

// Appends tokens to a body with line breaks and light punctuation so the
// rendered mail looks like text rather than a word list.
class BodyWriter {
 public:
  explicit BodyWriter(std::string& out) : out_(out) {}

  void add(const std::string& token, util::Rng& rng) {
    out_ += token;
    ++count_;
    if (count_ % 12 == 0) {
      out_ += '\n';
    } else if (rng.bernoulli(0.08)) {
      out_ += ". ";
    } else {
      out_ += ' ';
    }
  }

 private:
  std::string& out_;
  std::size_t count_ = 0;
};

}  // namespace

email::Message TrecLikeGenerator::generate_ham(util::Rng& rng) const {
  const Impl& im = *impl_;
  const GeneratorConfig& cfg = config_;

  auto sample_person = [&](util::Rng& r) {
    return im.first_names[r.index(im.first_names.size())] + "." +
           im.last_names[r.index(im.last_names.size())];
  };
  const std::string& company = im.companies[rng.index(im.companies.size())];
  std::string domain = company + ".example";
  std::string from = sample_person(rng) + "@" + domain;
  std::string to = sample_person(rng) + "@" + domain;

  // Subject: 3-8 words from the ham word mixture (no numbers).
  std::string subject;
  std::size_t subject_len = static_cast<std::size_t>(rng.uniform_int(3, 8));
  for (std::size_t i = 0; i < subject_len; ++i) {
    if (i > 0) subject += ' ';
    subject += rng.bernoulli(cfg.ham_colloquial_weight)
                   ? im.ham_colloquial[im.colloquial_dist.sample(rng)]
                   : im.ham_core[im.ham_core_dist.sample(rng)];
  }

  // Body mixture.
  std::string body;
  body.reserve(2048);
  BodyWriter writer(body);
  const std::size_t length = body_length(cfg, rng);
  const double w_colloquial = cfg.ham_colloquial_weight;
  const double w_name = w_colloquial + cfg.ham_name_weight;
  const double w_number = w_name + cfg.ham_number_weight;
  const double w_url = w_number + cfg.ham_url_weight;
  for (std::size_t i = 0; i < length; ++i) {
    double roll = rng.uniform();
    if (roll < w_colloquial) {
      writer.add(im.ham_colloquial[im.colloquial_dist.sample(rng)], rng);
    } else if (roll < w_name) {
      bool person = rng.bernoulli(0.7);
      writer.add(person ? (rng.bernoulli(0.5)
                               ? im.first_names[rng.index(
                                     im.first_names.size())]
                               : im.last_names[rng.index(im.last_names.size())])
                        : im.companies[rng.index(im.companies.size())],
                 rng);
    } else if (roll < w_number) {
      writer.add(random_number_token(rng, /*money=*/rng.bernoulli(0.2)), rng);
    } else if (roll < w_url) {
      writer.add("http://" + domain + "/" +
                     im.ham_core[im.ham_core_dist.sample(rng)],
                 rng);
    } else {
      writer.add(im.ham_core[im.ham_core_dist.sample(rng)], rng);
    }
  }
  body += "\n";

  return email::MessageBuilder()
      .from(from)
      .to(to)
      .subject(subject)
      .date(random_date_header(rng))
      .message_id(random_message_id(rng, domain))
      .body(std::move(body))
      .build();
}

email::Message TrecLikeGenerator::generate_spam(util::Rng& rng) const {
  const Impl& im = *impl_;
  const GeneratorConfig& cfg = config_;

  const std::string& domain_word =
      im.spam_domains[rng.index(im.spam_domains.size())];
  std::string domain = domain_word + ".example";
  std::string from = im.first_names[rng.index(im.first_names.size())] + "@" +
                     domain;
  std::string to = im.first_names[rng.index(im.first_names.size())] + "." +
                   im.last_names[rng.index(im.last_names.size())] +
                   "@" + im.companies[rng.index(im.companies.size())] +
                   ".example";

  // Real spam subjects mimic legitimate mail ("RE: your account"), so a
  // configurable share of subject words comes from ordinary English.
  std::string subject;
  std::size_t subject_len = static_cast<std::size_t>(rng.uniform_int(3, 7));
  for (std::size_t i = 0; i < subject_len; ++i) {
    if (i > 0) subject += ' ';
    subject += rng.bernoulli(cfg.spam_subject_ham_word_prob)
                   ? im.ham_core[im.ham_core_dist.sample(rng)]
                   : im.spam_vocab[im.spam_dist.sample(rng)];
  }
  if (rng.bernoulli(0.5)) subject += "!!!";

  // "Hard" spam (plain-text scams) carries mostly ordinary English and
  // scores near the decision boundary, like the difficult tail of TREC.
  const bool hard = rng.bernoulli(cfg.hard_spam_fraction);

  std::string body;
  body.reserve(2048);
  BodyWriter writer(body);
  const std::size_t length = body_length(cfg, rng);
  const double w_background = hard ? 0.78 : cfg.spam_background_weight;
  const double w_colloquial =
      w_background + (hard ? 0.05 : cfg.spam_colloquial_weight);
  const double w_junk = w_colloquial + (hard ? 0.0 : cfg.spam_junk_weight);
  const double w_url = w_junk + (hard ? 0.02 : cfg.spam_url_weight);
  const double w_number =
      w_url + (hard ? 0.05 : cfg.spam_number_weight);
  const double w_name = w_number + (hard ? 0.04 : cfg.spam_name_weight);
  for (std::size_t i = 0; i < length; ++i) {
    double roll = rng.uniform();
    if (roll < w_background) {
      writer.add(im.ham_core[im.ham_core_dist.sample(rng)], rng);
    } else if (roll < w_colloquial) {
      writer.add(im.ham_colloquial[im.colloquial_dist.sample(rng)], rng);
    } else if (roll < w_junk) {
      writer.add(im.junk[im.junk_dist.sample(rng)], rng);
    } else if (roll < w_url) {
      writer.add("http://" + domain + "/" +
                     im.spam_vocab[im.spam_dist.sample(rng)],
                 rng);
    } else if (roll < w_number) {
      writer.add(random_number_token(rng, /*money=*/rng.bernoulli(0.6)), rng);
    } else if (roll < w_name) {
      writer.add(rng.bernoulli(0.5)
                     ? im.first_names[rng.index(im.first_names.size())]
                     : im.last_names[rng.index(im.last_names.size())],
                 rng);
    } else {
      writer.add(im.spam_vocab[im.spam_dist.sample(rng)], rng);
    }
  }
  body += "\n";

  return email::MessageBuilder()
      .from(from)
      .to(to)
      .subject(subject)
      .date(random_date_header(rng))
      .message_id(random_message_id(rng, domain))
      .body(std::move(body))
      .build();
}

LabeledMessage TrecLikeGenerator::generate(TrueLabel label,
                                           util::Rng& rng) const {
  return {label == TrueLabel::ham ? generate_ham(rng) : generate_spam(rng),
          label};
}

Dataset TrecLikeGenerator::sample_mailbox(std::size_t size,
                                          double spam_fraction,
                                          util::Rng& rng) const {
  if (spam_fraction < 0.0 || spam_fraction > 1.0) {
    throw InvalidArgument("sample_mailbox: spam_fraction outside [0,1]");
  }
  auto spam_count = static_cast<std::size_t>(
      std::llround(static_cast<double>(size) * spam_fraction));
  Dataset out;
  out.items.reserve(size);
  std::vector<TrueLabel> labels;
  labels.reserve(size);
  labels.insert(labels.end(), spam_count, TrueLabel::spam);
  labels.insert(labels.end(), size - spam_count, TrueLabel::ham);
  rng.shuffle(labels);
  for (TrueLabel label : labels) out.items.push_back(generate(label, rng));
  return out;
}

std::vector<std::string> TrecLikeGenerator::full_vocabulary() const {
  const Impl& im = *impl_;
  std::vector<std::string> vocab;
  vocab.reserve(im.ham_core.size() + im.ham_colloquial.size() +
                im.spam_vocab.size() + im.junk.size() +
                im.first_names.size() + im.last_names.size() +
                im.companies.size());
  auto append = [&vocab](const std::vector<std::string>& words) {
    vocab.insert(vocab.end(), words.begin(), words.end());
  };
  append(im.ham_core);
  append(im.ham_colloquial);
  append(im.spam_vocab);
  append(im.junk);
  append(im.first_names);
  append(im.last_names);
  append(im.companies);
  return vocab;
}

}  // namespace sbx::corpus
