// Tokenizer inputs shared by the equivalence tests: generator ham and
// spam, the MIME extraction fixtures, structured fuzz and adversarial
// header/body bytes. Every emitter branch is reached by some message.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "email/message.h"
#include "email/mime.h"
#include "email/rfc2822.h"
#include "util/random.h"

namespace sbx::test_support {

inline std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string s(rng.index(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

/// The email robustness suite's fuzz inputs: structural fragments mixed
/// with random bytes.
inline std::string structured_fuzz(util::Rng& rng) {
  static const char* kFragments[] = {
      "From ",          "From: a@b\n",
      "Content-Type: ", "multipart/mixed; boundary=",
      "--",             "\r\n",
      "\n\n",           "Content-Transfer-Encoding: base64\n",
      "=3D",            "=\n",
      ">From ",         "Subject: ",
      ": no name\n",    "\tcontinuation\n",
  };
  std::string s;
  const std::size_t pieces = 1 + rng.index(20);
  for (std::size_t i = 0; i < pieces; ++i) {
    if (rng.bernoulli(0.5)) {
      s += kFragments[rng.index(std::size(kFragments))];
    } else {
      s += random_bytes(rng, 40);
    }
  }
  return s;
}

/// Text built to reach every emitter branch: mixed-case words, bytes
/// >= 0x80 inside and around words, over-length words with embedded
/// punctuation, http/https/www URLs, long dotted header atoms. A nonce
/// keeps some spellings novel to the interner on every call.
inline std::string adversarial_text(util::Rng& rng, std::uint64_t nonce) {
  static const char* kPieces[] = {
      "Hello",       "WORLD",        "MiXeD",       "ab",
      "'quoted'",    "--dash--",     "$$$money!!!", "(paren)",
      "e-mail",      "\xc3\xa9t\xc3\xa9", "caf\xe9",   "\xff\xfe\x80",
      "\x80word\x81", "http://Www.Example.COM/Path/To/Page.html",
      "HTTPS://secure.example.org", "www.Spam-Site.biz/offer/now",
      "http://", "https:///x//y", "<1234.5678.ABCDEFGH@mail.example.com>",
      "Supercalifragilisticexpialidocious",
      "word.with.many.dots.and.pieces.longer.than.twelve",
      "UPPER_and_lower-and/slashes\\back", "\t", "\r\n", "\f\v",
  };
  std::string s;
  const std::size_t pieces = 5 + rng.index(40);
  for (std::size_t i = 0; i < pieces; ++i) {
    switch (rng.index(4)) {
      case 0:
        s += kPieces[rng.index(std::size(kPieces))];
        break;
      case 1:
        s += random_bytes(rng, 24);
        break;
      case 2:  // a novel word, sometimes over-length
        s += "Nov" + std::to_string(nonce) + "x" +
             std::to_string(rng.index(1'000'000)) +
             std::string(rng.index(3) == 0 ? 14 : 0, 'Q');
        break;
      default:
        s += "http://h" + std::to_string(nonce) + ".Example" +
             std::to_string(rng.index(100)) + ".com/p" +
             std::to_string(rng.index(100));
        break;
    }
    s += rng.bernoulli(0.8) ? " " : "";
  }
  return s;
}

/// Messages for the one-pass equivalence test: generator ham and spam, the
/// MIME extraction fixtures, the robustness fuzz inputs, and adversarial
/// header/body text.
inline std::vector<email::Message> one_pass_inputs() {
  std::vector<email::Message> out;
  static const corpus::TrecLikeGenerator gen;
  util::Rng rng(2718);
  for (int i = 0; i < 40; ++i) {
    out.push_back(i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng));
  }

  static const char* kMime[] = {
      "Subject: s\n\nplain body\n",
      "Content-Type: multipart/alternative; boundary=BBB\n\npreamble\n"
      "--BBB\nContent-Type: text/plain\n\nfirst part\n--BBB\n"
      "Content-Type: text/html\n\n<p>second part</p>\n--BBB\n"
      "Content-Type: image/png\nContent-Transfer-Encoding: base64\n\n"
      "aWdub3JlZA==\n--BBB--\nepilogue\n",
      "Content-Type: multipart/mixed; boundary=OUTER\n\n--OUTER\n"
      "Content-Type: multipart/alternative; boundary=INNER\n\n--INNER\n"
      "Content-Type: text/plain\n\nnested text\n--INNER--\n--OUTER--\n",
      "Content-Type: multipart/mixed\n\nopaque\n",
      "Content-Type: application/pdf\n\n%PDF-1.4\n",
  };
  for (const char* raw : kMime) out.push_back(email::parse_message(raw));
  email::Message b64;
  b64.add_header("Content-Transfer-Encoding", "base64");
  b64.set_body(email::encode_base64("Decoded PAYLOAD http://b64.example/x"));
  out.push_back(b64);
  email::Message qp;
  qp.add_header("Subject", "Re: =?utf-8?q?caf=C3=A9?= OFFER");
  qp.add_header("Content-Transfer-Encoding", "quoted-printable");
  qp.set_body(email::encode_quoted_printable("Soft=break caf\xe9 \xff" +
                                             std::string(90, 'z')));
  out.push_back(qp);

  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    util::Rng fuzz(seed + 1'000);
    for (int round = 0; round < 50; ++round) {
      out.push_back(email::parse_message(structured_fuzz(fuzz)));
    }
  }

  for (std::uint64_t i = 0; i < 120; ++i) {
    email::Message m;
    m.add_header("Subject", adversarial_text(rng, i));
    m.add_header("From", "\"Sender " + std::to_string(i) + "\" <" +
                             adversarial_text(rng, i) + "@a.b>");
    m.add_header("To", "x" + std::to_string(i) +
                           "@very.long.header.atom.that.exceeds.twelve."
                           "characters.example.com, (comment) " +
                           random_bytes(rng, 30));
    m.add_header("Reply-To", random_bytes(rng, 60));
    m.set_body(adversarial_text(rng, i) + "\n" + random_bytes(rng, 200));
    out.push_back(m);
  }
  return out;
}

}  // namespace sbx::test_support
