// sb_filter: a command-line mbox filter in the spirit of SpamBayes'
// sb_filter.py — the operational face of the library.
//
// Train a database from ham/spam mboxes, then classify an mbox and write
// the verdicts (adding X-SBX-Classification headers) or print a summary.
// The token database persists between invocations via save/load.
//
// Usage:
//   sb_filter train --ham ham.mbox --spam spam.mbox --db tokens.db
//   sb_filter classify --db tokens.db --in incoming.mbox [--out tagged.mbox]
//   sb_filter demo     # end-to-end round trip on generated mail in /tmp
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "corpus/generator.h"
#include "email/mbox.h"
#include "spambayes/filter.h"
#include "util/error.h"
#include "util/random.h"

namespace {

using namespace sbx;

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw Error(std::string("expected --flag, got ") + argv[i]);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

int cmd_train(const std::map<std::string, std::string>& args) {
  spambayes::Filter filter;
  std::size_t ham = 0, spam = 0;
  if (auto it = args.find("ham"); it != args.end()) {
    for (const auto& msg : email::read_mbox_file(it->second)) {
      filter.train_ham(msg);
      ++ham;
    }
  }
  if (auto it = args.find("spam"); it != args.end()) {
    for (const auto& msg : email::read_mbox_file(it->second)) {
      filter.train_spam(msg);
      ++spam;
    }
  }
  const std::string db = args.count("db") ? args.at("db") : "tokens.db";
  filter.database().save_file(db);
  std::printf("trained %zu ham + %zu spam; %zu tokens -> %s\n", ham, spam,
              filter.database().vocabulary_size(), db.c_str());
  return 0;
}

int cmd_classify(const std::map<std::string, std::string>& args) {
  if (!args.count("db") || !args.count("in")) {
    std::fprintf(stderr, "classify needs --db and --in\n");
    return 2;
  }
  spambayes::Filter filter;
  filter.mutable_database() =
      spambayes::TokenDatabase::load_file(args.at("db"));

  std::vector<email::Message> messages = email::read_mbox_file(args.at("in"));
  std::size_t counts[3] = {0, 0, 0};
  for (auto& msg : messages) {
    spambayes::ScoreIdResult r = filter.classify(msg);
    counts[static_cast<int>(r.verdict)] += 1;
    msg.remove_headers("X-SBX-Classification");
    msg.remove_headers("X-SBX-Score");
    msg.add_header("X-SBX-Classification",
                   std::string(spambayes::to_string(r.verdict)));
    char score[32];
    std::snprintf(score, sizeof(score), "%.6f", r.score);
    msg.add_header("X-SBX-Score", score);
  }
  if (auto it = args.find("out"); it != args.end()) {
    email::write_mbox_file(it->second, messages);
    std::printf("tagged mbox written to %s\n", it->second.c_str());
  }
  std::printf("%zu messages: %zu ham, %zu unsure, %zu spam\n",
              messages.size(), counts[0], counts[1], counts[2]);
  return 0;
}

int cmd_demo() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "sbx_sb_filter_demo";
  fs::create_directories(dir);

  corpus::TrecLikeGenerator generator;
  util::Rng rng(99);
  std::vector<email::Message> ham, spam, incoming;
  for (int i = 0; i < 300; ++i) {
    ham.push_back(generator.generate_ham(rng));
    spam.push_back(generator.generate_spam(rng));
  }
  for (int i = 0; i < 20; ++i) {
    incoming.push_back(generator.generate_ham(rng));
    incoming.push_back(generator.generate_spam(rng));
  }
  email::write_mbox_file((dir / "ham.mbox").string(), ham);
  email::write_mbox_file((dir / "spam.mbox").string(), spam);
  email::write_mbox_file((dir / "incoming.mbox").string(), incoming);
  std::printf("demo corpus in %s\n", dir.string().c_str());

  cmd_train({{"ham", (dir / "ham.mbox").string()},
             {"spam", (dir / "spam.mbox").string()},
             {"db", (dir / "tokens.db").string()}});
  return cmd_classify({{"db", (dir / "tokens.db").string()},
                       {"in", (dir / "incoming.mbox").string()},
                       {"out", (dir / "tagged.mbox").string()}});
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "train") == 0) {
      return cmd_train(parse_args(argc, argv));
    }
    if (argc >= 2 && std::strcmp(argv[1], "classify") == 0) {
      return cmd_classify(parse_args(argc, argv));
    }
    if (argc >= 2 && std::strcmp(argv[1], "demo") == 0) {
      return cmd_demo();
    }
    std::fprintf(stderr,
                 "usage:\n"
                 "  sb_filter train --ham H.mbox --spam S.mbox --db DB\n"
                 "  sb_filter classify --db DB --in IN.mbox [--out OUT.mbox]\n"
                 "  sb_filter demo\n");
    return 2;
  } catch (const sbx::Error& e) {
    std::fprintf(stderr, "sb_filter: %s\n", e.what());
    return 1;
  }
}
