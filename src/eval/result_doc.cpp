#include "eval/result_doc.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "util/error.h"

namespace sbx::eval {

util::Table& ResultDoc::add_table(std::string name,
                                  std::vector<std::string> headers) {
  tables.push_back(
      NamedTable{std::move(name), util::Table(std::move(headers))});
  return tables.back().table;
}

const util::Table& ResultDoc::table(std::string_view name) const {
  for (const auto& t : tables) {
    if (t.name == name) return t.table;
  }
  throw InvalidArgument("ResultDoc::table: no table named '" +
                        std::string(name) + "' in experiment '" + experiment +
                        "'");
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // std::to_chars: shortest round-trip representation, and — unlike
  // printf %g — independent of the process locale (LC_NUMERIC would turn
  // 0.5 into "0,5" and break both JSON validity and byte determinism).
  char buf[40];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // 40 bytes always suffice for a double
  return std::string(buf, ptr);
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void append_string_array(std::string& out,
                         const std::vector<std::string>& items) {
  out.push_back('[');
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += json_quote(items[i]);
  }
  out.push_back(']');
}

void append_number_array(std::string& out, const std::vector<double>& items) {
  out.push_back('[');
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += json_number(items[i]);
  }
  out.push_back(']');
}

}  // namespace

std::string ResultDoc::to_json() const {
  std::string out;
  out += "{\n  \"experiment\": ";
  out += json_quote(experiment);
  out += ",\n  \"attack\": {\"name\": ";
  out += json_quote(attack_name);
  out += ", \"taxonomy\": ";
  out += json_quote(attack_taxonomy);
  out += "},\n  \"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    out += i > 0 ? ", " : "";
    out += json_quote(config[i].first);
    out += ": ";
    out += json_quote(config[i].second);
  }
  out += "},\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i > 0 ? ", " : "";
    out += json_quote(metrics[i].first);
    out += ": ";
    out += json_number(metrics[i].second);
  }
  out += "},\n  \"tables\": {";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    out += i > 0 ? ",\n    " : "";
    out += json_quote(tables[i].name);
    out += ": {\"headers\": ";
    append_string_array(out, tables[i].table.headers());
    out += ", \"rows\": [";
    const auto& rows = tables[i].table.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r > 0) out.push_back(',');
      out += "\n      ";
      append_string_array(out, rows[r]);
    }
    out += rows.empty() ? "]}" : "\n    ]}";
  }
  out += "},\n  \"series\": [";
  for (std::size_t i = 0; i < series.size(); ++i) {
    out += i > 0 ? ",\n    " : "";
    out += "{\"name\": ";
    out += json_quote(series[i].name);
    out += ", \"x\": ";
    append_number_array(out, series[i].x);
    out += ", \"y\": ";
    append_number_array(out, series[i].y);
    out += "}";
  }
  out += "],\n  \"report\": ";
  append_string_array(out, report);
  out += "\n}\n";
  return out;
}

void ResultDoc::write_json(const std::string& path) const {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) throw IoError("ResultDoc::write_json: mkdir failed for " + path);
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw IoError("ResultDoc::write_json: cannot open " + path);
  f << to_json();
  if (!f) throw IoError("ResultDoc::write_json: write failed for " + path);
}

std::vector<std::string> ResultDoc::write_csv(const std::string& dir,
                                              const std::string& prefix) const {
  std::vector<std::string> paths;
  for (const auto& named : tables) {
    std::string stem = prefix;
    if (!named.name.empty() && named.name != prefix &&
        !(tables.size() == 1 && named.name == experiment)) {
      stem += "_" + named.name;
    }
    std::string path = dir + "/" + stem + ".csv";
    named.table.write_csv(path);
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace sbx::eval
