// sbxbench/bench_util.h
//
// The benchmark's own arithmetic, kept header-only and free of sbx types so
// selftest.cpp can check it in isolation:
//
//  * latency summaries — the median and the highest percentile that still
//    has at least ten samples beyond it, with failed operations recorded as
//    +infinity so a failure always misses any latency limit;
//  * spans and self time — a span's duration minus the union of the
//    intervals its children cover;
//  * /proc/<pid>/stat and /proc/<pid>/status parsing for CPU time and
//    resident-set figures of another process.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sbxbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Latency summaries.
// ---------------------------------------------------------------------------

/// A failed operation's latency sample: it misses every limit.
inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

/// The median of `samples` (mean of the middle two for an even count).
/// Failed samples are +inf and sort last. 0 for an empty set.
inline double median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted(samples);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  const double lo = sorted[n / 2 - 1];
  const double hi = sorted[n / 2];
  if (std::isinf(hi)) return hi;
  return lo + (hi - lo) / 2.0;
}

/// The tail percentile the sample supports: the highest of 99/95/90/75/50
/// whose nearest-rank position leaves at least `min_beyond` samples
/// strictly above it. p99 is the top candidate because it is the tail the
/// serving metrics name. With too few samples for any of them, the maximum
/// (percentile 100, nothing beyond).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;  // samples ranked above the reported one
  std::size_t samples = 0;
};

inline Tail tail_latency(const std::vector<double>& unsorted,
                         std::size_t min_beyond = 10) {
  Tail out;
  out.samples = unsorted.size();
  if (unsorted.empty()) return out;
  std::vector<double> samples(unsorted);
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Nearest rank: the smallest value with at least p% of samples <= it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    const std::size_t beyond = n - 1 - index;
    if (beyond >= min_beyond) {
      out.value = samples[index];
      out.percentile = p;
      out.beyond = beyond;
      return out;
    }
  }
  out.value = samples.back();
  return out;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
  std::string_view name;  // always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the length of the union of
/// its direct children's intervals (clipped to the span). Children may
/// overlap each other; the union counts shared time once.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

/// Spans recorded in memory by the traced replay. A Scope opens a span as
/// a child of the innermost open one; a null tracer records nothing, which
/// is how the untraced replay runs the same code.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, std::uint64_t request)
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, request);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time and span count per span name.
  std::map<std::string, std::pair<std::int64_t, std::size_t>> self_by_name()
      const {
    std::map<std::string, std::pair<std::int64_t, std::size_t>> out;
    const std::vector<std::int64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& slot = out[std::string(spans_[i].name)];
      slot.first += self[i];
      slot.second += 1;
    }
    return out;
  }

  /// Writes every span as one JSON object per line.
  void write_jsonl(std::ostream& out) const {
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  std::int32_t open(std::string_view name, std::uint64_t request) {
    Span s;
    s.name = name;
    s.parent = current_;
    s.request = request;
    spans_.push_back(s);
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    spans_.back().start_ns = to_ns(Clock::now());
    return current_;
  }

  void close(std::int32_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = to_ns(Clock::now());
    current_ = s.parent;
  }

  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

// ---------------------------------------------------------------------------
// /proc parsing.
// ---------------------------------------------------------------------------

/// utime + stime, in clock ticks, from the text of /proc/<pid>/stat. The
/// command name (field 2) is parenthesised and may itself contain spaces or
/// parentheses, so fields are counted from the last ')'. -1 on malformed
/// input.
inline long long parse_stat_cpu_ticks(std::string_view stat) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string_view::npos) return -1;
  std::istringstream in(std::string(stat.substr(close + 1)));
  // After the name: field 3 (state) ... field 14 (utime), 15 (stime).
  std::string field;
  long long utime = -1;
  long long stime = -1;
  for (int index = 3; index <= 15 && (in >> field); ++index) {
    if (index == 14) utime = std::stoll(field);
    if (index == 15) stime = std::stoll(field);
  }
  if (utime < 0 || stime < 0) return -1;
  return utime + stime;
}

/// The value in kB of `key` (e.g. "VmHWM", "VmRSS") from the text of
/// /proc/<pid>/status. -1 when the key is absent.
inline long long parse_status_kb(std::string_view status,
                                 std::string_view key) {
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t end = status.find('\n', pos);
    if (end == std::string_view::npos) end = status.size();
    const std::string_view line = status.substr(pos, end - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::istringstream in(std::string(line.substr(key.size() + 1)));
      long long kb = -1;
      in >> kb;
      return kb;
    }
    pos = end + 1;
  }
  return -1;
}

inline std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace sbxbench
