// Self-tests for the benchmark's own arithmetic (bench_util.h): tail
// percentile selection, failed operations as latency misses, span self
// time with nested and overlapping children, and /proc parsing. Prints one
// line per failed check and exits non-zero if any failed.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_tail_selection() {
  using sbxbench::tail_latency;
  // 1000 samples: p99 is the 990th value and leaves exactly 10 beyond.
  sbxbench::Tail t = tail_latency(one_to(1000));
  check(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
        "1000 samples -> p99 = 990 with 10 beyond");
  // p99 is the highest candidate, however many samples there are.
  t = tail_latency(one_to(10000));
  check(t.percentile == 99.0 && t.value == 9900.0 && t.beyond == 100,
        "10000 samples -> p99");
  // 999 samples: p99 rank 990 leaves 9, so fall back to p95 (rank 950).
  t = tail_latency(one_to(999));
  check(t.percentile == 95.0 && t.value == 950.0 && t.beyond == 49,
        "999 samples -> p95");
  // 100 samples: p90 (rank 90, 10 beyond) is the highest supported.
  t = tail_latency(one_to(100));
  check(t.percentile == 90.0 && t.value == 90.0,
        "100 samples -> p90");
  // Too few samples for any candidate: the maximum.
  t = tail_latency(one_to(5));
  check(t.percentile == 100.0 && t.value == 5.0 && t.beyond == 0,
        "5 samples -> max");
  check(sbxbench::median(one_to(4)) == 2.5, "median of 1..4 is 2.5");
  check(sbxbench::median(one_to(5)) == 3.0, "median of 1..5 is 3");
  // Order of input does not matter.
  t = tail_latency({5, 1, 4, 2, 3});
  check(t.value == 5.0, "unsorted input");
}

void test_failed_ops_miss() {
  using sbxbench::kFailedSample;
  // Failures are +inf samples, so they rank above every real latency. 20
  // failures in 1000 fill the 10 ranks past p99 and p99 itself: a miss.
  std::vector<double> v = one_to(1000);
  for (std::size_t i = 0; i < 20; ++i) v[i] = kFailedSample;
  check(std::isinf(sbxbench::tail_latency(v).value),
        "20/1000 failed -> p99 is a miss");
  // 5 failures stay beyond p99: the tail is the real latency at rank 990.
  std::vector<double> few = one_to(1000);
  for (std::size_t i = 0; i < 5; ++i) few[i] = kFailedSample;
  check(sbxbench::tail_latency(few).value == 995.0,
        "5/1000 failed stay beyond p99");
  // A failure never improves the median.
  check(sbxbench::median({1, kFailedSample}) == kFailedSample,
        "median with a failure at the middle is a miss");
  check(sbxbench::median({1, 2, kFailedSample}) == 2,
        "median below the failures is unaffected");
  check(sbxbench::median({1, kFailedSample, kFailedSample, kFailedSample}) ==
            kFailedSample,
        "median between two failures is a miss, not NaN");
}

void test_self_time() {
  using sbxbench::Span;
  // root [0,100) with children a [10,30) and b [20,50) (overlapping) and
  // c [60,70); a has a child [12,18). Root self = 100 - (40 + 10) = 50.
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1, 1};
  spans[1] = {"a", 10, 30, 0, 1};
  spans[2] = {"b", 20, 50, 0, 1};
  spans[3] = {"c", 60, 70, 0, 1};
  spans[4] = {"a.child", 12, 18, 1, 1};
  const std::vector<std::int64_t> self = sbxbench::self_times(spans);
  check(self[0] == 50, "root self time excludes the union of children");
  check(self[1] == 14, "nested child self time subtracted once");
  check(self[2] == 30 && self[3] == 10 && self[4] == 6, "leaf self times");
  // A child sticking out of its parent is clipped to the parent.
  std::vector<Span> clipped = {{"p", 0, 10, -1, 1}, {"k", 5, 20, 0, 1}};
  check(sbxbench::self_times(clipped)[0] == 5, "child clipped to parent");

  // The Tracer nests scopes and accounts self time per name.
  sbxbench::Tracer tracer;
  {
    sbxbench::Tracer::Scope outer(&tracer, "outer", 7);
    sbxbench::Tracer::Scope inner(&tracer, "inner", 7);
  }
  check(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
            tracer.spans()[0].parent == -1,
        "Tracer scopes nest");
  const auto by_name = tracer.self_by_name();
  check(by_name.at("outer").second == 1 && by_name.at("inner").second == 1,
        "Tracer self_by_name counts spans");
  sbxbench::Tracer::Scope off(nullptr, "ignored", 1);  // records nothing
}

void test_proc_parsing() {
  // Field 14 utime = 1500, field 15 stime = 250; the name holds spaces and
  // a ')' to make sure fields are counted from the last ')'.
  const std::string stat =
      "4242 (sbx serve) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 1500 250 "
      "0 0 20 0 9 0 12345 1000000 2000\n";
  check(sbxbench::parse_stat_cpu_ticks(stat) == 1750,
        "stat utime+stime after a tricky comm");
  check(sbxbench::parse_stat_cpu_ticks("garbage") == -1, "malformed stat");
  const std::string status =
      "Name:\tsbx_serve\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\n"
      "VmRSS:\t   40000 kB\nThreads:\t6\n";
  check(sbxbench::parse_status_kb(status, "VmHWM") == 51234, "VmHWM");
  check(sbxbench::parse_status_kb(status, "VmRSS") == 40000, "VmRSS");
  check(sbxbench::parse_status_kb(status, "VmSwap") == -1, "absent key");
  check(sbxbench::parse_status_kb("VmHWMx:\t5 kB\n", "VmHWM") == -1,
        "key prefix does not match a longer key");
  // The live files of this process parse.
  const std::string self_stat = sbxbench::read_text_file("/proc/self/stat");
  check(sbxbench::parse_stat_cpu_ticks(self_stat) >= 0, "/proc/self/stat");
  const std::string self_status =
      sbxbench::read_text_file("/proc/self/status");
  check(sbxbench::parse_status_kb(self_status, "VmHWM") > 0,
        "/proc/self/status VmHWM");
}

}  // namespace

int main() {
  test_tail_selection();
  test_failed_ops_miss();
  test_self_time();
  test_proc_parsing();
  std::printf("sbxbench_selftest: %s (%d failed)\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
