#include "serve/fault_injector.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "util/config.h"
#include "util/error.h"

namespace sbx::serve {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

}  // namespace

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const std::string& spec) {
  if (spec.empty()) return;
  for (const std::string& item : split(spec, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw ParseError("fault injector: expected key=value, got '" + item +
                       "'");
    }
    const std::string key = item.substr(0, eq);
    const std::uint64_t value = util::parse_uint(item.substr(eq + 1), key);
    if (key == "short_write_every") {
      short_write_every_.store(value, std::memory_order_relaxed);
    } else if (key == "delay_read_every") {
      delay_read_every_.store(value, std::memory_order_relaxed);
    } else if (key == "delay_ms") {
      delay_ms_.store(value, std::memory_order_relaxed);
    } else if (key == "close_write_at") {
      close_write_at_.store(value, std::memory_order_relaxed);
    } else if (key == "crash_after_wal") {
      crash_after_wal_.store(value, std::memory_order_relaxed);
    } else {
      throw ParseError("fault injector: unknown fault '" + key + "'");
    }
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::configure_from_env() {
  const char* spec = std::getenv("SBX_FAULT");
  if (spec != nullptr && spec[0] != '\0') configure(spec);
}

void FaultInjector::reset() {
  enabled_.store(false, std::memory_order_relaxed);
  write_ops_.store(0, std::memory_order_relaxed);
  read_ops_.store(0, std::memory_order_relaxed);
  wal_records_.store(0, std::memory_order_relaxed);
  short_write_every_.store(0, std::memory_order_relaxed);
  delay_read_every_.store(0, std::memory_order_relaxed);
  delay_ms_.store(50, std::memory_order_relaxed);
  close_write_at_.store(0, std::memory_order_relaxed);
  crash_after_wal_.store(0, std::memory_order_relaxed);
}

std::size_t FaultInjector::clamp_write_len(std::size_t len) {
  if (!enabled()) return len;
  const std::uint64_t every =
      short_write_every_.load(std::memory_order_relaxed);
  if (every == 0 || len <= 1) return len;
  const std::uint64_t op = write_ops_.load(std::memory_order_relaxed);
  return op % every == 0 ? 1 : len;
}

bool FaultInjector::should_close_instead_of_write() {
  if (!enabled()) return false;
  const std::uint64_t op =
      write_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t at = close_write_at_.load(std::memory_order_relaxed);
  return at != 0 && op == at;
}

void FaultInjector::before_read() {
  if (!enabled()) return;
  const std::uint64_t every = delay_read_every_.load(std::memory_order_relaxed);
  if (every == 0) return;
  const std::uint64_t op =
      read_ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (op % every == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        delay_ms_.load(std::memory_order_relaxed)));
  }
}

void FaultInjector::after_wal_record() {
  if (!enabled()) return;
  const std::uint64_t at = crash_after_wal_.load(std::memory_order_relaxed);
  if (at == 0) return;
  const std::uint64_t n =
      wal_records_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= at) {
    // The deterministic kill -9: no destructors, no atexit, no buffered-IO
    // flush — exactly what recovery must survive.
    std::_Exit(42);
  }
}

}  // namespace sbx::serve
