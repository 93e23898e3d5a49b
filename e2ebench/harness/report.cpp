#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "harness.hpp"

namespace msb {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

std::uint64_t SpanLog::next_id() noexcept {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_++;
}

void SpanLog::add(SpanRec s) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<SpanRec> SpanLog::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);  // shortest round-trip form
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_chrome_trace(const std::string& path, const std::vector<SpanRec>& spans) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream os(path);
  std::uint64_t base = spans.empty() ? 0 : spans.front().t0_ns;
  for (const SpanRec& s : spans) base = std::min(base, s.t0_ns);
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    os << "{\"name\":" << json_string(s.name) << ",\"cat\":" << json_string(s.layer)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
       << ",\"ts\":" << json_number(static_cast<double>(s.t0_ns - base) / 1e3)
       << ",\"dur\":" << json_number(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace msb
