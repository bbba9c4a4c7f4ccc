#include "bench.h"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scenario/result_cache.h"
#include "support/fnv.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double value : values) total += value;
  return total / static_cast<double>(values.size());
}

std::string strprintf(const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  const int written = std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  if (written < 0) return {};
  return std::string(buffer, std::min(static_cast<std::size_t>(written), sizeof buffer - 1));
}

std::unique_ptr<arsf::sim::engine::ThreadPool> spin_up_engine_pool(bool first) {
  using arsf::sim::engine::ThreadPool;
  if (first) {
    (void)ThreadPool::shared();
    return nullptr;
  }
  return std::make_unique<ThreadPool>(ThreadPool::default_threads());
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << text;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::uint64_t tree_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it{dir, ec}, end; !ec && it != end; it.increment(ec)) {
    std::error_code entry_ec;
    if (!it->is_regular_file(entry_ec)) continue;
    const std::uintmax_t size = it->file_size(entry_ec);
    if (!entry_ec) total += size;
  }
  return total;
}

std::uint64_t answer_digest(const arsf::scenario::ScenarioResult& result) {
  arsf::support::Fnv1a hash;
  hash.text(result.analysis).separator().text(result.error).separator();
  hash.u64(static_cast<std::uint64_t>(result.status))
      .u64(result.attempts)
      .u64(result.degraded ? 1 : 0);
  for (const arsf::scenario::Metric& metric : result.metrics) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &metric.value, sizeof bits);
    hash.text(metric.key).separator().u64(bits);
  }
  return hash.value();
}

std::uint64_t text_digest(std::string_view text) { return arsf::support::fnv1a(text); }

std::size_t ClassCounter::add(const arsf::scenario::Scenario& scenario) {
  arsf::scenario::CacheKey key = arsf::scenario::cache_key(scenario);
  auto& bucket = buckets_[key.fingerprint];
  for (const auto& [canonical, id] : bucket) {
    if (canonical == key.canonical) return id;
  }
  bucket.emplace_back(std::move(key.canonical), classes_);
  return classes_++;
}

void report_passes(const std::string& label, const std::vector<PassFigures>& passes,
                   Outcome& outcome) {
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> hog_rates;
  std::vector<double> p50s;
  std::vector<double> p90s;
  std::vector<double> p99s;
  std::size_t samples = 0;
  std::size_t beyond_p90 = 0;
  std::size_t beyond_p99 = 0;
  for (const PassFigures& pass : passes) {
    walls.push_back(pass.wall_s);
    rates.push_back(pass.requests / pass.wall_s);
    hog_rates.push_back(pass.hog_requests / pass.wall_s);
    const double p90 = quantile(pass.latencies_ms, 0.90);
    const double p99 = quantile(pass.latencies_ms, 0.99);
    p50s.push_back(quantile(pass.latencies_ms, 0.5));
    p90s.push_back(p90);
    p99s.push_back(p99);
    samples += pass.latencies_ms.size();
    for (const double v : pass.latencies_ms) {
      beyond_p90 += v > p90 ? 1 : 0;
      beyond_p99 += v > p99 ? 1 : 0;
    }
  }
  outcome.metrics["wall_s"] = median(walls);
  outcome.metrics["req_per_s"] = median(rates);
  outcome.metrics["hog_req_per_s"] = median(hog_rates);
  outcome.metrics["req_p50_ms"] = median(p50s);
  outcome.metrics["req_p90_ms"] = median(p90s);
  outcome.note(strprintf("%s: %zu timed passes, pass wall min %.4f s, median %.4f s, max %.4f s; "
                         "metrics are medians over the passes",
                         label.c_str(), passes.size(), quantile(walls, 0.0), median(walls),
                         quantile(walls, 1.0)));
  outcome.note(strprintf("%s: latency samples %zu, %zu beyond their pass's p90, %zu beyond its "
                         "p99; p99 %.4f ms (median over the passes, not bounded)",
                         label.c_str(), samples, beyond_p90, beyond_p99, median(p99s)));
}

void report_setup(const std::string& label, const std::vector<double>& trials_s,
                  Outcome& outcome) {
  outcome.metrics["setup_s"] = median(trials_s);
  outcome.note(strprintf("%s: %zu set-ups, first %.3f ms, min %.3f ms, median %.3f ms, "
                         "max %.3f ms",
                         label.c_str(), trials_s.size(), trials_s.front() * 1e3,
                         quantile(trials_s, 0.0) * 1e3, median(trials_s) * 1e3,
                         quantile(trials_s, 1.0) * 1e3));
}

// ---- trace ------------------------------------------------------------------

std::int64_t Trace::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                        std::int64_t parent, const std::string& request_id) {
  if (!recording()) return -1;
  Span span{name, micros(start), micros(end), parent, request_id};
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Trace::open(const std::string& name, std::int64_t parent,
                         const std::string& request_id) {
  const Clock::time_point now = Clock::now();
  return add(name, now, now, parent, request_id);
}

void Trace::close(std::int64_t id) {
  if (id < 0) return;
  const double end = micros(Clock::now());
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.at(static_cast<std::size_t>(id)).end_us = end;
}

std::size_t Trace::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_.size();
}

std::vector<double> Trace::self_micros() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::int64_t parent = spans_[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans_.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to the span: children may
    // overlap (concurrent requests), and overlap must count once.
    cover.clear();
    for (const std::size_t child : children[i]) {
      const double lo = std::max(span.start_us, spans_[child].start_us);
      const double hi = std::min(span.end_us, spans_[child].end_us);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool in_run = false;
    for (const auto& [lo, hi] : cover) {
      if (in_run && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    self[i] = std::max(0.0, span.end_us - span.start_us - covered);
  }
  return self;
}

std::map<std::string, Trace::Totals> Trace::totals() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const std::vector<double> self = self_micros();
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = totals[spans_[i].name];
    ++t.count;
    t.total_s += (spans_[i].end_us - spans_[i].start_us) * 1e-6;
    t.self_s += self[i] * 1e-6;
  }
  return totals;
}

void Trace::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  const std::vector<double> self = self_micros();
  std::ofstream out{path, std::ios::trunc};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << json_string(span.name)
        << strprintf(",\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f,\"parent\":%lld",
                     span.start_us, span.end_us, self[i], static_cast<long long>(span.parent))
        << ",\"request_id\":" << json_string(span.request_id) << "}\n";
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
