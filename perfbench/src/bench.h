#pragma once
// Shared plumbing of the arsf benchmark driver (perfbench/): clocks, order
// statistics, process counters, answer digests, canonical-class counting,
// the run options and outcome, and the in-memory span trace a traced run
// writes out as JSONL.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "scenario/analysis.h"
#include "scenario/scenario.h"
#include "sim/engine/thread_pool.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// printf into a std::string (notes and report lines).
[[nodiscard]] std::string strprintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Set-ups per round (1 in --tiny mode).  A run times a round before its
/// warm-up -- the first set-up of it is the one the run goes on with -- and
/// another after every timed pass or segment; setup_s is the median of all
/// of them.  Spread over the run, they do not all land in the few
/// milliseconds in which a neighbour happens to load the host.
inline constexpr int kSetupRound = 8;

/// Spins up an engine pool of default width, as a process's first Runner
/// batch does: ThreadPool::shared() itself when @p first (only a process's
/// first set-up pays for it), otherwise a fresh pool of the same width that
/// stands in for it.  The fresh pool is returned so that the caller destroys
/// it after its clock has stopped.
[[nodiscard]] std::unique_ptr<arsf::sim::engine::ThreadPool> spin_up_engine_pool(bool first);

/// Peak resident set of this process so far, in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();
/// User + system CPU seconds this process has used so far.
[[nodiscard]] double cpu_seconds();

/// Non-empty lines of a text file; throws std::runtime_error when unreadable.
[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);
[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);
/// Summed size of the regular files below @p dir (0 when it is missing).
[[nodiscard]] std::uint64_t tree_bytes(const std::string& dir);

/// FNV-1a digest of a result's analysis, status, attempts, degraded flag,
/// error and metrics: everything its frame carries except the scenario name
/// and from_cache.  Equal digests mean the same answer, cached or not.
[[nodiscard]] std::uint64_t answer_digest(const arsf::scenario::ScenarioResult& result);
/// FNV-1a of a text (frames, names).
[[nodiscard]] std::uint64_t text_digest(std::string_view text);

/// Counts canonical classes (scenario/result_cache.h): two scenarios share a
/// class when the result cache answers one with the other's result.
class ClassCounter {
 public:
  /// Class id of @p scenario (which must be valid); a scenario whose
  /// canonical form is new opens the next id.
  std::size_t add(const arsf::scenario::Scenario& scenario);
  [[nodiscard]] std::size_t classes() const noexcept { return classes_; }

 private:
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<arsf::scenario::Scenario, std::size_t>>>
      buckets_;
  std::size_t classes_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;       ///< small inputs: every workload finishes in seconds
  std::string inputs_dir;  ///< perfbench/inputs of the checkout
  std::string work_dir;    ///< private scratch directory of this run
};

/// What a workload run reports: operation counts and every metric it
/// measured, by name (main() prints them with their units).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< failed, rejected, timed-out or wrong-output operations
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable lines printed before the result

  /// Counts @p operations checked operations, @p wrong of which failed.
  void count(std::uint64_t operations, std::uint64_t wrong) {
    attempted += operations;
    failed += wrong;
  }
  /// Adds a note; a flood of failure notes is capped.
  void note(std::string line) {
    if (notes.size() < 64) notes.push_back(std::move(line));
  }
};

/// What one timed pass of a workload delivered.
struct PassFigures {
  double wall_s = 0.0;
  double requests = 0.0;      ///< requests completed in the pass
  double hog_requests = 0.0;  ///< heavy requests completed in the pass
  std::vector<double> latencies_ms;
};

/// Sets wall_s, req_per_s, req_p50_ms, req_p90_ms and hog_req_per_s from
/// untraced timed passes: each is the median over the passes of the pass's
/// own figure, so a burst of outside load that hits one pass does not move
/// it.  Notes the latency sample count and the p99 under @p label.  The p99
/// is not a bounded metric: on serve-mixed it tripled when outside load took
/// one of 4 vCPUs, while the p90 rose by a quarter.
void report_passes(const std::string& label, const std::vector<PassFigures>& passes,
                   Outcome& outcome);

/// Sets setup_s to the median of the timed set-ups @p trials_s and notes
/// their spread under @p label.
void report_setup(const std::string& label, const std::vector<double>& trials_s,
                  Outcome& outcome);

/// In-memory span trace.  A span has a name, start, end, parent and request
/// id; spans stay in memory until the run ends and are then written as JSONL
/// with their self time (duration minus the part of it that child spans
/// cover).  Nothing is recorded unless the trace is enabled AND recording:
/// a traced run switches recording on for its traced passes and layer
/// probes only.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  void set_recording(bool on) noexcept { recording_.store(enabled_ && on); }
  [[nodiscard]] bool recording() const noexcept { return recording_.load(); }

  /// Records a finished span; returns its id (-1 when not recording).
  std::int64_t add(const std::string& name, Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = -1, const std::string& request_id = {});
  /// Opens a span that close() ends; returns its id (-1 when not recording).
  std::int64_t open(const std::string& name, std::int64_t parent = -1,
                    const std::string& request_id = {});
  void close(std::int64_t id);

  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per span name: count, summed duration and summed self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// One JSON object per span: id, name, start_us, end_us, self_us, parent,
  /// request_id.
  void write_jsonl(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;
    std::string request_id;
  };
  [[nodiscard]] double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  [[nodiscard]] std::vector<double> self_micros() const;  // mutex_ held

  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

// ---- workloads (one source file each) ---------------------------------------

Outcome run_paper_batches(const Options& options, Trace& trace);
Outcome run_sweep_shared(const Options& options, Trace& trace);
Outcome run_serve(const Options& options, Trace& trace);

/// Writes the paper-batches inputs into @p dir from this build's scenario
/// registry: each family's Scenario JSON plus the result frames a full and
/// a tiny run must reproduce.
void freeze_paper_batches(const std::string& dir);

}  // namespace perfbench
