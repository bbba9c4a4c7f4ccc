// arsf_perfbench -- driver of the arsf benchmark (see perfbench/README.md).
//
//   arsf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --inputs DIR --work DIR [--tiny]
//   arsf_perfbench --freeze DIR
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1 (a layer the workload
// never calls reads 0).  --freeze regenerates the paper-batches inputs from
// the scenario registry.  Errors go to stderr and exit non-zero without a
// result line.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "bench.h"
#include "support/cli.h"

namespace {

namespace fs = std::filesystem;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s"},        {"req_per_s", "req/s"},     {"req_p50_ms", "ms"},
      {"req_p90_ms", "ms"},   {"hog_req_per_s", "req/s"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    const char* const families[] = {"table1", "table2", "fig4", "bnb", "misc"};
    const std::pair<const char*, const char*> per_family[] = {
        {"scenario.runner.batch_s.", "s"},
        {"sim.engine.busy_s.", "s"},
        {"sim.engine.critical_s.", "s"},
        {"scenario.runner.pool_efficiency.", "ratio"},
        {"sim.engine.worlds.", "count"},
    };
    for (const auto& [prefix, unit] : per_family) {
      for (const char* family : families) d.push_back({std::string{prefix} + family, unit});
    }
    const MetricDef rest[] = {
        {"attack.decide_calls.table1", "count"},
        {"attack.decide_s.table1", "s"},
        {"attack.memo_states.table1", "count"},
        {"attack.memo_hit_ratio.table1", "ratio"},
        {"sim.round_s.table1", "s"},
        {"sim.engine.bnb_classes_evaluated", "count"},
        {"sim.engine.bnb_classes_pruned", "count"},
        {"process.cpu_s", "s"},
        {"scenario.sweep.expand_s", "s"},
        {"scenario.result_cache.canonicalise_s", "s"},
        {"scenario.analysis_s", "s"},
        {"scenario.sink.csv_s", "s"},
        {"scenario.sink.bytes", "bytes"},
        {"scenario.sweep.checkpoint_s", "s"},
        {"scenario.result_cache.fresh_evals", "count"},
        {"scenario.result_cache.hits", "count"},
        {"scenario.result_cache.inserts", "count"},
        {"scenario.result_cache.entries", "count"},
        {"scenario.result_cache.bytes", "bytes"},
        {"scenario.result_cache.hit_ratio", "ratio"},
        {"serve.protocol.parse_us", "us"},
        {"serve.protocol.request_cost_us", "us"},
        {"scenario.result_cache.lookup_us", "us"},
        {"scenario.runner.run_us", "us"},
        {"scenario.runner.hog_run_ms", "ms"},
        {"serve.protocol.frame_us", "us"},
        {"serve.server.wait_us", "us"},
        {"serve.server.wait_p99_us", "us"},
        {"serve.server.requests_completed", "count"},
        {"serve.server.requests_rejected", "count"},
        {"serve.server.frames_written", "count"},
        {"serve.server.start_ms", "ms"},
        {"serve.journal.record_us", "us"},
        {"serve.journal.frame_sync_us", "us"},
        {"serve.journal.bytes_per_req", "bytes"},
        {"serve.journal.open_ms", "ms"},
        {"trace.overhead_ratio", "ratio"},
        {"failed_ratio", "ratio"},
    };
    d.insert(d.end(), std::begin(rest), std::end(rest));
    return d;
  }();
  return defs;
}

/// Shortest text that reads back as exactly @p value (JSON number syntax).
std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("a metric is not a finite number");
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc{}) throw std::runtime_error("cannot format a metric value");
  return std::string(buffer, end);
}

std::uint64_t parse_count(const std::string& option, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument("--" + option + " must be a non-negative integer, got '" +
                                text + "'");
  }
  return value;
}

double parse_seconds(const std::string& text) {
  double value = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() || !(value > 0.0) ||
      value > 3600.0) {
    throw std::invalid_argument("--seconds must be a number in (0, 3600], got '" + text + "'");
  }
  return value;
}

/// Removes the run's scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path dir) : dir_(std::move(dir)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const fs::path& path() const noexcept { return dir_; }

 private:
  fs::path dir_;
};

void print(const perfbench::Options& options, const perfbench::Outcome& outcome) {
  std::printf("arsf perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.tiny ? " (tiny)" : "");
  for (const std::string& note : outcome.notes) std::printf("  %s\n", note.c_str());

  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : options.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = outcome.metrics.find(def.name);
    if (it == outcome.metrics.end() && !options.trace) {
      throw std::logic_error("end-to-end metric " + def.name + " was not measured");
    }
    const double value = it == outcome.metrics.end() ? 0.0 : it->second;
    std::printf("  %-44s %.9g %s\n", def.name.c_str(), value, def.unit.c_str());
    json += first ? "" : ", ";
    json += "\"" + def.name + "\": {\"value\": " + number(value) + ", \"unit\": \"" + def.unit +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  const arsf::support::ArgParser args{argc, argv};
  const std::string freeze_dir = args.get_string("freeze", "");
  perfbench::Options options;
  options.workload = args.get_string("workload", "");
  const std::string seed = args.get_string("seed", "1");
  const std::string seconds = args.get_string("seconds", "10");
  const std::string trace = args.get_string("trace", "0");
  options.tiny = args.has("tiny");
  const std::string inputs_dir = args.get_string("inputs", "");
  const std::string work_root = args.get_string("work", "");
  const std::vector<std::string> unknown = args.unknown();
  if (!unknown.empty()) throw std::invalid_argument("unknown option --" + unknown.front());
  if (!args.positional().empty()) {
    throw std::invalid_argument("unexpected argument '" + args.positional().front() + "'");
  }

  if (!freeze_dir.empty()) {
    perfbench::freeze_paper_batches(freeze_dir);
    return 0;
  }

  options.seed = parse_count("seed", seed);
  options.seconds = parse_seconds(seconds);
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1, got '" + trace + "'");
  }
  options.trace = trace == "1";
  const std::vector<std::string> workloads = {"paper-batches", "sweep-shared", "serve-mixed"};
  if (std::find(workloads.begin(), workloads.end(), options.workload) == workloads.end()) {
    throw std::invalid_argument("--workload must be one of paper-batches, sweep-shared, "
                                "serve-mixed; got '" + options.workload + "'");
  }
  if (inputs_dir.empty() || work_root.empty()) {
    throw std::invalid_argument("--inputs and --work are required");
  }
  options.inputs_dir = fs::absolute(inputs_dir).string();
  const ScratchDir scratch{fs::absolute(work_root) /
                           (options.workload + "-" + std::to_string(::getpid()))};
  options.work_dir = scratch.path().string();

  perfbench::Trace tracer{options.trace};
  perfbench::Outcome outcome;
  if (options.workload == "paper-batches") {
    outcome = perfbench::run_paper_batches(options, tracer);
  } else if (options.workload == "sweep-shared") {
    outcome = perfbench::run_sweep_shared(options, tracer);
  } else {
    outcome = perfbench::run_serve(options, tracer);
  }
  outcome.metrics["failed_ratio"] =
      outcome.attempted == 0
          ? 1.0
          : static_cast<double>(outcome.failed) / static_cast<double>(outcome.attempted);

  if (options.trace) {
    const fs::path trace_dir = fs::absolute(work_root) / "traces";
    fs::create_directories(trace_dir);
    const std::string path =
        (trace_dir / (options.workload + "-seed" + std::to_string(options.seed) + ".jsonl"))
            .string();
    tracer.write_jsonl(path);
    outcome.note(perfbench::strprintf("trace: %zu spans written to %s", tracer.size(),
                                      path.c_str()));
    for (const auto& [name, totals] : tracer.totals()) {
      outcome.note(perfbench::strprintf("  span %-36s n=%-8zu total %.6f s  self %.6f s",
                                        name.c_str(), totals.count, totals.total_s,
                                        totals.self_s));
    }
  }
  print(options, outcome);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arsf_perfbench: %s\n", e.what());
    return 1;
  }
}
