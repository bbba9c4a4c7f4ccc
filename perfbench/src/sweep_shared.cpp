// sweep-shared -- one seeded SweepSpec shaped like sweep/table1-grid (width
// sets x fa {0,1} x step {1, 0.5} x both schedules x 4 seeds, clean lane)
// streamed through run_sweep on a cached Runner at default threads, with a
// CsvStreamSink to a file and a checkpoint after every chunk: what
// `scenario_runner --sweep-json FILE --cache --csv FILE` does, with a cold
// cache per pass as users pay it.  The width sets are distinct multisets,
// so exactly 1 grid point in 16 opens a new canonical class.  Every point
// must equal its class's uncached result apart from from_cache; those
// references are computed before the timed passes.

#include <algorithm>
#include <filesystem>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "scenario/result_cache.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "support/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using arsf::scenario::ResultCache;
using arsf::scenario::ResultSink;
using arsf::scenario::Runner;
using arsf::scenario::RunnerOptions;
using arsf::scenario::Scenario;
using arsf::scenario::ScenarioResult;
using arsf::scenario::SweepSpec;

constexpr std::size_t kWidthSets = 3000;     ///< x 32 = 96,000 grid points
constexpr std::size_t kTinyWidthSets = 24;   ///< x 32 = 768 grid points
constexpr std::size_t kReferenceBlock = 64;  ///< width sets expanded at a time

SweepSpec generate_spec(std::uint64_t seed, std::size_t width_sets) {
  arsf::support::Rng rng{seed ^ 0x73776565702d6772ULL};
  SweepSpec spec;
  spec.name = "bench/sweep-shared";
  spec.description = "Seeded Table I-style clean grid: widths x fa x step x schedule x seed";
  spec.base.name = "bench/sweep-shared/base";
  spec.base.description = "sweep-shared template";
  spec.base.widths = {5, 11, 17};
  spec.base.policy = arsf::scenario::PolicyKind::kNone;
  std::set<std::vector<double>> seen;  // sorted widths: the clean lane's class
  while (spec.widths_sets.size() < width_sets) {
    std::vector<double> widths(rng.chance(0.25) ? 3 : 4);
    for (double& width : widths) width = static_cast<double>(rng.uniform_int(1, 16));
    std::vector<double> sorted = widths;
    std::sort(sorted.begin(), sorted.end());
    if (seen.insert(sorted).second) spec.widths_sets.push_back(std::move(widths));
  }
  spec.fa_values = {0, 1};
  spec.steps = {1.0, 0.5};
  spec.schedules = {arsf::sched::ScheduleKind::kAscending,
                    arsf::sched::ScheduleKind::kDescending};
  spec.seed_count = 4;
  return spec;
}

struct Reference {
  std::vector<std::uint64_t> name_digest;   ///< per grid point
  std::vector<std::uint32_t> point_class;   ///< per grid point
  std::vector<std::uint64_t> class_answer;  ///< answer_digest of each class's uncached result
  std::vector<Scenario> representatives;    ///< first point of each class
};

/// Expands the grid a block of width sets at a time (the width axis moves
/// slowest, so a block is a contiguous index range whose points carry the
/// same names as in the full grid), assigns every point its canonical class
/// and runs each class's first point once, uncached.
Reference build_reference(const SweepSpec& spec) {
  Reference ref;
  const std::uint64_t points = spec.size();
  ref.name_digest.reserve(points);
  ref.point_class.reserve(points);
  ClassCounter classes;
  for (std::size_t first = 0; first < spec.widths_sets.size(); first += kReferenceBlock) {
    const std::size_t last = std::min(first + kReferenceBlock, spec.widths_sets.size());
    SweepSpec block = spec;
    block.widths_sets.assign(spec.widths_sets.begin() + static_cast<std::ptrdiff_t>(first),
                             spec.widths_sets.begin() + static_cast<std::ptrdiff_t>(last));
    for (Scenario& point : block.expand()) {
      const std::size_t id = classes.add(point);
      ref.name_digest.push_back(text_digest(point.name));
      ref.point_class.push_back(static_cast<std::uint32_t>(id));
      if (id == ref.representatives.size()) ref.representatives.push_back(std::move(point));
    }
  }
  if (ref.name_digest.size() != points) {
    throw std::logic_error("sweep-shared: the reference covers " +
                           std::to_string(ref.name_digest.size()) + " of " +
                           std::to_string(points) + " grid points");
  }
  for (const std::uint64_t index : {std::uint64_t{0}, points / 2, points - 1}) {
    if (text_digest(spec.at(index).name) != ref.name_digest[index]) {
      throw std::logic_error("sweep-shared: block expansion disagrees with SweepSpec::at");
    }
  }
  const Runner uncached{RunnerOptions{}};
  for (const ScenarioResult& result :
       uncached.run_batch(std::span<const Scenario>{ref.representatives})) {
    if (!result.ok()) throw std::runtime_error("sweep-shared: reference failed: " + result.error);
    ref.class_answer.push_back(answer_digest(result));
  }
  return ref;
}

/// Checks every delivered point against its class's reference and stamps
/// its latency from the pass start.
class PointSink final : public ResultSink {
 public:
  PointSink(const Reference& ref, Clock::time_point start, std::vector<double>& latencies_ms)
      : ref_(ref), start_(start), latencies_ms_(latencies_ms) {}

  void on_result(std::size_t index, const ScenarioResult& result) override {
    latencies_ms_.push_back(seconds_between(start_, Clock::now()) * 1e3);
    const bool ok = index == delivered_ && index < ref_.point_class.size() && result.ok() &&
                    text_digest(result.scenario) == ref_.name_digest[index] &&
                    answer_digest(result) == ref_.class_answer[ref_.point_class[index]];
    if (!ok) ++wrong_;
    ++delivered_;
  }

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t wrong() const noexcept { return wrong_; }

 private:
  const Reference& ref_;
  Clock::time_point start_;
  std::vector<double>& latencies_ms_;
  std::uint64_t delivered_ = 0;
  std::uint64_t wrong_ = 0;
};

/// Times the wrapped sink's on_result() from outside (traced passes).
class TimedSink final : public ResultSink {
 public:
  TimedSink(ResultSink& inner, Trace& trace, std::int64_t parent)
      : inner_(inner), trace_(trace), parent_(parent) {}

  void on_result(std::size_t index, const ScenarioResult& result) override {
    const Clock::time_point start = Clock::now();
    inner_.on_result(index, result);
    const Clock::time_point end = Clock::now();
    seconds_ += seconds_between(start, end);
    trace_.add("scenario.sink.csv", start, end, parent_);
  }
  void on_finish(std::size_t total) override { inner_.on_finish(total); }

  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  ResultSink& inner_;
  Trace& trace_;
  std::int64_t parent_;
  double seconds_ = 0.0;
};

struct SweepPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double csv_s = 0.0;
  std::uint64_t csv_bytes = 0;
  arsf::scenario::CacheStats cache;
  std::vector<double> latencies_ms;  ///< per grid point, from the pass start
};

SweepPass run_pass(const SweepSpec& spec, const Reference& ref, const std::string& work_dir,
                   Trace& trace, Outcome& outcome) {
  const std::string csv_path = work_dir + "/sweep.csv";
  std::error_code ec;
  fs::remove(csv_path, ec);
  fs::remove(csv_path + ".progress", ec);

  SweepPass pass;
  const bool traced = trace.recording();
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  const std::int64_t pass_span = trace.open("sweep-shared.pass");
  {
    ResultCache cache{ResultCache::kDefaultByteBudget};
    RunnerOptions runner_options;
    runner_options.cache = &cache;
    const Runner runner{runner_options};
    const std::int64_t span = trace.open("scenario.sweep.run_sweep", pass_span);
    arsf::scenario::CsvStreamSink csv{csv_path};
    TimedSink timed_csv{csv, trace, span};
    PointSink points{ref, start, pass.latencies_ms};
    arsf::scenario::TeeSink tee;
    if (traced) {
      tee.attach(timed_csv);
    } else {
      tee.attach(csv);
    }
    tee.attach(points);
    arsf::scenario::SweepRunOptions sweep_options;
    sweep_options.checkpoint_path = csv_path + ".progress";
    sweep_options.checkpoint_output = csv_path;
    arsf::scenario::run_sweep(spec, runner, tee, sweep_options);
    trace.close(span);
    pass.wall_s = seconds_between(start, Clock::now());
    pass.csv_s = timed_csv.seconds();
    pass.cache = cache.stats();
    const std::uint64_t missing = spec.size() - std::min(spec.size(), points.delivered());
    outcome.count(spec.size(), points.wrong() + missing);
  }
  pass.cpu_s = cpu_seconds() - cpu_start;
  trace.close(pass_span);
  pass.csv_bytes = fs::file_size(csv_path, ec);
  fs::remove(csv_path, ec);
  return pass;
}

/// Layer probes, each timing a public call from outside on the run's grid.
void probe_layers(const SweepSpec& spec, const Reference& ref, const std::string& work_dir,
                  Trace& trace, Outcome& outcome) {
  const std::int64_t root = trace.open("probe.sweep");
  Clock::time_point start = Clock::now();
  std::vector<Scenario> points = spec.expand();
  Clock::time_point end = Clock::now();
  trace.add("scenario.sweep.expand", start, end, root);
  outcome.metrics["scenario.sweep.expand_s"] = seconds_between(start, end);

  std::uint64_t signatures = 0;
  start = Clock::now();
  for (const Scenario& point : points) {
    signatures ^= arsf::scenario::canonical_signature(arsf::scenario::canonical_scenario(point));
  }
  end = Clock::now();
  trace.add("scenario.result_cache.canonicalise", start, end, root);
  outcome.metrics["scenario.result_cache.canonicalise_s"] = seconds_between(start, end);
  (void)signatures;
  points.clear();
  points.shrink_to_fit();

  double analysis_s = 0.0;
  std::uint64_t wrong = 0;
  for (std::size_t c = 0; c < ref.representatives.size(); ++c) {
    Scenario serial = ref.representatives[c];
    serial.num_threads = 1;
    start = Clock::now();
    const ScenarioResult result = arsf::scenario::analysis_for(serial.analysis).run(serial);
    end = Clock::now();
    trace.add("scenario.analysis.run", start, end, root, serial.name);
    analysis_s += seconds_between(start, end);
    if (answer_digest(result) != ref.class_answer[c]) ++wrong;
  }
  outcome.count(ref.representatives.size(), wrong);
  outcome.metrics["scenario.analysis_s"] = analysis_s;

  // One checkpoint save per chunk, as run_sweep makes them.
  const std::string path = work_dir + "/probe.progress";
  arsf::scenario::SweepCheckpoint checkpoint;
  checkpoint.spec_fingerprint = arsf::scenario::sweep_fingerprint(spec);
  const std::uint64_t chunk = arsf::scenario::SweepRunOptions{}.chunk_scenarios;
  start = Clock::now();
  for (std::uint64_t next = 0; next < spec.size();) {
    next = std::min<std::uint64_t>(next + chunk, spec.size());
    checkpoint.next_index = next;
    arsf::scenario::save_sweep_checkpoint(path, checkpoint);
  }
  end = Clock::now();
  trace.add("scenario.sweep.checkpoint", start, end, root);
  outcome.metrics["scenario.sweep.checkpoint_s"] = seconds_between(start, end);
  trace.close(root);
}

}  // namespace

Outcome run_sweep_shared(const Options& options, Trace& trace) {
  Outcome outcome;
  const std::string spec_path = options.work_dir + "/sweep-shared.json";
  write_file(spec_path,
             generate_spec(options.seed, options.tiny ? kTinyWidthSets : kWidthSets).to_json());

  // One set-up: the engine pool spun up, the SweepSpec read, parsed and
  // validated.  Each pass builds its own cache and Runner on the clock.
  std::vector<double> setup_s;
  SweepSpec spec;
  const auto setup_round = [&] {
    for (int k = 0; k < (options.tiny ? 1 : kSetupRound); ++k) {
      const bool first = setup_s.empty();
      const Clock::time_point start = Clock::now();
      const auto stand_in = spin_up_engine_pool(first);
      SweepSpec trial = SweepSpec::from_json(read_file(spec_path));
      trial.validate();
      setup_s.push_back(seconds_between(start, Clock::now()));
      if (first) spec = std::move(trial);
    }
  };
  setup_round();
  const Reference ref = build_reference(spec);
  const std::uint64_t points = spec.size();
  outcome.note(strprintf("sweep-shared: %llu grid points, %zu canonical classes; points "
                         "repeating a canonical class: %.4f",
                         static_cast<unsigned long long>(points), ref.representatives.size(),
                         1.0 - static_cast<double>(ref.representatives.size()) /
                                   static_cast<double>(points)));

  (void)run_pass(spec, ref, options.work_dir, trace, outcome);  // untimed warm-up

  std::vector<SweepPass> plain;
  std::vector<SweepPass> traced;
  const Clock::time_point phase_start = Clock::now();
  for (std::size_t p = 0;; ++p) {
    const bool traced_pass = options.trace && p % 2 == 1;
    trace.set_recording(traced_pass);
    SweepPass pass = run_pass(spec, ref, options.work_dir, trace, outcome);
    trace.set_recording(false);
    (traced_pass ? traced : plain).push_back(std::move(pass));
    setup_round();
    if (seconds_between(phase_start, Clock::now()) >= options.seconds &&
        (!options.trace || !traced.empty())) {
      break;
    }
  }

  // A request is one grid point, a heavy request the whole sweep.
  std::vector<PassFigures> figures;
  std::vector<double> walls;
  std::vector<double> cpu;
  for (const SweepPass& pass : plain) {
    figures.push_back({pass.wall_s, static_cast<double>(points), 1.0, pass.latencies_ms});
    walls.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
  }
  report_passes("sweep-shared", figures, outcome);
  report_setup("sweep-shared", setup_s, outcome);
  outcome.metrics["process.cpu_s"] = median(cpu);

  if (options.trace) {
    std::vector<double> traced_walls;
    std::vector<double> csv_s;
    for (const SweepPass& pass : traced) {
      traced_walls.push_back(pass.wall_s);
      csv_s.push_back(pass.csv_s);
    }
    const SweepPass& last = traced.back();
    outcome.metrics["scenario.sink.csv_s"] = median(csv_s);
    outcome.metrics["scenario.sink.bytes"] = static_cast<double>(last.csv_bytes);
    outcome.metrics["scenario.result_cache.fresh_evals"] = static_cast<double>(last.cache.misses);
    outcome.metrics["scenario.result_cache.hits"] = static_cast<double>(last.cache.hits);
    outcome.metrics["scenario.result_cache.inserts"] = static_cast<double>(last.cache.inserts);
    outcome.metrics["scenario.result_cache.entries"] = static_cast<double>(last.cache.entries);
    outcome.metrics["scenario.result_cache.bytes"] = static_cast<double>(last.cache.bytes);
    const std::uint64_t lookups = last.cache.hits + last.cache.misses;
    outcome.metrics["scenario.result_cache.hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(last.cache.hits) / static_cast<double>(lookups);
    outcome.metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls);
    trace.set_recording(true);
    probe_layers(spec, ref, options.work_dir, trace, outcome);
    trace.set_recording(false);
  }
  outcome.metrics["peak_rss_mb"] = peak_rss_mb();
  return outcome;
}

}  // namespace perfbench
