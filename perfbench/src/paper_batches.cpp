// paper-batches -- the paper's artefacts the way a researcher runs them
// (`scenario_runner --prefix <family>`): one Runner::run_batch per family at
// default threads, no result cache, over Scenario JSON frozen from the
// registry into inputs/paper-batches/, so the input is the same for every
// seed.  Every result frame must equal the one recorded when the inputs were
// frozen, and Table I must keep its shape: Descending >= Ascending on every
// row, no detections.
//
// A traced run adds the layer probes, each timing a public call from outside
// on the same inputs: every scenario's analysis run serially (sim.engine
// busy and critical time per family), Table I under a timing AttackPolicy
// wrapper (attack.decide_*), and the BnB subset-search counters.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/expectation.h"
#include "bench.h"
#include "core/config.h"
#include "scenario/analysis.h"
#include "scenario/registry.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "sim/engine/subset_search.h"
#include "sim/engine/thread_pool.h"
#include "sim/enumerate.h"
#include "sim/worstcase.h"

namespace perfbench {
namespace {

using arsf::scenario::Runner;
using arsf::scenario::RunnerOptions;
using arsf::scenario::Scenario;
using arsf::scenario::ScenarioResult;

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names = {"table1", "table2", "fig4", "bnb", "misc"};
  return names;
}

struct Family {
  std::string name;
  std::vector<Scenario> scenarios;
  std::vector<std::string> expected;  ///< to_json(i, result) recorded at freeze time
};

struct Setup {
  std::vector<Family> families;
  std::unique_ptr<Runner> runner;
  std::size_t scenarios = 0;
};

/// The program's part of the set-up, after the engine pool has spun up: the
/// frozen inputs read and parsed into Scenarios, the recorded frames loaded
/// and the Runner built.
Setup set_up(const Options& options) {
  Setup setup;
  for (const std::string& name : family_names()) {
    Family family;
    family.name = name;
    const std::string stem = options.inputs_dir + "/paper-batches/" + name;
    for (const std::string& line : read_lines(stem + ".jsonl")) {
      Scenario scenario = Scenario::from_json(line);
      if (options.tiny) scenario = arsf::scenario::smoke_variant(std::move(scenario));
      scenario.validate();
      family.scenarios.push_back(std::move(scenario));
    }
    family.expected =
        read_lines(stem + (options.tiny ? ".tiny.expected.jsonl" : ".expected.jsonl"));
    if (family.expected.size() != family.scenarios.size()) {
      throw std::runtime_error("paper-batches: " + name + " has " +
                               std::to_string(family.scenarios.size()) + " scenarios but " +
                               std::to_string(family.expected.size()) + " recorded frames");
    }
    setup.scenarios += family.scenarios.size();
    setup.families.push_back(std::move(family));
  }
  setup.runner = std::make_unique<Runner>(RunnerOptions{});
  return setup;
}

/// Keeps each delivered result and its progress time from the pass start;
/// traced, a span from its batch's start to its delivery.
class DeliverySink final : public arsf::scenario::ResultSink {
 public:
  DeliverySink(Clock::time_point pass_start, Clock::time_point batch_start,
               std::vector<ScenarioResult>& results, std::vector<double>& latencies_ms,
               Trace& trace, std::int64_t parent)
      : pass_start_(pass_start), batch_start_(batch_start), results_(results),
        latencies_ms_(latencies_ms), trace_(trace), parent_(parent) {}

  void on_result(std::size_t index, const ScenarioResult& result) override {
    const Clock::time_point now = Clock::now();
    latencies_ms_.push_back(seconds_between(pass_start_, now) * 1e3);
    trace_.add("scenario.result", batch_start_, now, parent_, result.scenario);
    results_.at(index) = result;
  }

 private:
  Clock::time_point pass_start_;
  Clock::time_point batch_start_;
  std::vector<ScenarioResult>& results_;
  std::vector<double>& latencies_ms_;
  Trace& trace_;
  std::int64_t parent_;
};

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> batch_s;       ///< per family
  std::vector<double> latencies_ms;  ///< per scenario, from the pass start
};

/// Table I shape: Descending >= Ascending on every row, zero detections.
std::uint64_t table1_violations(const std::vector<ScenarioResult>& rows, Outcome& outcome) {
  const auto find = [&](const std::string& name) -> const ScenarioResult* {
    for (const ScenarioResult& row : rows) {
      if (row.scenario == name) return &row;
    }
    return nullptr;
  };
  std::uint64_t violations = 0;
  for (std::size_t row = 0;; ++row) {
    const std::string stem = "table1/r" + std::to_string(row) + "/";
    const ScenarioResult* asc = find(stem + "ascending");
    const ScenarioResult* desc = find(stem + "descending");
    if (asc == nullptr && desc == nullptr) break;
    const bool ok = asc != nullptr && desc != nullptr && asc->ok() && desc->ok() &&
                    desc->metric_or("expected_width", -1.0) >=
                        asc->metric_or("expected_width", 1e300) &&
                    asc->metric_or("detected_worlds", 1.0) == 0.0 &&
                    desc->metric_or("detected_worlds", 1.0) == 0.0;
    if (!ok) {
      ++violations;
      outcome.note("paper-batches: Table I row " + std::to_string(row) + " lost its shape");
    }
  }
  return violations;
}

Pass run_pass(const Setup& setup, Trace& trace, bool shape_checks, Outcome& outcome) {
  Pass pass;
  std::vector<std::vector<ScenarioResult>> results(setup.families.size());
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  const std::int64_t pass_span = trace.open("paper-batches.pass");
  for (std::size_t f = 0; f < setup.families.size(); ++f) {
    const Family& family = setup.families[f];
    results[f].resize(family.scenarios.size());
    const Clock::time_point batch_start = Clock::now();
    const std::int64_t span = trace.open("scenario.runner.run_batch", pass_span, family.name);
    DeliverySink sink{start, batch_start, results[f], pass.latencies_ms, trace, span};
    setup.runner->run_batch(std::span<const Scenario>{family.scenarios}, sink);
    trace.close(span);
    pass.batch_s.push_back(seconds_between(batch_start, Clock::now()));
  }
  trace.close(pass_span);
  pass.wall_s = seconds_between(start, Clock::now());
  pass.cpu_s = cpu_seconds() - cpu_start;

  for (std::size_t f = 0; f < setup.families.size(); ++f) {
    const Family& family = setup.families[f];
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < family.scenarios.size(); ++i) {
      if (!results[f][i].ok() ||
          arsf::scenario::to_json(i, results[f][i]) != family.expected[i]) {
        ++wrong;
        outcome.note("paper-batches: " + family.scenarios[i].name +
                     " differs from its recorded frame");
      }
    }
    outcome.count(family.scenarios.size(), wrong);
    if (shape_checks && family.name == "table1") {
      outcome.failed += table1_violations(results[f], outcome);
    }
  }
  return pass;
}

// ---- layer probes -------------------------------------------------------------

/// Times AttackPolicy::decide() of the policy it wraps, from outside.
class TimedPolicy final : public arsf::attack::AttackPolicy {
 public:
  explicit TimedPolicy(arsf::attack::AttackPolicy& inner) : inner_(inner) {}

  [[nodiscard]] arsf::TickInterval decide(const arsf::attack::AttackContext& ctx,
                                          arsf::support::Rng& rng) override {
    const Clock::time_point start = Clock::now();
    const arsf::TickInterval decision = inner_.decide(ctx, rng);
    seconds_ += seconds_between(start, Clock::now());
    ++calls_;
    return decision;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  arsf::attack::AttackPolicy& inner_;
  std::uint64_t calls_ = 0;
  double seconds_ = 0.0;
};

/// The count that pins a result's input size: worlds, configurations or
/// rounds, whichever the analysis reports, else the cost model.
double pinned_worlds(const Scenario& scenario, const ScenarioResult& result) {
  for (const char* key : {"worlds", "configurations", "rounds"}) {
    const double value = result.metric_or(key, -1.0);
    if (value >= 0.0) return value;
  }
  return static_cast<double>(arsf::scenario::estimated_worlds(scenario));
}

std::size_t family_index(const Setup& setup, const std::string& name) {
  for (std::size_t f = 0; f < setup.families.size(); ++f) {
    if (setup.families[f].name == name) return f;
  }
  throw std::logic_error("paper-batches: no family " + name);
}

/// Every scenario's analysis run serially, timed from outside: busy and
/// critical time per family.  Returns the results, family by family.
std::vector<std::vector<ScenarioResult>> probe_engine(const Setup& setup,
                                                      const std::vector<Pass>& traced,
                                                      Trace& trace, Outcome& outcome) {
  const double threads = arsf::sim::engine::ThreadPool::default_threads();
  std::vector<std::vector<ScenarioResult>> results(setup.families.size());
  for (std::size_t f = 0; f < setup.families.size(); ++f) {
    const Family& family = setup.families[f];
    const std::int64_t span = trace.open("probe.engine", -1, family.name);
    double busy = 0.0;
    double critical = 0.0;
    double worlds = 0.0;
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < family.scenarios.size(); ++i) {
      Scenario serial = family.scenarios[i];
      serial.num_threads = 1;
      const Clock::time_point start = Clock::now();
      ScenarioResult result = arsf::scenario::analysis_for(serial.analysis).run(serial);
      const Clock::time_point end = Clock::now();
      trace.add("sim.analysis.run", start, end, span, serial.name);
      busy += seconds_between(start, end);
      critical = std::max(critical, seconds_between(start, end));
      worlds += pinned_worlds(serial, result);
      if (arsf::scenario::to_json(i, result) != family.expected[i]) ++wrong;
      results[f].push_back(std::move(result));
    }
    trace.close(span);
    outcome.count(family.scenarios.size(), wrong);

    std::vector<double> batch;
    for (const Pass& pass : traced) batch.push_back(pass.batch_s[f]);
    const double batch_s = median(batch);
    outcome.metrics["scenario.runner.batch_s." + family.name] = batch_s;
    outcome.metrics["sim.engine.busy_s." + family.name] = busy;
    outcome.metrics["sim.engine.critical_s." + family.name] = critical;
    outcome.metrics["scenario.runner.pool_efficiency." + family.name] =
        batch_s > 0.0 ? busy / (threads * batch_s) : 0.0;
    outcome.metrics["sim.engine.worlds." + family.name] = worlds;
  }
  return results;
}

/// Table I through sim::enumerate_expected_width with each scenario's
/// policy wrapped in a TimedPolicy: decide() calls and time, memo states.
void probe_attack(const Setup& setup, const std::vector<std::vector<ScenarioResult>>& engine,
                  Trace& trace, Outcome& outcome) {
  const std::size_t f = family_index(setup, "table1");
  const Family& table1 = setup.families[f];
  const std::int64_t span = trace.open("probe.attack", -1, "table1");
  std::uint64_t calls = 0;
  std::uint64_t states = 0;
  std::uint64_t wrong = 0;
  double decide_s = 0.0;
  for (std::size_t i = 0; i < table1.scenarios.size(); ++i) {
    Scenario serial = table1.scenarios[i];
    serial.num_threads = 1;
    arsf::scenario::EnumerateSetup enumerate = arsf::scenario::make_enumerate_setup(serial);
    if (!enumerate.policy) continue;
    TimedPolicy timed{*enumerate.policy};
    enumerate.config.policy = &timed;
    const Clock::time_point start = Clock::now();
    const arsf::sim::EnumerateResult result = arsf::sim::enumerate_expected_width(enumerate.config);
    trace.add("sim.enumerate_expected_width", start, Clock::now(), span, serial.name);
    calls += timed.calls();
    decide_s += timed.seconds();
    if (const auto* expectation =
            dynamic_cast<const arsf::attack::ExpectationPolicy*>(enumerate.policy.get())) {
      states += expectation->memo_size();
    }
    // The wrapper must not change the answer the analysis gave.
    const ScenarioResult& reference = engine[f][i];
    if (result.expected_width != reference.metric_or("expected_width", -1.0) ||
        static_cast<double>(result.detected_worlds) !=
            reference.metric_or("detected_worlds", -1.0)) {
      ++wrong;
    }
  }
  trace.close(span);
  outcome.count(table1.scenarios.size(), wrong);
  outcome.metrics["attack.decide_calls.table1"] = static_cast<double>(calls);
  outcome.metrics["attack.decide_s.table1"] = decide_s;
  outcome.metrics["attack.memo_states.table1"] = static_cast<double>(states);
  outcome.metrics["attack.memo_hit_ratio.table1"] =
      calls == 0 ? 0.0
                 : static_cast<double>(calls - std::min(calls, states)) /
                       static_cast<double>(calls);
  outcome.metrics["sim.round_s.table1"] =
      outcome.metrics["sim.engine.busy_s.table1"] - decide_s;
}

/// The bnb family's over-all-subsets searches on the branch-and-bound
/// engine at one thread (deterministic counters).
void probe_bnb(const Setup& setup, Trace& trace, Outcome& outcome) {
  const Family& bnb = setup.families[family_index(setup, "bnb")];
  const std::int64_t span = trace.open("probe.bnb", -1, "bnb");
  double evaluated = 0.0;
  double pruned = 0.0;
  for (const Scenario& scenario : bnb.scenarios) {
    if (!scenario.over_all_sets) continue;
    const arsf::SystemConfig system = scenario.system();
    const std::vector<arsf::Tick> widths =
        arsf::tick_widths(system, arsf::Quantizer{scenario.step});
    arsf::sim::engine::SubsetSearchStats stats;
    std::vector<arsf::SensorId> best_set;
    const Clock::time_point start = Clock::now();
    (void)arsf::sim::worst_case_over_sets_bnb(widths, system.f, scenario.fa, &best_set, 1,
                                              scenario.require_undetected, &stats);
    trace.add("sim.worst_case_over_sets_bnb", start, Clock::now(), span, scenario.name);
    evaluated += static_cast<double>(stats.classes_evaluated);
    pruned += static_cast<double>(stats.classes_pruned);
  }
  trace.close(span);
  outcome.metrics["sim.engine.bnb_classes_evaluated"] = evaluated;
  outcome.metrics["sim.engine.bnb_classes_pruned"] = pruned;
}

// ---- freezing the inputs --------------------------------------------------------

std::vector<const Scenario*> family_members(const std::string& family) {
  const arsf::scenario::ScenarioRegistry& registry = arsf::scenario::registry();
  std::vector<const Scenario*> members;
  const auto prefix = [&](const std::string& text) {
    for (const Scenario* scenario : registry.match(text)) members.push_back(scenario);
  };
  const auto named = [&](const std::string& name) { members.push_back(&registry.at(name)); };
  if (family == "table1") {
    prefix("table1/");
  } else if (family == "table2") {
    prefix("table2/");
  } else if (family == "fig4") {
    prefix("fig4/");
    prefix("fast/fig4/");
  } else if (family == "bnb") {
    named("stress/worstcase-over-sets");
    prefix("bnb/large-n/");
  } else {
    prefix("fig2/");
    prefix("fig3/");
    prefix("fig5/");
    prefix("ext/");
    named("mc/table1-r0-random");
    named("stress/large-n-clean");
    named("stress/fine-grid");
  }
  return members;
}

std::string frames_text(const std::vector<ScenarioResult>& results) {
  std::string text;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) {
      throw std::runtime_error("freeze: " + results[i].scenario + " failed: " + results[i].error);
    }
    text += arsf::scenario::to_json(i, results[i]) + "\n";
  }
  return text;
}

}  // namespace

void freeze_paper_batches(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const Runner runner{RunnerOptions{}};
  for (const std::string& family : family_names()) {
    std::vector<Scenario> full;
    std::vector<Scenario> tiny;
    std::string inputs;
    for (const Scenario* scenario : family_members(family)) {
      full.push_back(*scenario);
      tiny.push_back(arsf::scenario::smoke_variant(*scenario));
      inputs += scenario->to_json() + "\n";
    }
    const std::string stem = dir + "/" + family;
    write_file(stem + ".jsonl", inputs);
    write_file(stem + ".expected.jsonl",
               frames_text(runner.run_batch(std::span<const Scenario>{full})));
    write_file(stem + ".tiny.expected.jsonl",
               frames_text(runner.run_batch(std::span<const Scenario>{tiny})));
    std::printf("%s: %zu scenarios\n", family.c_str(), full.size());
  }
}

Outcome run_paper_batches(const Options& options, Trace& trace) {
  Outcome outcome;
  // One set-up: the engine pool spun up, the inputs parsed, the Runner built.
  std::vector<double> setup_s;
  Setup setup;
  const auto setup_round = [&] {
    for (int k = 0; k < (options.tiny ? 1 : kSetupRound); ++k) {
      const bool first = setup_s.empty();
      const Clock::time_point start = Clock::now();
      const auto stand_in = spin_up_engine_pool(first);
      Setup trial = set_up(options);
      setup_s.push_back(seconds_between(start, Clock::now()));
      if (first) setup = std::move(trial);
    }
  };
  setup_round();
  ClassCounter classes;
  for (const Family& family : setup.families) {
    for (const Scenario& scenario : family.scenarios) classes.add(scenario);
  }
  outcome.note(strprintf("paper-batches: %zu scenarios in %zu family batches; inputs "
                         "repeating a canonical class: %zu",
                         setup.scenarios, setup.families.size(),
                         setup.scenarios - classes.classes()));

  const bool shape_checks = !options.tiny;
  (void)run_pass(setup, trace, shape_checks, outcome);  // untimed warm-up

  std::vector<Pass> plain;
  std::vector<Pass> traced;
  const Clock::time_point phase_start = Clock::now();
  for (std::size_t p = 0;; ++p) {
    const bool traced_pass = options.trace && p % 2 == 1;
    trace.set_recording(traced_pass);
    Pass pass = run_pass(setup, trace, shape_checks, outcome);
    trace.set_recording(false);
    (traced_pass ? traced : plain).push_back(std::move(pass));
    setup_round();
    if (seconds_between(phase_start, Clock::now()) >= options.seconds &&
        (!options.trace || !traced.empty())) {
      break;
    }
  }

  // A request is one scenario, a heavy request one family batch.
  std::vector<PassFigures> figures;
  std::vector<double> walls;
  std::vector<double> cpu;
  for (const Pass& pass : plain) {
    figures.push_back({pass.wall_s, static_cast<double>(setup.scenarios),
                       static_cast<double>(setup.families.size()), pass.latencies_ms});
    walls.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
  }
  report_passes("paper-batches", figures, outcome);
  report_setup("paper-batches", setup_s, outcome);
  outcome.metrics["process.cpu_s"] = median(cpu);

  if (options.trace) {
    trace.set_recording(true);
    const std::vector<std::vector<ScenarioResult>> engine =
        probe_engine(setup, traced, trace, outcome);
    probe_attack(setup, engine, trace, outcome);
    probe_bnb(setup, trace, outcome);
    trace.set_recording(false);
    std::vector<double> traced_walls;
    for (const Pass& pass : traced) traced_walls.push_back(pass.wall_s);
    outcome.metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls);
  }
  outcome.metrics["peak_rss_mb"] = peak_rss_mb();
  return outcome;
}

}  // namespace perfbench
