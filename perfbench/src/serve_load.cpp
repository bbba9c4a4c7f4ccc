// serve-mixed -- the scenario service daemon in process
// (serve::Server configured like `arsf_serve --workers 0 --cache 268435456`,
// its Unix socket in the run's scratch directory), driven CLOSED LOOP by one
// benchmark thread over four connections with one request outstanding each:
//
//   * connections 1-3 are interactive: small clean enumerate,
//     worstcase-fast and clean fused requests (n = 3-5, widths 1-9 ticks);
//     about 9 in 10 repeat an earlier scenario of the same connection under
//     a new request_id, about 1 in 10 is new;
//   * connection 0 is the hog: per pass a seeded list of heavy requests --
//     policy-lane enumerations and 8-point sweeps of them -- that never
//     repeat a cached answer;
//   * a pass ends when the hog's list completes; after an untimed warm-up
//     pass, passes run back to back until --seconds have elapsed, in
//     segments of about 2.5 s.  Between two segments no request is
//     outstanding, and a round of set-ups (setup_s) brings up a spare daemon
//     on a socket of its own.
//
// The durable path (a state directory: journal + frame spool, fsync per
// transition) is measured by the traced run's journal probe, uncontended:
// as a workload of its own, fsync latency on a shared disk swung its figures
// by more than 2x between identical runs.
//
// Output check, the serve_smoke discipline: every result frame with its
// request_id stripped must equal scenario::to_json(i, Runner::run(...)) byte
// for byte -- the fresh frame or its cache-hit twin -- and every done frame
// must carry the right counts.  While the clock runs the client only digests
// frames; the references are computed after the loop.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "scenario/result_cache.h"
#include "scenario/runner.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/fnv.h"
#include "support/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using arsf::scenario::AnalysisKind;
using arsf::scenario::CollectingSink;
using arsf::scenario::PolicyKind;
using arsf::scenario::ResultCache;
using arsf::scenario::Runner;
using arsf::scenario::RunnerOptions;
using arsf::scenario::Scenario;
using arsf::scenario::ScenarioResult;
using arsf::scenario::SweepSpec;
using arsf::sched::ScheduleKind;
using arsf::serve::Server;
using arsf::serve::ServeOptions;

constexpr unsigned kConnections = 4;    ///< connection 0 is the hog
constexpr double kFreshShare = 0.1;     ///< interactive requests that are new scenarios
constexpr std::uint64_t kMaxInteractiveWorlds = 4096;  ///< estimated_worlds() cap
constexpr std::uint64_t kCacheBytes = 268435456;
constexpr std::uint64_t kWarmPass = ~std::uint64_t{0};  ///< hog-list tag of the warm-up
constexpr double kStallSeconds = 60.0;  ///< no frame for this long fails the run
constexpr std::size_t kReferenceChunk = 4096;  ///< interactive references run at a time

constexpr double kSegmentSeconds = 2.5;  ///< timed passes between two set-up rounds

struct Sizes {
  std::size_t hog_per_pass;   ///< heavy requests per timed pass
  std::size_t hog_warm;       ///< heavy requests in the warm-up pass
  int setup_round;            ///< set-ups timed per round
  std::size_t probe_samples;  ///< interactive scenarios the layer probes time
  std::size_t journal_probe;  ///< requests the uncontended journal probe writes
};

Sizes sizes(bool tiny) {
  if (tiny) return {2, 2, 1, 100, 20};
  return {96, 24, kSetupRound, 2000, 200};
}

// ---- seeded request streams ---------------------------------------------------

/// One interactive scenario, kept compact and rendered to JSON per send.
struct Small {
  std::uint32_t serial = 0;
  std::uint8_t kind = 0;  ///< 0 clean enumerate, 1 worstcase-fast, 2 clean fused
  std::uint8_t n = 3;
  std::array<std::uint8_t, 5> widths{};
};

Scenario to_scenario(const Small& small, unsigned conn) {
  Scenario s;
  s.name = "bench/i" + std::to_string(conn) + "/" + std::to_string(small.serial);
  s.description = "serve benchmark interactive request";
  for (std::size_t i = 0; i < small.n; ++i) s.widths.push_back(small.widths[i]);
  s.policy = PolicyKind::kNone;
  s.fa = 0;
  if (small.kind == 0) {
    s.analysis = AnalysisKind::kEnumerate;
  } else if (small.kind == 1) {
    s.analysis = AnalysisKind::kWorstCaseFast;
    s.fa = 1;
  } else {
    s.analysis = AnalysisKind::kFused;
    s.fused_members = {AnalysisKind::kEnumerate, AnalysisKind::kWidthHistogram,
                       AnalysisKind::kDetectionRate};
  }
  return s;
}

/// The seeded request stream of one interactive connection.
class InteractiveStream {
 public:
  InteractiveStream(std::uint64_t seed, unsigned conn)
      : conn_(conn), rng_(seed * 0x9e3779b97f4a7c15ULL + conn) {}

  /// Pool index of the next request: a new scenario about 1 in 10 times
  /// (always the first), otherwise a uniformly drawn earlier one.  New
  /// scenarios above kMaxInteractiveWorlds are redrawn, so an interactive
  /// request stays small whatever its shape.
  std::uint32_t next() {
    if (pool_.empty() || rng_.chance(kFreshShare)) {
      Small small;
      small.serial = static_cast<std::uint32_t>(pool_.size());
      do {
        small.kind = static_cast<std::uint8_t>(rng_.uniform_int(0, 2));
        small.n = static_cast<std::uint8_t>(rng_.uniform_int(3, 5));
        for (std::size_t i = 0; i < small.n; ++i) {
          small.widths[i] = static_cast<std::uint8_t>(rng_.uniform_int(1, 9));
        }
      } while (arsf::scenario::estimated_worlds(to_scenario(small, conn_)) >
               kMaxInteractiveWorlds);
      pool_.push_back(small);
      return small.serial;
    }
    return static_cast<std::uint32_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pool_.size()) - 1));
  }

  [[nodiscard]] Scenario scenario(std::uint32_t entry) const {
    return to_scenario(pool_.at(entry), conn_);
  }

 private:
  unsigned conn_;
  arsf::support::Rng rng_;
  std::vector<Small> pool_;
};

/// One heavy request of the hog connection.
struct HogItem {
  std::string id;
  std::string json;         ///< Scenario or SweepSpec JSON
  bool sweep = false;
  std::size_t results = 1;  ///< result frames it is answered with
};

/// Seeded heavy requests.  Even items are policy-lane enumerations (the
/// serial memoised attacker walk), odd items 8-point sweeps of the same kind
/// over both schedules and four seeds.  Each uses the random attacked-set
/// rule, whose seed stays in the canonical cache key, and a fresh 64-bit
/// seed -- so no heavy request is ever answered from the cache.
std::vector<HogItem> hog_list(std::uint64_t seed, std::uint64_t pass, std::size_t count) {
  arsf::support::Rng rng{seed ^ 0x686f672d6c697374ULL ^ (pass * 0x9e3779b97f4a7c15ULL)};
  const std::string tag = pass == kWarmPass ? "w" : std::to_string(pass);
  std::vector<HogItem> items;
  for (std::size_t j = 0; j < count; ++j) {
    Scenario s;
    s.name = "bench/hog/" + tag + "/" + std::to_string(j);
    s.description = "serve benchmark heavy policy-lane request";
    for (int i = 0; i < 3; ++i) s.widths.push_back(static_cast<double>(rng.uniform_int(6, 11)));
    s.fa = 1;
    s.attacked_rule = arsf::sched::AttackedSetRule::kRandom;
    s.seed = rng.next();
    s.schedule = rng.chance(0.5) ? ScheduleKind::kAscending : ScheduleKind::kDescending;
    HogItem item;
    item.id = "h" + tag + "-" + std::to_string(j);
    if (j % 2 == 0) {
      item.json = s.to_json();
    } else {
      SweepSpec spec;
      spec.name = s.name;
      spec.description = "serve benchmark heavy sweep";
      spec.base = s;
      spec.base.name = s.name + "/base";
      spec.schedules = {ScheduleKind::kAscending, ScheduleKind::kDescending};
      spec.seed_count = 4;
      spec.seed_stride = 0x9e3779b97f4a7c15ULL;
      item.sweep = true;
      item.results = spec.size();
      item.json = spec.to_json();
    }
    items.push_back(std::move(item));
  }
  return items;
}

// ---- closed-loop client ---------------------------------------------------------

/// The frames one interactive scenario was answered with, as digests: at
/// most two distinct ones can be right (the fresh frame and its cache-hit
/// twin).
struct Observed {
  std::array<std::uint64_t, 2> digest{};
  std::array<std::uint32_t, 2> count{};
  std::uint32_t other = 0;  ///< answers with a third distinct frame: wrong

  void add(std::uint64_t d) {
    for (std::size_t k = 0; k < 2; ++k) {
      if (count[k] == 0) {
        digest[k] = d;
        count[k] = 1;
        return;
      }
      if (digest[k] == d) {
        ++count[k];
        return;
      }
    }
    ++other;
  }
  [[nodiscard]] std::uint32_t total() const noexcept { return count[0] + count[1] + other; }
};

/// A heavy request as answered.
struct HogAnswer {
  HogItem item;
  std::vector<std::uint64_t> digests;  ///< one per result frame, in order
  bool done_ok = false;
};

struct PassPlan {
  std::vector<HogItem> items;
  bool timed = true;
  bool traced = false;
};

struct PassStat {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t interactive = 0;  ///< interactive requests completed during the pass
  std::uint64_t hog = 0;
  bool timed = true;
  bool traced = false;
  std::vector<double> latencies_ms;  ///< interactive requests sent and answered in the pass
};

/// A traced interactive request, for the wait decomposition.
struct TracedSample {
  double latency_us = 0.0;
  bool from_cache = false;
};

/// The payload of a done frame for @p results results, none failed: the
/// text after its `{"request_id":"<id>",` prefix.
std::string done_payload(std::size_t results) {
  static const std::string prefix = "{\"request_id\":\"x\",";
  return arsf::serve::done_frame("x", results, 0).substr(prefix.size());
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("serve: send failed: " + std::string(std::strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
}

/// True when @p digests are exactly the frames of @p results, in order: each
/// the fresh frame or its cache-hit twin.
bool frames_match(const std::vector<ScenarioResult>& results,
                  const std::vector<std::uint64_t>& digests) {
  if (results.size() != digests.size()) return false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    if (!r.ok()) return false;
    if (digests[i] != text_digest(arsf::scenario::to_json(i, r)) &&
        digests[i] !=
            text_digest(arsf::scenario::to_json(i, arsf::scenario::cache_hit_frame(r, r.scenario)))) {
      return false;
    }
  }
  return true;
}

/// The one benchmark thread: four connections, one request outstanding on
/// each, the next one sent the moment the previous one's done frame arrives.
class LoadDriver {
 public:
  struct Sample {
    Scenario scenario;
    ScenarioResult reference;
  };

  LoadDriver(std::uint64_t seed, Trace& trace) : trace_(trace), done_one_(done_payload(1)) {
    for (unsigned c = 1; c < kConnections; ++c) streams_.emplace_back(seed, c);
    observed_.resize(kConnections);
  }
  ~LoadDriver() { disconnect(); }
  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  void connect(const std::string& socket_path) {
    disconnect();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("serve: socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    for (Conn& conn : conns_) {
      conn = Conn{};
      conn.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (conn.fd < 0 ||
          ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        throw std::runtime_error("serve: cannot connect to " + socket_path + ": " +
                                 std::strerror(errno));
      }
    }
  }

  void disconnect() {
    for (Conn& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    }
  }

  /// Runs passes back to back -- each ends when the hog has answered its
  /// list -- until @p next_pass returns nullopt, then lets the interactive
  /// requests still outstanding finish.
  void run(const std::function<std::optional<PassPlan>()>& next_pass);

  /// Checks every answer against references computed now and returns the
  /// number of wrong ones; keeps up to @p samples interactive scenarios with
  /// their reference results for the layer probes.
  std::uint64_t verify(std::size_t samples);

  [[nodiscard]] const std::vector<PassStat>& passes() const noexcept { return passes_; }
  [[nodiscard]] const std::vector<TracedSample>& traced() const noexcept { return traced_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] const std::vector<Sample>& samples() const noexcept { return samples_; }
  [[nodiscard]] double repeat_share() const noexcept { return repeat_share_; }

 private:
  struct Conn {
    int fd = -1;
    std::string buffer;  ///< bytes read but not yet split into lines
    bool busy = false;
    std::string id;
    std::string prefix;  ///< {"request_id":"<id>", -- every frame of the request starts so
    Clock::time_point sent;
    std::uint32_t entry = 0;  ///< interactive pool index
    std::size_t results = 0;
    std::uint64_t digest = 0;  ///< interactive: digest of its one result frame
    bool from_cache = false;
    std::vector<std::uint64_t> digests;  ///< hog: digest of every result frame
    std::uint64_t pass = 0;              ///< pass serial when sent
    std::int64_t span_parent = -1;
  };

  bool start_pass();
  void end_pass(Clock::time_point now);
  void send(Conn& conn, std::string id, const std::string& json);
  void send_interactive(unsigned c);
  void send_hog();
  void on_line(unsigned c, std::string_view line);
  void on_done(unsigned c, std::string_view payload);

  Trace& trace_;
  const std::string done_one_;
  std::array<Conn, kConnections> conns_;
  std::vector<InteractiveStream> streams_;       ///< connections 1..3
  std::vector<std::vector<Observed>> observed_;  ///< [connection][pool entry]
  std::array<std::uint64_t, kConnections> serial_{};  ///< request-id counters
  const std::function<std::optional<PassPlan>()>* next_pass_ = nullptr;
  PassPlan plan_;
  std::size_t hog_next_ = 0;  ///< next item of plan_ to send
  std::uint64_t pass_serial_ = 0;
  bool stopping_ = false;
  Clock::time_point pass_start_;
  double pass_cpu_ = 0.0;
  std::int64_t pass_span_ = -1;
  PassStat current_;

  std::vector<PassStat> passes_;
  std::vector<TracedSample> traced_;  ///< interactive, traced passes
  std::vector<HogAnswer> hog_answers_;
  std::uint64_t completed_ = 0;   ///< requests answered, every pass
  std::uint64_t bad_frames_ = 0;  ///< stray frames and wrong done frames
  std::vector<Sample> samples_;
  double repeat_share_ = 0.0;
};

void LoadDriver::run(const std::function<std::optional<PassPlan>()>& next_pass) {
  next_pass_ = &next_pass;
  stopping_ = false;
  if (!start_pass()) return;
  for (unsigned c = 1; c < kConnections; ++c) send_interactive(c);

  std::array<pollfd, kConnections> fds{};
  std::vector<char> chunk(1 << 16);
  Clock::time_point last_frame = Clock::now();
  for (;;) {
    if (std::none_of(conns_.begin(), conns_.end(), [](const Conn& c) { return c.busy; })) break;
    for (unsigned c = 0; c < kConnections; ++c) fds[c] = pollfd{conns_[c].fd, POLLIN, 0};
    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("serve: poll failed");
    if (ready <= 0) {
      if (seconds_between(last_frame, Clock::now()) > kStallSeconds) {
        throw std::runtime_error("serve: no frame from the daemon for 60 s");
      }
      continue;
    }
    last_frame = Clock::now();
    for (unsigned c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(conns_[c].fd, chunk.data(), chunk.size());
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0) throw std::runtime_error("serve: the daemon closed connection " + std::to_string(c));
      Conn& conn = conns_[c];
      conn.buffer.append(chunk.data(), static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t end; (end = conn.buffer.find('\n', begin)) != std::string::npos;
           begin = end + 1) {
        on_line(c, std::string_view{conn.buffer}.substr(begin, end - begin));
      }
      conn.buffer.erase(0, begin);
    }
  }
  next_pass_ = nullptr;
}

bool LoadDriver::start_pass() {
  std::optional<PassPlan> plan = (*next_pass_)();
  if (!plan || plan->items.empty()) {
    stopping_ = true;
    return false;
  }
  plan_ = std::move(*plan);
  hog_next_ = 0;
  ++pass_serial_;
  current_ = PassStat{};
  current_.timed = plan_.timed;
  current_.traced = plan_.traced;
  trace_.set_recording(plan_.traced);
  pass_span_ = trace_.open("serve.pass");
  pass_cpu_ = cpu_seconds();
  pass_start_ = Clock::now();
  send_hog();
  return true;
}

void LoadDriver::end_pass(Clock::time_point now) {
  current_.wall_s = seconds_between(pass_start_, now);
  current_.cpu_s = cpu_seconds() - pass_cpu_;
  trace_.close(pass_span_);
  trace_.set_recording(false);
  passes_.push_back(std::move(current_));
  start_pass();
}

void LoadDriver::send(Conn& conn, std::string id, const std::string& json) {
  conn.prefix = "{\"request_id\":\"" + id + "\",";
  std::string line = conn.prefix;
  line.append(json, 1, std::string::npos);
  line.push_back('\n');
  conn.id = std::move(id);
  conn.busy = true;
  conn.results = 0;
  conn.digests.clear();
  conn.from_cache = false;
  conn.pass = pass_serial_;
  conn.span_parent = pass_span_;
  conn.sent = Clock::now();
  send_all(conn.fd, line);
}

void LoadDriver::send_interactive(unsigned c) {
  InteractiveStream& stream = streams_[c - 1];
  const std::uint32_t entry = stream.next();
  if (entry >= observed_[c].size()) observed_[c].resize(entry + 1);
  Conn& conn = conns_[c];
  conn.entry = entry;
  send(conn, "i" + std::to_string(c) + "-" + std::to_string(serial_[c]++),
       stream.scenario(entry).to_json());
}

void LoadDriver::send_hog() {
  const HogItem& item = plan_.items[hog_next_++];
  send(conns_[0], item.id, item.json);
}

void LoadDriver::on_line(unsigned c, std::string_view line) {
  Conn& conn = conns_[c];
  if (!conn.busy || line.substr(0, conn.prefix.size()) != conn.prefix) {
    ++bad_frames_;
    return;
  }
  const std::string_view rest = line.substr(conn.prefix.size());
  if (rest.starts_with("\"done\":true,")) {
    on_done(c, rest);
    return;
  }
  ++conn.results;
  arsf::support::Fnv1a digest;
  digest.byte('{').text(rest);  // the frame with its request_id stripped
  if (c == 0) {
    conn.digests.push_back(digest.value());
  } else {
    conn.digest = digest.value();
    conn.from_cache = rest.find("\"from_cache\":true") != std::string_view::npos;
  }
}

void LoadDriver::on_done(unsigned c, std::string_view payload) {
  const Clock::time_point now = Clock::now();
  Conn& conn = conns_[c];
  conn.busy = false;
  ++completed_;
  const bool in_pass = conn.pass == pass_serial_;
  const bool traced = in_pass && plan_.traced;
  if (c == 0) {
    HogAnswer answer;
    answer.item = plan_.items[hog_next_ - 1];
    answer.done_ok =
        conn.results == answer.item.results && payload == done_payload(answer.item.results);
    answer.digests = std::move(conn.digests);
    conn.digests = {};
    if (traced) trace_.add("serve.hog_request", conn.sent, now, conn.span_parent, conn.id);
    hog_answers_.push_back(std::move(answer));
    ++current_.hog;
    if (hog_next_ < plan_.items.size()) {
      send_hog();
    } else {
      end_pass(now);
    }
    return;
  }

  ++current_.interactive;
  if (conn.results == 1 && payload == done_one_) {
    observed_[c][conn.entry].add(conn.digest);
  } else {
    ++bad_frames_;
  }
  if (in_pass && plan_.timed) {
    const double latency_s = seconds_between(conn.sent, now);
    if (traced) {
      traced_.push_back({latency_s * 1e6, conn.from_cache});
      trace_.add("serve.request", conn.sent, now, conn.span_parent, conn.id);
    } else {
      current_.latencies_ms.push_back(latency_s * 1e3);
    }
  }
  if (!stopping_) send_interactive(c);
}

std::uint64_t LoadDriver::verify(std::size_t samples) {
  std::uint64_t wrong = bad_frames_;
  const Runner reference{RunnerOptions{}};

  // Interactive: each distinct digest must be the fresh frame or its
  // cache-hit twin.  References run a chunk at a time to bound memory.
  std::size_t used = 0;
  for (const std::vector<Observed>& entries : observed_) {
    for (const Observed& o : entries) used += o.total() > 0 ? 1 : 0;
  }
  const std::size_t stride = std::max<std::size_t>(1, used / std::max<std::size_t>(1, samples));
  std::unordered_set<std::uint64_t> classes;  // canonical fingerprints
  std::uint64_t requests = 0;
  std::size_t seen = 0;
  std::vector<Scenario> chunk;
  std::vector<const Observed*> observed;
  const auto check_chunk = [&] {
    const std::vector<ScenarioResult> results =
        reference.run_batch(std::span<const Scenario>{chunk});
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      const ScenarioResult& r = results[k];
      const std::uint64_t fresh = text_digest(arsf::scenario::to_json(0, r));
      const std::uint64_t hit =
          text_digest(arsf::scenario::to_json(0, arsf::scenario::cache_hit_frame(r, r.scenario)));
      const Observed& o = *observed[k];
      for (std::size_t s = 0; s < 2; ++s) {
        if (o.count[s] != 0 && (!r.ok() || (o.digest[s] != fresh && o.digest[s] != hit))) {
          wrong += o.count[s];
        }
      }
      wrong += o.other;
      if (seen++ % stride == 0 && samples_.size() < samples && r.ok()) {
        samples_.push_back({chunk[k], r});
      }
    }
    chunk.clear();
    observed.clear();
  };
  for (unsigned c = 1; c < kConnections; ++c) {
    for (std::uint32_t e = 0; e < observed_[c].size(); ++e) {
      const Observed& o = observed_[c][e];
      if (o.total() == 0) continue;
      chunk.push_back(streams_[c - 1].scenario(e));
      observed.push_back(&o);
      classes.insert(arsf::scenario::cache_key(chunk.back()).fingerprint);
      requests += o.total();
      if (chunk.size() == kReferenceChunk) check_chunk();
    }
  }
  if (!chunk.empty()) check_chunk();
  repeat_share_ = requests == 0 ? 0.0
                                : 1.0 - static_cast<double>(classes.size()) /
                                            static_cast<double>(requests);

  // Hog: every result frame, in order, and the done frame's counts.
  std::vector<Scenario> scenarios;
  std::vector<const HogAnswer*> scenario_answers;
  for (const HogAnswer& answer : hog_answers_) {
    if (!answer.done_ok) {
      ++wrong;
      continue;
    }
    if (!answer.item.sweep) {
      scenarios.push_back(Scenario::from_json(answer.item.json));
      scenario_answers.push_back(&answer);
      continue;
    }
    CollectingSink sink;
    arsf::scenario::run_sweep(SweepSpec::from_json(answer.item.json), reference, sink);
    if (!frames_match(sink.results(), answer.digests)) ++wrong;
  }
  const std::vector<ScenarioResult> results =
      reference.run_batch(std::span<const Scenario>{scenarios});
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    if (!frames_match({results[k]}, scenario_answers[k]->digests)) ++wrong;
  }
  return wrong;
}

// ---- layer probes ---------------------------------------------------------------

/// Times, from outside and on the run's own requests, the public calls an
/// interactive request makes in the daemon, and a pass's heavy requests;
/// then splits each traced request's latency into those calls and the rest.
void probe_requests(const LoadDriver& driver, std::uint64_t seed, std::size_t hog_count,
                    Trace& trace, Outcome& outcome) {
  const std::int64_t root = trace.open("probe.serve");
  ResultCache cache{kCacheBytes};
  for (const LoadDriver::Sample& sample : driver.samples()) {
    cache.insert(arsf::scenario::cache_key(sample.scenario), sample.reference);
  }
  RunnerOptions serial_options;
  serial_options.num_threads = 1;
  const Runner serial{serial_options};
  std::vector<double> parse_us;
  std::vector<double> lookup_us;
  std::vector<double> run_us;
  std::vector<double> frame_us;
  std::uint64_t wrong = 0;
  std::size_t k = 0;
  for (const LoadDriver::Sample& sample : driver.samples()) {
    const std::string id = "probe-" + std::to_string(k++);
    const std::string json = sample.scenario.to_json();
    const std::string line = "{\"request_id\":\"" + id + "\"," + json.substr(1);

    Clock::time_point start = Clock::now();
    arsf::serve::Request request = arsf::serve::parse_request(line);
    Clock::time_point end = Clock::now();
    trace.add("serve.protocol.parse_request", start, end, root, id);
    parse_us.push_back(seconds_between(start, end) * 1e6);

    start = Clock::now();
    const std::optional<ScenarioResult> hit =
        cache.lookup(arsf::scenario::cache_key(request.scenario));
    end = Clock::now();
    trace.add("scenario.result_cache.lookup", start, end, root, id);
    lookup_us.push_back(seconds_between(start, end) * 1e6);

    request.scenario.num_threads = 1;
    start = Clock::now();
    const ScenarioResult fresh = serial.run(request.scenario);
    end = Clock::now();
    trace.add("scenario.runner.run", start, end, root, id);
    run_us.push_back(seconds_between(start, end) * 1e6);

    start = Clock::now();
    const std::string frame = arsf::serve::result_frame(id, 0, fresh);
    const std::string done = arsf::serve::done_frame(id, 1, 0);
    end = Clock::now();
    trace.add("serve.protocol.frames", start, end, root, id);
    frame_us.push_back(seconds_between(start, end) * 1e6);

    if (!hit || answer_digest(fresh) != answer_digest(sample.reference) || frame.empty() ||
        done.empty()) {
      ++wrong;
    }
  }
  outcome.count(driver.samples().size(), wrong);

  std::vector<double> cost_us;
  std::vector<double> hog_ms;
  std::uint64_t hog_wrong = 0;
  const std::vector<HogItem> items = hog_list(seed, 0, hog_count);
  for (const HogItem& item : items) {
    const std::string line = "{\"request_id\":\"" + item.id + "\"," + item.json.substr(1);
    arsf::serve::Request request = arsf::serve::parse_request(line);
    Clock::time_point start = Clock::now();
    const std::uint64_t cost = arsf::serve::request_cost(request);
    Clock::time_point end = Clock::now();
    trace.add("serve.protocol.request_cost", start, end, root, item.id);
    cost_us.push_back(seconds_between(start, end) * 1e6);

    // As the daemon runs it: one serial lane, a cache shared by its points.
    ResultCache request_cache{kCacheBytes};
    RunnerOptions hog_options;
    hog_options.num_threads = 1;
    hog_options.cache = &request_cache;
    const Runner hog_runner{hog_options};
    std::size_t results = 0;
    start = Clock::now();
    if (request.is_sweep) {
      request.sweep.base.num_threads = 1;
      CollectingSink sink;
      arsf::scenario::run_sweep(request.sweep, hog_runner, sink);
      results = sink.results().size();
    } else {
      request.scenario.num_threads = 1;
      results = hog_runner.run(request.scenario).ok() ? 1 : 0;
    }
    end = Clock::now();
    trace.add("scenario.runner.hog_run", start, end, root, item.id);
    hog_ms.push_back(seconds_between(start, end) * 1e3);
    if (cost == 0 || results != item.results) ++hog_wrong;
  }
  outcome.count(items.size(), hog_wrong);
  trace.close(root);

  const double parse = mean(parse_us);
  const double lookup = mean(lookup_us);
  const double run = mean(run_us);
  const double frame = mean(frame_us);
  std::vector<double> waits;
  for (const TracedSample& sample : driver.traced()) {
    waits.push_back(sample.latency_us - parse - lookup - frame - (sample.from_cache ? 0.0 : run));
  }
  outcome.metrics["serve.protocol.parse_us"] = parse;
  outcome.metrics["scenario.result_cache.lookup_us"] = lookup;
  outcome.metrics["scenario.runner.run_us"] = run;
  outcome.metrics["serve.protocol.frame_us"] = frame;
  outcome.metrics["serve.protocol.request_cost_us"] = mean(cost_us);
  outcome.metrics["scenario.runner.hog_run_ms"] = mean(hog_ms);
  outcome.metrics["serve.server.wait_us"] = median(waits);
  outcome.metrics["serve.server.wait_p99_us"] = quantile(waits, 0.99);
  outcome.note(strprintf("serve: heavy request %.3f ms vs interactive run %.1f us (%.0fx); "
                         "%zu traced requests decomposed",
                         mean(hog_ms), run, run > 0.0 ? mean(hog_ms) * 1e3 / run : 0.0,
                         waits.size()));
}

/// What a durable daemon (`--state-dir`) adds per request, measured
/// uncontended on a scratch state directory with the run's own requests:
/// the journal transitions, the frame spool, the state's growth, and a
/// restart's replay + compaction of that state.
void probe_journal(const std::string& dir, const std::vector<LoadDriver::Sample>& samples,
                   std::size_t count, Trace& trace, Outcome& outcome) {
  const std::int64_t root = trace.open("probe.journal");
  std::vector<double> record_us;
  std::vector<double> frame_us;
  arsf::serve::Journal journal{dir};
  (void)journal.open();
  const std::size_t requests = std::min(count, samples.size());
  for (std::size_t k = 0; k < requests; ++k) {
    const std::string id = "journal-probe-" + std::to_string(k);
    const std::string json = samples[k].scenario.to_json();
    const std::string line = "{\"request_id\":\"" + id + "\"," + json.substr(1);
    const std::string frame = arsf::serve::result_frame(id, 0, samples[k].reference);
    const std::string done = arsf::serve::done_frame(id, 1, 0);
    const Clock::time_point t0 = Clock::now();
    journal.record_accepted(id, "socket", line);
    journal.record_state(id, arsf::serve::JournalState::kRunning);
    const Clock::time_point t1 = Clock::now();
    journal.append_frame(id, frame);
    journal.append_frame(id, done);
    journal.sync_frames(id);
    const Clock::time_point t2 = Clock::now();
    journal.record_state(id, arsf::serve::JournalState::kDone, 1, 0);
    journal.close_frames(id);
    const Clock::time_point t3 = Clock::now();
    trace.add("serve.journal.record", t0, t1, root, id);
    trace.add("serve.journal.frame_sync", t1, t2, root, id);
    trace.add("serve.journal.record", t2, t3, root, id);
    record_us.push_back((seconds_between(t0, t1) + seconds_between(t2, t3)) * 1e6);
    frame_us.push_back(seconds_between(t1, t2) * 1e6);
  }
  const double state_bytes = static_cast<double>(tree_bytes(dir));

  const Clock::time_point start = Clock::now();
  arsf::serve::Journal replay{dir};
  (void)replay.open();
  const Clock::time_point end = Clock::now();
  trace.add("serve.journal.open", start, end, root);
  trace.close(root);
  outcome.metrics["serve.journal.record_us"] = mean(record_us);
  outcome.metrics["serve.journal.frame_sync_us"] = mean(frame_us);
  outcome.metrics["serve.journal.bytes_per_req"] =
      requests == 0 ? 0.0 : state_bytes / static_cast<double>(requests);
  outcome.metrics["serve.journal.open_ms"] = seconds_between(start, end) * 1e3;
}

ServeOptions serve_options(const std::string& socket_path) {
  ServeOptions options;  // everything else at arsf_serve's defaults
  options.socket_path = socket_path;
  options.workers = 0;
  options.cache_bytes = kCacheBytes;
  return options;
}

/// Makes the scratch directory the working directory while the daemon runs,
/// so its socket gets a short relative path: sockaddr_un holds ~108 bytes
/// and the checkout's absolute path need not fit.
class WorkingDirectory {
 public:
  explicit WorkingDirectory(const std::string& dir) : previous_(fs::current_path()) {
    fs::current_path(dir);
  }
  ~WorkingDirectory() {
    std::error_code ec;
    fs::current_path(previous_, ec);
  }
  WorkingDirectory(const WorkingDirectory&) = delete;
  WorkingDirectory& operator=(const WorkingDirectory&) = delete;

 private:
  fs::path previous_;
};

}  // namespace

Outcome run_serve(const Options& options, Trace& trace) {
  Outcome outcome;
  const Sizes size = sizes(options.tiny);
  const std::string label = "serve-mixed";
  const WorkingDirectory cwd{options.work_dir};
  LoadDriver driver{options.seed, trace};
  LoadDriver spare_client{options.seed, trace};
  std::unique_ptr<Server> server;

  // One set-up: a Server constructed and start()ed, then four connects.  The
  // first is the daemon the run drives; the later ones start a spare daemon
  // on a socket of its own while the first one idles between segments.
  std::vector<double> setup_s;
  std::vector<double> start_ms;
  const auto set_up = [&](std::unique_ptr<Server>& daemon, LoadDriver& client,
                          const std::string& socket_path) {
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<Server>(serve_options(socket_path));
    daemon->start();
    const Clock::time_point started = Clock::now();
    client.connect(socket_path);
    setup_s.push_back(seconds_between(start, Clock::now()));
    start_ms.push_back(seconds_between(start, started) * 1e3);
  };
  const auto setup_round = [&] {
    for (int k = 0; k < size.setup_round; ++k) {
      if (!server) {
        set_up(server, driver, "serve.sock");
        continue;
      }
      std::unique_ptr<Server> spare;
      set_up(spare, spare_client, "spare.sock");
      spare_client.disconnect();
      spare->stop();
    }
  };

  // The timed passes run in segments of about kSegmentSeconds, with a round
  // of set-ups after each; the warm-up pass opens the first segment.
  bool warm_pending = true;
  bool finished = false;
  std::uint64_t timed = 0;
  bool have_plain = false;
  bool have_traced = false;
  Clock::time_point timed_start;
  Clock::time_point segment_start;
  const std::function<std::optional<PassPlan>()> next_pass = [&]() -> std::optional<PassPlan> {
    if (warm_pending) {
      warm_pending = false;
      return PassPlan{hog_list(options.seed, kWarmPass, size.hog_warm), false, false};
    }
    const Clock::time_point now = Clock::now();
    if (timed == 0) timed_start = segment_start = now;
    finished = timed > 0 && seconds_between(timed_start, now) >= options.seconds &&
               have_plain && (!options.trace || have_traced);
    if (finished || (timed > 0 && seconds_between(segment_start, now) >= kSegmentSeconds)) {
      return std::nullopt;
    }
    const bool traced = options.trace && timed % 2 == 1;
    (traced ? have_traced : have_plain) = true;
    return PassPlan{hog_list(options.seed, timed++, size.hog_per_pass), true, traced};
  };

  setup_round();
  while (!finished) {
    driver.run(next_pass);
    setup_round();
    segment_start = Clock::now();
  }
  driver.disconnect();
  server->stop();
  const arsf::serve::ServeStats stats = server->stats();
  const arsf::scenario::CacheStats cache = server->cache()->stats();

  // A request is one interactive request, a heavy request one on the hog.
  std::vector<PassFigures> figures;
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> cpu;
  for (const PassStat& pass : driver.passes()) {
    if (!pass.timed) continue;
    if (pass.traced) {
      traced_walls.push_back(pass.wall_s);
      continue;
    }
    figures.push_back({pass.wall_s, static_cast<double>(pass.interactive),
                       static_cast<double>(pass.hog), pass.latencies_ms});
    walls.push_back(pass.wall_s);
    cpu.push_back(pass.cpu_s);
  }
  report_passes(label, figures, outcome);
  report_setup(label, setup_s, outcome);
  outcome.metrics["process.cpu_s"] = median(cpu);

  const std::uint64_t wrong = driver.verify(size.probe_samples);
  outcome.count(driver.completed(), wrong);
  outcome.note(strprintf("%s: interactive requests repeating a canonical class: %.4f",
                         label.c_str(), driver.repeat_share()));

  if (options.trace) {
    trace.set_recording(true);
    probe_requests(driver, options.seed, size.hog_per_pass, trace, outcome);
    probe_journal(options.work_dir + "/journal-probe", driver.samples(), size.journal_probe,
                  trace, outcome);
    trace.set_recording(false);
    outcome.metrics["serve.server.requests_completed"] =
        static_cast<double>(stats.requests_completed);
    outcome.metrics["serve.server.requests_rejected"] =
        static_cast<double>(stats.requests_rejected);
    outcome.metrics["serve.server.frames_written"] = static_cast<double>(stats.frames_written);
    outcome.metrics["serve.server.start_ms"] = median(start_ms);
    outcome.metrics["scenario.result_cache.fresh_evals"] = static_cast<double>(cache.misses);
    outcome.metrics["scenario.result_cache.hits"] = static_cast<double>(cache.hits);
    outcome.metrics["scenario.result_cache.inserts"] = static_cast<double>(cache.inserts);
    outcome.metrics["scenario.result_cache.entries"] = static_cast<double>(cache.entries);
    outcome.metrics["scenario.result_cache.bytes"] = static_cast<double>(cache.bytes);
    const std::uint64_t lookups = cache.hits + cache.misses;
    outcome.metrics["scenario.result_cache.hit_ratio"] =
        lookups == 0 ? 0.0 : static_cast<double>(cache.hits) / static_cast<double>(lookups);
    outcome.metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls);
  }
  outcome.metrics["peak_rss_mb"] = peak_rss_mb();
  return outcome;
}

}  // namespace perfbench
