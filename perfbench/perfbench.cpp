// perfbench: the in-process half of the end-to-end benchmark.
// perfbench/run.py builds this binary from the repository's sources and
// drives it; every subcommand prints one JSON object as the last line of
// stdout.
//
//   sweep --axes=SPEC [--records=N] --threads=T [--trace=FILE] [--flip-byte]
//     One cold one-shot sweep, the path `easyc_cli --sweep` takes: a fresh
//     AssessmentServer, one AssessmentServer::execute, then destruction.
//     Reports set-up, execute and teardown times and the payload digest.
//     With --trace it also records spans around each call into a layer
//     and replays the sweep layer by layer (expansion, engine blocks,
//     reduction, render) on a fresh engine.
//
//   prep --snapshot=FILE --threads=T
//     Untimed preparation for `serve`: runs every request the interactive
//     mix repeats and saves the cache snapshot the daemon warm-starts from.
//
//   setup --snapshot=FILE --threads=T
//     One daemon set-up (construction + warm start + listen) in a fresh
//     process; prints its time.
//
//   serve --seed=S --seconds=X --threads=T --snapshot=FILE [--trace=FILE]
//         [--flip-byte]
//     One daemon on loopback TCP under mixed load (three open-loop
//     interactive connections, one closed-loop bulk connection), then the
//     correctness oracle: a single-thread in-process replay of every
//     distinct request line, whose payloads every reply must match.
//
// --flip-byte corrupts one received payload byte, so the oracle must fail;
// perfbench/test_run.py checks that it does.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/scenario.hpp"
#include "analysis/sweep.hpp"
#include "analysis/turnover.hpp"
#include "parallel/thread_pool.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "top500/generator.hpp"
#include "top500/history.hpp"

namespace {

using namespace easyc;

// ---------------------------------------------------------------------
// Workload constants. The serve mix is documented in perfbench/NOTES.md.
// No traffic sample of the daemon exists, so the rates and shares below
// are assumptions (NOTES.md says what each one rests on); they are fixed
// so that every version of the code is offered the same load.

/// Interactive connections and their fixed open-loop rates (requests/s).
constexpr int kPingConn = 0;
constexpr int kAssessConn = 1;
constexpr int kAnalysisConn = 2;
constexpr std::array<double, 3> kRates = {60.0, 90.0, 6.0};
/// Share of the assess connection that is a cold `set=aci=<fresh>`.
constexpr double kColdAssessShare = 0.1;
/// Share of the analysis connection that is turnover (rest: small sweeps).
constexpr double kTurnoverShare = 0.6;
/// `turnover editions=24` and above fails in the history generator
/// ("operation year out of range"), although the protocol accepts up
/// to 64, so the mix stays within 2..23.
constexpr int kMinEditions = 2;
constexpr int kMaxEditions = 23;
/// Monte-Carlo draws per bulk sweep (cells = draws + the base cell).
constexpr int kBulkDraws = 127;
/// Resident cache bound of the daemon: about two bulk sweeps, so LRU
/// eviction runs all the time and competes with the warm set.
constexpr size_t kCacheCapacity = 150000;
/// Phase shares of --seconds: the nominal phase, then the rate ladder.
constexpr double kNominalShare = 0.75;
constexpr std::array<double, 4> kLadder = {1.5, 2.0, 2.5, 3.0};
/// serve_max_rps: a ladder step passes when its interactive tail stays
/// within this limit.
constexpr double kLatencyLimitMs = 100.0;
/// Open-loop integrity: a run whose generator sent its nominal-phase
/// requests later than this (p99) is invalid, not slow.
constexpr double kLatenessLimitMs = 20.0;

const std::vector<std::string>& warm_assess_lines() {
  static const std::vector<std::string> kLines = {
      "assess",
      "assess scenario=baseline",
      "assess scenario=full-knowledge",
      "assess scenario=whatif/renewables-grid",
      "assess scenario=whatif/extended-lifetime",
      "assess scenario=whatif/no-accelerator-approximation",
      "assess set=aci=150;util=0.75",
      "assess set=pue=1.2",
      "assess scenario=baseline set=aci=300",
      "assess set=util=0.6;life=5",
  };
  return kLines;
}

const std::vector<std::string>& small_sweep_lines() {
  static const std::vector<std::string> kLines = {
      "sweep axes=util=0.5:0.95:4;life=4,6,8 records=100",
      "sweep axes=aci=25,100,300;pue=1.1,1.3 records=100",
      "sweep axes=pue=1.1:1.6:4;life=4,6 records=100",
  };
  return kLines;
}

// ---------------------------------------------------------------------
// Small utilities

using Clock = std::chrono::steady_clock;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double to_ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double to_s(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// The highest of p99/p95/p90 with at least ten samples beyond it (p50
/// otherwise), so a tail is never read off a handful of samples.
std::pair<std::string, double> tail(const std::vector<double>& v) {
  static constexpr std::array<std::pair<const char*, double>, 3> kTails{
      {{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}}};
  for (const auto& [name, q] : kTails) {
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0) {
      return {name, percentile(v, q)};
    }
  }
  return {"p50", percentile(v, 0.5)};
}

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// A /proc/self/status field in MB (VmRSS: resident now, VmHWM: peak).
double proc_status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Median wall time of one call of `fn` over `reps` calls, microseconds.
template <typename Fn>
double median_call_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = now_ns();
    fn();
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return percentile(us, 0.5);
}

/// Flat JSON object writer (numbers, strings, nested raw objects).
class Json {
 public:
  Json& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  Json& count(std::string_view key, uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(std::string_view key, std::string_view v) {
    return raw(key, quote(v));
  }
  Json& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(std::string_view key, std::string_view value) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += value;
    return *this;
  }
  std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// `--key=value` / `--flag` arguments after the subcommand.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string_view a = argv[i];
      if (a.substr(0, 2) != "--") {
        throw std::runtime_error("unexpected argument '" + std::string(a) +
                                 "'");
      }
      const size_t eq = a.find('=');
      if (eq == std::string_view::npos) {
        values_[std::string(a.substr(2))] = "";
      } else {
        values_[std::string(a.substr(2, eq - 2))] =
            std::string(a.substr(eq + 1));
      }
    }
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::runtime_error("missing --" + key);
    }
    return it->second;
  }
  long long integer(const std::string& key, long long fallback) const {
    return has(key) ? std::stoll(get(key)) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------
// Tracing: spans recorded from outside the program, around the calls
// into each layer. A span has a name "<layer>/<operation>", start, end,
// parent span, and the request id shared by the spans of one request.
// Spans stay in memory and are written out at exit.

constexpr std::string_view kBlockSpan = "analysis.sweep/block";

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int add(std::string name, int64_t start, int64_t end, int parent = -1,
          uint64_t request = 0) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  int open(std::string name, int parent = -1, uint64_t request = 0) {
    return add(std::move(name), now_ns(), 0, parent, request);
  }
  void close(int span) {
    if (span < 0) return;
    const int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span)].end = t;
  }

  /// Self time per layer (the span name before '/'): each span's
  /// duration minus the part of its interval its child spans cover.
  std::map<std::string, double> self_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      // Block spans only mark when a block's cells reached the sink: they
      // take their time out of the enclosing execute span, but the work
      // inside a block is attributed by the layer replay, not twice.
      if (s.name == kBlockSpan) continue;
      std::vector<std::pair<int64_t, int64_t>> covered;
      for (const size_t c : children[i]) {
        const int64_t a = std::max(s.start, spans_[c].start);
        const int64_t b = std::min(s.end, spans_[c].end);
        if (b > a) covered.emplace_back(a, b);
      }
      std::sort(covered.begin(), covered.end());
      int64_t union_ns = 0;
      int64_t reach = s.start;
      for (const auto& [a, b] : covered) {
        const int64_t from = std::max(a, reach);
        if (b > from) union_ns += b - from;
        reach = std::max(reach, b);
      }
      out[s.name.substr(0, s.name.find('/'))] +=
          to_ms(s.end - s.start - union_ns);
    }
    return out;
  }

  void write(const std::string& path, const std::string& ledger) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"id\": " << i
          << ", \"name\": " << Json::quote(s.name)
          << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}";
    }
    out << "\n],\n\"ledger\": " << ledger << "}\n";
  }

 private:
  struct Span {
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    int parent = -1;
    uint64_t request = 0;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Timing sink: the sweep engine emits a block's cells together once the
/// block is assessed, so the arrival of each block's first cell marks the
/// block boundary as seen from outside the engine.
class BlockClock : public analysis::SweepCellSink {
 public:
  explicit BlockClock(size_t block_cells) : block_cells_(block_cells) {}
  void cell(size_t, size_t index, const analysis::SweepCell&) override {
    if (index % block_cells_ == 0) arrivals_.push_back(now_ns());
  }
  /// Gaps between block arrivals, the first measured from `start`.
  std::vector<double> gaps_ms(int64_t start) const {
    std::vector<double> out;
    for (const int64_t t : arrivals_) {
      out.push_back(to_ms(t - start));
      start = t;
    }
    return out;
  }
  const std::vector<int64_t>& arrivals() const { return arrivals_; }

 private:
  size_t block_cells_;
  std::vector<int64_t> arrivals_;
};

constexpr size_t kSweepBlock = analysis::SweepEngine::Options{}.batch_size;

std::vector<top500::SystemRecord> first_records(size_t limit) {
  std::vector<top500::SystemRecord> records = top500::generate_records();
  if (limit != 0 && limit < records.size()) {
    records.erase(records.begin() + static_cast<long>(limit), records.end());
  }
  return records;
}

/// Per-layer numbers of one sweep replayed on a fresh engine.
struct SweepLayers {
  std::vector<double> block_ms;  ///< AssessmentEngine::assess per block
  double expand_ms = 0.0;        ///< SweepExpansion + block ScenarioSets
  double reduce_ms = 0.0;        ///< SweepReduction::add
  double render_ms = 0.0;        ///< render_sweep_report
  std::string payload;
};

/// Re-run one sweep on a fresh engine (same records, spec, block size and
/// thread count as the server's), with a span around each call into a
/// layer. The render is timed on a second, warm run of the same sweep,
/// whose report it needs.
SweepLayers replay_sweep(Tracer& tracer,
                         const std::vector<top500::SystemRecord>& records,
                         const analysis::SweepSpec& spec, unsigned threads,
                         uint64_t request) {
  par::ThreadPool pool(threads);
  analysis::AssessmentEngine::Options engine_options;
  engine_options.pool = &pool;
  analysis::AssessmentEngine engine(engine_options);
  SweepLayers out;

  const int root = tracer.open("replay/sweep", -1, request);
  const int64_t e0 = now_ns();
  const analysis::SweepExpansion expansion(spec);
  const int64_t e1 = now_ns();
  tracer.add("analysis.sweep/expand", e0, e1, root, request);
  out.expand_ms += to_ms(e1 - e0);
  analysis::SweepReduction reduction(expansion.size() >=
                                     analysis::kStreamingStatsThreshold);
  for (size_t start = 0; start < expansion.size(); start += kSweepBlock) {
    const size_t end = std::min(start + kSweepBlock, expansion.size());
    const int64_t t0 = now_ns();
    analysis::ScenarioSet batch;
    for (size_t i = start; i < end; ++i) batch.add(expansion.cell(i));
    const int64_t t1 = now_ns();
    const analysis::EditionAssessment assessed = engine.assess(records, batch);
    const int64_t t2 = now_ns();
    std::vector<analysis::SweepCell> cells;
    cells.reserve(assessed.scenarios.size());
    for (const auto& r : assessed.scenarios) {
      cells.push_back(analysis::make_sweep_cell(r));
    }
    const int64_t t3 = now_ns();
    for (const auto& c : cells) reduction.add(c);
    const int64_t t4 = now_ns();
    tracer.add("analysis.sweep/expand", t0, t1, root, request);
    tracer.add("analysis.engine/assess", t1, t2, root, request);
    tracer.add("analysis.sweep/reduce", t3, t4, root, request);
    out.expand_ms += to_ms(t1 - t0);
    out.block_ms.push_back(to_ms(t2 - t1));
    out.reduce_ms += to_ms(t4 - t3);
  }
  tracer.close(root);

  analysis::SweepEngine::Options sweep_options;
  sweep_options.engine = &engine;
  sweep_options.retain_cells = false;
  analysis::SweepEngine sweep(sweep_options);
  const analysis::SweepReport report = sweep.run(records, spec);
  const int64_t r0 = now_ns();
  out.payload = analysis::render_sweep_report(report);
  const int64_t r1 = now_ns();
  tracer.add("analysis.sweep/render", r0, r1, -1, request);
  out.render_ms = to_ms(r1 - r0);
  return out;
}

/// Median generate_records() time: the top500 layer every server
/// construction pays.
double records_ms(Tracer& tracer) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = now_ns();
    const auto records = top500::generate_records();
    const int64_t t1 = now_ns();
    tracer.add("top500/generate_records", t0, t1);
    if (records.empty()) throw std::runtime_error("no records generated");
    ms.push_back(to_ms(t1 - t0));
  }
  return percentile(ms, 0.5);
}

void add_cache_layers(Json& j, const par::CacheStats& d) {
  j.count("parallel.cache.lookups", d.lookups())
      .count("parallel.cache.hits", d.hits)
      .count("parallel.cache.misses", d.misses)
      .num("parallel.cache.hit_ratio", d.hit_rate())
      .count("parallel.cache.entries", d.entries)
      .count("parallel.cache.evictions", d.evictions);
}

void add_batch_layers(Json& j, const model::BatchStats& after,
                      const model::BatchStats& before, uint64_t misses) {
  const size_t lanes = after.lanes - before.lanes;
  const size_t profiles = after.profiles - before.profiles;
  j.count("easyc.batch.lanes", lanes)
      .count("easyc.batch.profiles", profiles)
      .num("easyc.batch.lanes_per_profile",
           profiles == 0 ? 0.0
                         : static_cast<double>(lanes) /
                               static_cast<double>(profiles))
      .count("easyc.batch.aci_db_queries",
             after.aci_db_queries - before.aci_db_queries)
      .count("easyc.batch.aci_hoisted", after.aci_hoisted - before.aci_hoisted)
      .count("easyc.model.scalar_fills", misses > lanes ? misses - lanes : 0);
}

void add_sweep_layers(Json& j, const SweepLayers& s,
                      const std::vector<double>& gaps) {
  double assess = 0.0;
  for (const double b : s.block_ms) assess += b;
  j.num("analysis.engine.block_ms.p50", percentile(s.block_ms, 0.5))
      .num("analysis.engine.block_ms.max", max_of(s.block_ms))
      .num("analysis.engine.assess_ms", assess)
      .count("analysis.sweep.blocks", gaps.size())
      .num("analysis.sweep.block_gap_ms.p50", percentile(gaps, 0.5))
      .num("analysis.sweep.block_gap_ms.max", max_of(gaps))
      .num("analysis.sweep.expand_ms", s.expand_ms)
      .num("analysis.sweep.reduce_ms", s.reduce_ms)
      .num("analysis.sweep.render_ms", s.render_ms);
}

void add_self_times(Json& j, const Tracer& tracer) {
  for (const auto& [layer, ms] : tracer.self_ms()) {
    j.num("self_ms." + layer, ms);
  }
}

// ---------------------------------------------------------------------
// sweep: one cold one-shot repetition.

int cmd_sweep(const Args& args) {
  const std::string axes = args.get("axes");
  const auto records_limit = static_cast<size_t>(args.integer("records", 0));
  const auto threads = static_cast<unsigned>(args.integer("threads", 1));
  Tracer tracer(args.has("trace"));

  std::string line = "sweep axes=" + axes;
  if (records_limit != 0) line += " records=" + std::to_string(records_limit);
  const service::Request request = service::parse_request(line);
  const size_t cells = analysis::SweepSpec::parse(axes).total_cells();

  const int64_t t0 = now_ns();
  service::ServerOptions options;
  options.threads = threads;
  auto server = std::make_unique<service::AssessmentServer>(options);
  const int64_t t1 = now_ns();
  const par::CacheStats cache0 = server->engine().cache_stats();
  const model::BatchStats batch0 = server->engine().batch_stats();
  BlockClock clock(kSweepBlock);
  const int64_t t2 = now_ns();
  service::Reply reply =
      server->execute(request, tracer.enabled() ? &clock : nullptr);
  const int64_t t3 = now_ns();
  const par::CacheStats cache = server->engine().cache_stats().since(cache0);
  const model::BatchStats batch1 = server->engine().batch_stats();
  const double rss_served = proc_status_mb("VmRSS:");
  const int64_t t4 = now_ns();
  server.reset();
  const int64_t t5 = now_ns();

  if (args.has("flip-byte") && !reply.payload.empty()) {
    reply.payload[reply.payload.size() / 2] ^= 0x01;
  }
  Json out;
  out.num("setup_s", to_s(t1 - t0))
      .num("exec_s", to_s(t3 - t2))
      .num("teardown_s", to_s(t5 - t4))
      .count("cells", cells)
      .flag("ok", reply.ok)
      .str("digest", hex64(fnv1a(reply.payload)))
      .count("payload_bytes", reply.payload.size())
      .num("peak_rss_mb", proc_status_mb("VmHWM:"))
      .count("threads", threads);

  if (tracer.enabled()) {
    const int exec = tracer.add("service.server/execute", t2, t3, -1, 1);
    const std::vector<double> gaps = clock.gaps_ms(t2);
    int64_t from = t2;
    for (const int64_t t : clock.arrivals()) {
      tracer.add(std::string(kBlockSpan), from, t, exec, 1);
      from = t;
    }
    tracer.add("service.server/setup", t0, t1);
    tracer.add("parallel.cache/teardown", t4, t5);
    const double rss_teardown = proc_status_mb("VmRSS:");

    Json layers;
    layers.num("top500.records_ms", records_ms(tracer));
    add_cache_layers(layers, cache);
    layers.num("parallel.cache.teardown_ms", to_ms(t5 - t4));
    add_batch_layers(layers, batch1, batch0, cache.misses);

    std::vector<top500::SystemRecord> records = first_records(records_limit);
    const analysis::SweepSpec spec = analysis::SweepSpec::parse(
        axes, service::default_scenarios().at(
                  analysis::scenarios::kEnhancedName));
    const SweepLayers replay = replay_sweep(tracer, records, spec, threads, 2);
    add_sweep_layers(layers, replay, gaps);
    const double rss_replay = proc_status_mb("VmRSS:");

    const int64_t q0 = now_ns();
    const double parse_us =
        median_call_us(200, [&] { (void)service::parse_request(line); });
    const int64_t q1 = now_ns();
    std::string frame;
    const double frame_us =
        median_call_us(50, [&] { frame = service::frame_reply(reply); });
    tracer.add("service.protocol/parse", q0, q1);
    tracer.add("service.protocol/frame", q1, now_ns());
    layers.num("service.protocol.parse_us", parse_us)
        .num("service.protocol.frame_us", frame_us)
        .count("service.protocol.reply_bytes", frame.size())
        .num("service.exec_ms.p50", to_ms(t3 - t2))
        .num("service.exec_ms.p99", to_ms(t3 - t2))
        .count("service.requests", 1)
        .count("service.errors", reply.ok ? 0 : 1)
        .num("process.rss_mb", rss_served);
    add_self_times(layers, tracer);
    Json ledger;
    ledger.num("process.rss_mb.served", rss_served)
        .num("process.rss_mb.after_teardown", rss_teardown)
        .num("process.rss_mb.after_replay", rss_replay)
        .flag("replay_payload_matches", replay.payload == reply.payload);
    out.raw("layers", layers.done()).raw("ledger", ledger.done());
    tracer.write(args.get("trace"), ledger.done());
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// prep: the snapshot the daemon warm-starts from.

std::vector<std::string> repeated_lines() {
  std::vector<std::string> lines = warm_assess_lines();
  for (int e = kMinEditions; e <= kMaxEditions; ++e) {
    lines.push_back("turnover editions=" + std::to_string(e));
  }
  for (const std::string& s : small_sweep_lines()) lines.push_back(s);
  return lines;
}

service::ServerOptions daemon_options(unsigned threads,
                                      const std::string& snapshot) {
  service::ServerOptions options;
  options.threads = threads;
  options.cache_file = snapshot;
  options.cache_capacity = kCacheCapacity;
  return options;
}

int cmd_prep(const Args& args) {
  const std::string snapshot = args.get("snapshot");
  std::filesystem::remove(snapshot);
  service::AssessmentServer server(daemon_options(
      static_cast<unsigned>(args.integer("threads", 1)), snapshot));
  for (const std::string& line : repeated_lines()) {
    const service::Reply reply = server.execute_line(line, "prep");
    if (!reply.ok) {
      std::fprintf(stderr, "prep: '%s' failed: %s", line.c_str(),
                   reply.payload.c_str());
      return 1;
    }
  }
  for (const std::string& note : server.save_snapshot()) {
    std::fprintf(stderr, "prep: %s\n", note.c_str());
  }
  Json out;
  out.count("entries", server.engine().cache_stats().entries)
      .count("bytes", std::filesystem::file_size(snapshot));
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// serve: one daemon under mixed load.

/// One interactive request of the open-loop schedule.
struct Slot {
  int conn = 0;
  int phase = 0;      ///< 0 = nominal rate, k = ladder step k
  int64_t due = 0;    ///< when it is due (absolute, ns)
  int64_t sent = -1;  ///< when the generator queued it
  int64_t done = -1;  ///< when its reply frame was complete
  bool ok = false;
  std::string key;    ///< the request line without its id
};

/// Seeded schedule: fixed-interval arrivals per connection (random
/// phase), request content drawn per slot. Offsets are relative to the
/// start of the load.
std::vector<Slot> make_schedule(uint64_t seed, double nominal_s,
                                double step_s) {
  std::mt19937_64 rng(seed);
  const auto unit = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  std::vector<Slot> slots;
  double begin = 0.0;
  for (size_t phase = 0; phase <= kLadder.size(); ++phase) {
    const double mult = phase == 0 ? 1.0 : kLadder[phase - 1];
    const double len = phase == 0 ? nominal_s : step_s;
    for (int conn = 0; conn < 3; ++conn) {
      const double period = 1.0 / (kRates[static_cast<size_t>(conn)] * mult);
      for (double t = begin + unit() * period; t < begin + len; t += period) {
        Slot s;
        s.conn = conn;
        s.phase = static_cast<int>(phase);
        s.due = static_cast<int64_t>(t * 1e9);
        if (conn == kPingConn) {
          s.key = "ping";
        } else if (conn == kAssessConn) {
          if (unit() < kColdAssessShare) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "assess set=aci=%.4f",
                          20.0 + 780.0 * unit());
            s.key = buf;
          } else {
            s.key = warm_assess_lines()[pick(warm_assess_lines().size())];
          }
        } else if (unit() < kTurnoverShare) {
          s.key = "turnover editions=" +
                  std::to_string(kMinEditions +
                                 static_cast<int>(pick(
                                     kMaxEditions - kMinEditions + 1)));
        } else {
          s.key = small_sweep_lines()[pick(small_sweep_lines().size())];
        }
        slots.push_back(std::move(s));
      }
    }
    begin += len;
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.due < b.due; });
  return slots;
}

/// Incremental parser of reply frames on one connection; reports a
/// framing violation instead of guessing.
class FrameReader {
 public:
  struct Frame {
    std::string id;
    bool ok = false;
    std::string payload;
  };

  /// Append received bytes; complete frames go to `out`. False on a
  /// malformed frame.
  bool feed(const char* data, size_t n, std::vector<Frame>& out) {
    buf_.append(data, n);
    size_t pos = 0;
    bool good = true;
    for (;;) {
      if (state_ == State::kPayload) {
        if (buf_.size() - pos < want_) break;
        cur_.payload.assign(buf_, pos, want_);
        pos += want_;
        state_ = State::kTrailer;
        continue;
      }
      const size_t nl = buf_.find('\n', pos);
      if (nl == std::string::npos) break;
      const std::string_view line(buf_.data() + pos, nl - pos);
      pos = nl + 1;
      if (state_ == State::kHeader) {
        if (!parse_header(line)) {
          good = false;
          break;
        }
        state_ = State::kPayload;
      } else if (line.substr(0, 5 + cur_.id.size() + 1) ==
                 "note " + cur_.id + " ") {
        continue;
      } else if (line.substr(0, 6 + cur_.id.size() + 1) ==
                 "stats " + cur_.id + " ") {
        out.push_back(std::move(cur_));
        cur_ = Frame{};
        state_ = State::kHeader;
      } else {
        good = false;
        break;
      }
    }
    buf_.erase(0, pos);
    return good;
  }

 private:
  enum class State { kHeader, kPayload, kTrailer };

  // "reply <id> ok|err <payload-bytes>"
  bool parse_header(std::string_view line) {
    std::vector<std::string_view> tok;
    size_t i = 0;
    while (i <= line.size()) {
      const size_t sp = std::min(line.find(' ', i), line.size());
      tok.push_back(line.substr(i, sp - i));
      i = sp + 1;
    }
    if (tok.size() != 4 || tok[0] != "reply" || tok[1].empty() ||
        (tok[2] != "ok" && tok[2] != "err") || tok[3].empty() ||
        tok[3].size() > 12 ||
        !std::all_of(tok[3].begin(), tok[3].end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      return false;
    }
    cur_ = Frame{std::string(tok[1]), tok[2] == "ok", {}};
    want_ = std::stoull(std::string(tok[3]));
    return true;
  }

  std::string buf_;
  State state_ = State::kHeader;
  Frame cur_;
  size_t want_ = 0;
};

/// Joins a thread on every exit path, exceptions included, after running
/// `stop` so the join cannot wait forever.
class Joiner {
 public:
  Joiner(std::function<void()> stop, std::function<void()> body)
      : stop_(std::move(stop)), thread_(std::move(body)) {}
  ~Joiner() { join(); }
  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

  void join() {
    if (!thread_.joinable()) return;
    stop_();
    thread_.join();
  }

 private:
  std::function<void()> stop_;
  std::thread thread_;
};

/// Acknowledge received data at once. The daemon's sockets keep Nagle's
/// algorithm on, so without this a reply written while the previous one
/// is unacknowledged waits for the client's delayed ACK, and interactive
/// latency reads the request period instead of the server. Linux clears
/// the flag as it goes, so it is set again after every recv.
void quickack(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect() to the daemon failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  quickack(fd);
  return fd;
}

/// Payloads seen per distinct request line (the oracle's input). A
/// repeat whose payload differs from the first is recorded as a mismatch.
class Observed {
 public:
  void add(const std::string& key, bool ok, std::string payload) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = seen_.find(key);
    if (it == seen_.end()) {
      seen_.emplace(key, std::pair{ok, std::move(payload)});
    } else if (it->second.first != ok || it->second.second != payload) {
      ++inconsistent_;
    }
  }
  std::map<std::string, std::pair<bool, std::string>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(seen_);
  }
  size_t inconsistent() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inconsistent_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::pair<bool, std::string>> seen_;
  size_t inconsistent_ = 0;
};

/// One bulk request of the closed-loop connection.
struct BulkRecord {
  std::string key;
  int64_t sent = 0;
  int64_t done = 0;
  bool ok = false;
};

/// Axes of the k-th bulk sweep: a Monte-Carlo seed distinct per run seed
/// and request, so every bulk sweep starts cold.
std::string bulk_axes(uint64_t seed, uint64_t k) {
  return "mc=" + std::to_string(kBulkDraws) + "@" +
         std::to_string(seed * 1000003ULL + k);
}

/// The closed-loop bulk connection: cold seeded Monte-Carlo sweeps back
/// to back until `stop`.
void run_bulk(int fd, uint64_t seed, const std::atomic<bool>& stop,
              std::vector<BulkRecord>& records, Observed& observed,
              bool& framing_ok) {
  FrameReader reader;
  std::vector<FrameReader::Frame> frames;
  char buf[65536];
  for (uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
    BulkRecord r;
    r.key = "sweep axes=" + bulk_axes(seed, k);
    const std::string line = r.key + " id=b" + std::to_string(k) + "\n";
    r.sent = now_ns();
    for (size_t off = 0; off < line.size();) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        framing_ok = false;
        return;
      }
      off += static_cast<size_t>(n);
    }
    frames.clear();
    while (frames.empty()) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      quickack(fd);
      if (n <= 0 || !reader.feed(buf, static_cast<size_t>(n), frames)) {
        framing_ok = false;
        return;
      }
    }
    r.done = now_ns();
    r.ok = frames.front().ok && frames.size() == 1 &&
           frames.front().id == "b" + std::to_string(k);
    if (frames.size() != 1) framing_ok = false;
    observed.add(r.key, frames.front().ok, std::move(frames.front().payload));
    records.push_back(std::move(r));
  }
}

/// The three open-loop interactive connections, driven from one thread:
/// each slot is queued at its due time whatever the replies do, and its
/// latency runs from the due time to the complete reply frame.
struct Interactive {
  std::array<int, 3> fds{};
  bool framing_ok = true;
  bool flip_first = false;

  /// Also raises `bulk_stop` once `bulk_end` has passed.
  void run(std::vector<Slot>& slots, int64_t deadline, Observed& observed,
           Tracer& tracer, int64_t trace_from, std::atomic<bool>& bulk_stop,
           int64_t bulk_end) {
    struct Conn {
      std::string out;
      FrameReader reader;
    };
    std::array<Conn, 3> conns;
    std::unordered_map<std::string, size_t> by_id;
    std::vector<FrameReader::Frame> frames;
    size_t next = 0;
    size_t done = 0;
    char buf[65536];
    while (done < slots.size()) {
      int64_t now = now_ns();
      if (now > deadline) break;
      if (now >= bulk_end) bulk_stop.store(true, std::memory_order_release);
      while (next < slots.size() && slots[next].due <= now) {
        Slot& s = slots[next];
        const std::string id = "i" + std::to_string(next);
        conns[static_cast<size_t>(s.conn)].out += s.key + " id=" + id + "\n";
        s.sent = now;
        by_id.emplace(id, next);
        ++next;
      }
      std::array<pollfd, 3> pfds{};
      for (size_t c = 0; c < 3; ++c) {
        Conn& conn = conns[c];
        while (!conn.out.empty()) {
          const ssize_t n = ::send(fds[c], conn.out.data(), conn.out.size(),
                                   MSG_NOSIGNAL | MSG_DONTWAIT);
          if (n > 0) {
            conn.out.erase(0, static_cast<size_t>(n));
          } else {
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
              framing_ok = false;
              return;
            }
            break;
          }
        }
        pfds[c] = {fds[c],
                   static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
                   0};
      }
      now = now_ns();
      int64_t wait = next < slots.size() ? slots[next].due - now : 50'000'000;
      wait = std::clamp<int64_t>(wait, 0, std::max<int64_t>(0, deadline - now));
      const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                        static_cast<long>(wait % 1'000'000'000)};
      if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 &&
          errno != EINTR) {
        framing_ok = false;
        return;
      }
      for (size_t c = 0; c < 3; ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::recv(fds[c], buf, sizeof(buf), MSG_DONTWAIT);
        quickack(fds[c]);
        if (n == 0) {
          framing_ok = false;
          return;
        }
        if (n < 0) continue;
        frames.clear();
        if (!conns[c].reader.feed(buf, static_cast<size_t>(n), frames)) {
          framing_ok = false;
        }
        const int64_t t = now_ns();
        for (FrameReader::Frame& f : frames) {
          const auto it = by_id.find(f.id);
          if (it == by_id.end() || slots[it->second].done >= 0 ||
              slots[it->second].conn != static_cast<int>(c)) {
            framing_ok = false;
            continue;
          }
          Slot& s = slots[it->second];
          s.done = t;
          s.ok = f.ok;
          ++done;
          if (flip_first && !f.payload.empty()) {
            f.payload[f.payload.size() / 2] ^= 0x01;
            flip_first = false;
          }
          if (tracer.enabled() && s.due >= trace_from) {
            const int span =
                tracer.add("client/request", s.due, t, -1, it->second + 1);
            tracer.add("client/send", s.due, s.sent, span, it->second + 1);
          }
          observed.add(s.key, f.ok, std::move(f.payload));
        }
      }
    }
  }
};

std::vector<double> latencies_ms(const std::vector<Slot>& slots, int phase,
                                 bool ping, int64_t from = 0,
                                 int64_t to = INT64_MAX) {
  std::vector<double> out;
  for (const Slot& s : slots) {
    if (s.phase != phase || (s.conn == kPingConn) != ping || s.done < 0 ||
        s.due < from || s.due >= to) {
      continue;
    }
    out.push_back(to_ms(s.done - s.due));
  }
  return out;
}

/// A daemon ready to serve: construction + warm start + listen.
struct DaemonSetup {
  std::unique_ptr<service::AssessmentServer> server;
  uint16_t port = 0;
  double setup_s = 0.0;
  double restore_ms = 0.0;
};

DaemonSetup set_up_daemon(unsigned threads, const std::string& snapshot,
                          Tracer& tracer) {
  DaemonSetup d;
  const int64_t t0 = now_ns();
  d.server = std::make_unique<service::AssessmentServer>(
      daemon_options(threads, snapshot));
  const int64_t t1 = now_ns();
  const std::vector<std::string> notes = d.server->warm_start();
  const int64_t t2 = now_ns();
  d.port = d.server->listen_tcp(0);
  const int64_t t3 = now_ns();
  const int setup = tracer.add("service.server/setup", t0, t3);
  tracer.add("parallel.cache/restore", t1, t2, setup);
  if (notes.empty() || notes.front().rfind("cache warm-start:", 0) != 0) {
    throw std::runtime_error("daemon warm start failed");
  }
  d.setup_s = to_s(t3 - t0);
  d.restore_ms = to_ms(t2 - t1);
  return d;
}

// ---------------------------------------------------------------------
// setup: one daemon start in a fresh process, the way the daemon starts
// in practice. A second set-up in the same process reuses the memory the
// first one freed and reads up to twice as fast, so run.py times set-up
// across several processes instead.

int cmd_setup(const Args& args) {
  Tracer tracer(false);
  const DaemonSetup d =
      set_up_daemon(static_cast<unsigned>(args.integer("threads", 1)),
                    args.get("snapshot"), tracer);
  Json out;
  out.num("setup_s", d.setup_s).num("restore_ms", d.restore_ms);
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// serve

int cmd_serve(const Args& args) {
  const auto seed = static_cast<uint64_t>(args.integer("seed", 1));
  const double seconds = static_cast<double>(args.integer("seconds", 10));
  const auto threads = static_cast<unsigned>(args.integer("threads", 1));
  const std::string snapshot = args.get("snapshot");
  Tracer tracer(args.has("trace"));

  DaemonSetup daemon = set_up_daemon(threads, snapshot, tracer);
  std::unique_ptr<service::AssessmentServer>& server = daemon.server;
  const uint16_t port = daemon.port;
  const double rss_setup = proc_status_mb("VmRSS:");
  Joiner acceptor([&server] { server->request_shutdown(); },
                  [&server] { server->serve_tcp(); });

  const double nominal_s = seconds * kNominalShare;
  const double step_s =
      seconds * (1.0 - kNominalShare) / static_cast<double>(kLadder.size());
  std::vector<Slot> slots = make_schedule(seed, nominal_s, step_s);

  Interactive interactive;
  interactive.flip_first = args.has("flip-byte");
  for (int& fd : interactive.fds) fd = connect_loopback(port);
  const int bulk_fd = connect_loopback(port);

  Observed observed;
  std::vector<BulkRecord> bulk;
  bool bulk_framing_ok = true;
  std::atomic<bool> bulk_stop{false};
  const par::CacheStats cache0 = server->engine().cache_stats();
  const model::BatchStats batch0 = server->engine().batch_stats();

  // The bulk stream starts half a second ahead so the nominal phase is
  // contended from its first request.
  Joiner bulk_thread(
      [&bulk_stop] { bulk_stop.store(true, std::memory_order_release); },
      [&] {
        run_bulk(bulk_fd, seed, bulk_stop, bulk, observed, bulk_framing_ok);
      });
  const int64_t load0 = now_ns() + 500'000'000;
  for (Slot& s : slots) s.due += load0;
  const int64_t nominal_end = load0 + static_cast<int64_t>(nominal_s * 1e9);
  const int64_t load_end =
      load0 + static_cast<int64_t>(seconds * 1e9);
  // With --trace, client spans are recorded live for the second half of
  // the nominal phase only, so the two halves give the tracing overhead.
  const int64_t trace_from = load0 + (nominal_end - load0) / 2;
  interactive.run(slots, load_end + 60'000'000'000LL, observed, tracer,
                  trace_from, bulk_stop, load_end);
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(load_end)));
  bulk_thread.join();
  const par::CacheStats cache = server->engine().cache_stats().since(cache0);
  const model::BatchStats batch1 = server->engine().batch_stats();
  const double rss_load = proc_status_mb("VmRSS:");

  for (const int fd : interactive.fds) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  ::shutdown(bulk_fd, SHUT_RDWR);
  ::close(bulk_fd);
  acceptor.join();
  const double peak_rss = proc_status_mb("VmHWM:");
  const int64_t d0 = now_ns();
  server.reset();
  const int64_t d1 = now_ns();
  tracer.add("parallel.cache/teardown", d0, d1);
  const double daemon_teardown_ms = to_ms(d1 - d0);

  // Latency and rate figures.
  const std::vector<double> serve_lat = latencies_ms(slots, 0, false);
  const std::vector<double> ping_lat = latencies_ms(slots, 0, true);
  std::vector<double> lateness;
  size_t failed = 0;
  for (const Slot& s : slots) {
    if (s.phase == 0 && s.sent >= 0) lateness.push_back(to_ms(s.sent - s.due));
    if (!s.ok) ++failed;
  }
  for (const BulkRecord& r : bulk) {
    if (!r.ok) ++failed;
  }
  const auto [serve_tail_name, serve_tail] = tail(serve_lat);
  const auto [ping_tail_name, ping_tail] = tail(ping_lat);
  const double lateness_p99 = percentile(lateness, 0.99);
  // Bulk rate from the bulk request times of the nominal phase (closed
  // loop: one in flight), fast quartile as for the sweeps: interference
  // from other tenants only ever slows a request.
  std::vector<double> bulk_s;
  for (const BulkRecord& r : bulk) {
    if (r.sent >= load0 && r.done <= nominal_end) {
      bulk_s.push_back(to_s(r.done - r.sent));
    }
  }
  const double bulk_rate = (kBulkDraws + 1) / percentile(bulk_s, 0.25);

  // Rate ladder: the highest step whose interactive tail meets the limit.
  Json ladder;
  double max_rps = 0.0;
  bool climbing = true;
  for (size_t step = 0; step <= kLadder.size(); ++step) {
    std::vector<double> lat;
    size_t unanswered = 0;
    for (const Slot& s : slots) {
      if (s.phase != static_cast<int>(step)) continue;
      if (s.done < 0) {
        ++unanswered;
      } else {
        lat.push_back(to_ms(s.done - s.due));
      }
    }
    const double mult = step == 0 ? 1.0 : kLadder[step - 1];
    const double rps = (kRates[0] + kRates[1] + kRates[2]) * mult;
    const auto [name, value] = tail(lat);
    const bool pass = unanswered == 0 && value <= kLatencyLimitMs;
    climbing = climbing && pass;
    if (climbing) max_rps = rps;
    char key[32];
    std::snprintf(key, sizeof(key), "%.0f_rps", rps);
    Json row;
    row.str("tail", name).num("tail_ms", value).count("samples", lat.size())
        .flag("pass", pass);
    ladder.raw(key, row.done());
  }

  // Correctness oracle: an untimed single-thread in-process replay of
  // every distinct request line; every reply must carry its payload.
  std::map<std::string, std::pair<bool, std::string>> seen = observed.take();
  service::AssessmentServer reference(daemon_options(1, snapshot));
  reference.warm_start();
  size_t mismatches = observed.inconsistent();
  std::string first_mismatch;
  std::vector<std::string> order;
  {
    std::set<std::string> queued;
    for (const Slot& s : slots) {
      if (s.done >= 0 && queued.insert(s.key).second) order.push_back(s.key);
    }
    for (const BulkRecord& r : bulk) order.push_back(r.key);
  }
  for (const std::string& key : order) {
    const service::Reply ref = reference.execute_line(key, "ref");
    const auto it = seen.find(key);
    if (it == seen.end() || it->second.first != ref.ok ||
        it->second.second != ref.payload || !ref.ok) {
      if (first_mismatch.empty()) first_mismatch = key;
      ++mismatches;
    }
  }
  const bool framing_ok = interactive.framing_ok && bulk_framing_ok;
  const bool valid = lateness_p99 <= kLatenessLimitMs;

  Json out;
  out.num("setup_s", daemon.setup_s)
      .num("teardown_ms", daemon_teardown_ms)
      .num("serve_p50_ms", percentile(serve_lat, 0.5))
      .num("serve_p99_ms", serve_tail)
      .str("serve_tail", serve_tail_name)
      .count("serve_samples", serve_lat.size())
      .num("ping_p99_ms", ping_tail)
      .str("ping_tail", ping_tail_name)
      .count("ping_samples", ping_lat.size())
      .num("lateness_p99_ms", lateness_p99)
      .num("lateness_limit_ms", kLatenessLimitMs)
      .num("latency_limit_ms", kLatencyLimitMs)
      .num("serve_max_rps", max_rps)
      .num("bulk_cells_per_s", bulk_rate)
      .str("bulk_axes", bulk_axes(seed, 0))
      .count("bulk_requests", bulk.size())
      .num("peak_rss_mb", peak_rss)
      .count("attempted", slots.size() + bulk.size())
      .count("failed", failed)
      .flag("framing_ok", framing_ok)
      .count("mismatches", mismatches)
      .str("first_mismatch", first_mismatch)
      .flag("valid", valid)
      .raw("ladder", ladder.done());

  if (tracer.enabled()) {
    // Per-layer replay: the same request stream, in send order, through
    // execute() on a fresh daemon with the same options, one request at
    // a time, so each request's uncontended service time can be set
    // against its latency under load.
    const int64_t w0 = now_ns();
    service::AssessmentServer replay(daemon_options(threads, snapshot));
    replay.warm_start();
    const int64_t w1 = now_ns();
    tracer.add("parallel.cache/restore", w0, w1);
    struct Sent {
      int64_t at;
      std::string key;
      double latency_ms;
    };
    std::vector<Sent> stream;
    for (const Slot& s : slots) {
      if (s.done >= 0) stream.push_back({s.sent, s.key, to_ms(s.done - s.due)});
    }
    for (const BulkRecord& r : bulk) {
      stream.push_back({r.sent, r.key, to_ms(r.done - r.sent)});
    }
    std::stable_sort(stream.begin(), stream.end(),
                     [](const Sent& a, const Sent& b) { return a.at < b.at; });
    std::map<std::string, std::vector<double>> exec_by_verb;
    std::vector<double> exec_all, parse_us, frame_us, reply_bytes, wait_ms,
        gaps;
    uint64_t req = 1'000'000;
    for (const Sent& s : stream) {
      ++req;
      const int root = tracer.open("replay/request", -1, req);
      const int64_t p0 = now_ns();
      const service::Request request = service::parse_request(s.key);
      const int64_t p1 = now_ns();
      BlockClock clock(kSweepBlock);
      const bool sweep = request.verb == service::Verb::kSweep;
      const service::Reply reply =
          replay.execute(request, sweep ? &clock : nullptr);
      const int64_t p2 = now_ns();
      const std::string frame = service::frame_reply(reply);
      const int64_t p3 = now_ns();
      tracer.close(root);
      tracer.add("service.protocol/parse", p0, p1, root, req);
      const int exec = tracer.add("service.server/execute", p1, p2, root, req);
      tracer.add("service.protocol/frame", p2, p3, root, req);
      if (sweep) {
        int64_t from = p1;
        for (const int64_t t : clock.arrivals()) {
          tracer.add(std::string(kBlockSpan), from, t, exec, req);
          from = t;
        }
        for (const double g : clock.gaps_ms(p1)) gaps.push_back(g);
      }
      const double exec_ms = to_ms(p2 - p1);
      exec_by_verb[std::string(service::verb_name(request.verb))].push_back(
          exec_ms);
      exec_all.push_back(exec_ms);
      parse_us.push_back(static_cast<double>(p1 - p0) / 1e3);
      frame_us.push_back(static_cast<double>(p3 - p2) / 1e3);
      reply_bytes.push_back(static_cast<double>(frame.size()));
      wait_ms.push_back(std::max(0.0, s.latency_ms - exec_ms));
    }

    // Turnover and history, called directly per edition count drawn.
    std::set<int> editions;
    for (const Slot& s : slots) {
      if (s.key.rfind("turnover editions=", 0) == 0) {
        editions.insert(std::stoi(s.key.substr(18)));
      }
    }
    Json history_ms;
    std::vector<double> history_all, turnover_all;
    for (const int e : editions) {
      top500::HistoryConfig cfg;
      cfg.editions = e;
      const int64_t h0 = now_ns();
      const std::vector<top500::ListEdition> history =
          top500::generate_history(cfg);
      const int64_t h1 = now_ns();
      analysis::TurnoverOptions topts;
      topts.engine = &replay.engine();
      const analysis::TurnoverReport report =
          analysis::analyze_turnover(history, topts);
      const int64_t h2 = now_ns();
      tracer.add("top500/generate_history", h0, h1);
      tracer.add("analysis.turnover/analyze", h1, h2);
      history_ms.num(std::to_string(e), to_ms(h1 - h0));
      history_all.push_back(to_ms(h1 - h0));
      turnover_all.push_back(to_ms(h2 - h1));
      if (report.editions.size() != static_cast<size_t>(e)) {
        throw std::runtime_error("turnover edition count mismatch");
      }
    }

    const std::vector<top500::SystemRecord> records = first_records(0);
    const analysis::SweepSpec bulk_spec = analysis::SweepSpec::parse(
        bulk_axes(seed, 0),
        service::default_scenarios().at(analysis::scenarios::kEnhancedName));
    const SweepLayers layers_replay =
        replay_sweep(tracer, records, bulk_spec, threads, req + 1);
    const double rss_replay = proc_status_mb("VmRSS:");

    Json layers;
    layers.num("top500.records_ms", records_ms(tracer));
    add_cache_layers(layers, cache);
    layers.num("parallel.cache.teardown_ms", daemon_teardown_ms);
    add_batch_layers(layers, batch1, batch0, cache.misses);
    add_sweep_layers(layers, layers_replay, gaps);
    layers.num("service.protocol.parse_us", percentile(parse_us, 0.5))
        .num("service.protocol.frame_us", percentile(frame_us, 0.5))
        .num("service.protocol.reply_bytes", percentile(reply_bytes, 0.5))
        .num("service.exec_ms.p50", percentile(exec_all, 0.5))
        .num("service.exec_ms.p99", percentile(exec_all, 0.99))
        .count("service.requests", slots.size() + bulk.size())
        .count("service.errors", failed)
        .num("process.rss_mb", rss_load);
    add_self_times(layers, tracer);

    Json ledger;
    ledger.num("top500.history_ms", percentile(history_all, 0.5))
        .raw("top500.history_ms.by_editions", history_ms.done())
        .num("analysis.turnover_ms", percentile(turnover_all, 0.5))
        .num("parallel.cache.restore_ms", daemon.restore_ms)
        .count("parallel.cache.snapshot_bytes",
               std::filesystem::file_size(snapshot))
        .num("service.wait_ms.p99", percentile(wait_ms, 0.99))
        .num("process.rss_mb.setup", rss_setup)
        .num("process.rss_mb.load", rss_load)
        .num("process.rss_mb.replay", rss_replay);
    for (const auto& [verb, v] : exec_by_verb) {
      ledger.num("service.exec_ms." + verb + ".p50", percentile(v, 0.5))
          .num("service.exec_ms." + verb + ".p99", percentile(v, 0.99))
          .count("service.requests." + verb, v.size());
    }
    // Tracing overhead: interactive p50 of the traced second half of the
    // nominal phase against the untraced first half.
    const double untraced = percentile(
        latencies_ms(slots, 0, false, load0, trace_from), 0.5);
    const double traced = percentile(
        latencies_ms(slots, 0, false, trace_from, nominal_end), 0.5);
    out.num("trace_overhead_pct",
            untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0);
    out.raw("layers", layers.done()).raw("ledger", ledger.done());
    tracer.write(args.get("trace"), ledger.done());
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench sweep|prep|setup|serve --key=value...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args(argc, argv);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "prep") return cmd_prep(args);
    if (cmd == "setup") return cmd_setup(args);
    if (cmd == "serve") return cmd_serve(args);
    std::fprintf(stderr, "perfbench: unknown subcommand '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
