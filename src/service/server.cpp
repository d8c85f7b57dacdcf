#include "service/server.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "analysis/sweep_shard.hpp"
#include "analysis/turnover.hpp"
#include "easyc/codec.hpp"
#include "report/experiments.hpp"
#include "top500/generator.hpp"
#include "util/ascii.hpp"
#include "util/strings.hpp"

namespace easyc::service {
namespace {

std::string cache_note(const par::CacheStats& stats) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "Assessment cache: %llu hits / %llu misses (%.1f%% hit "
                "rate), %llu evictions, %llu resident",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                stats.hit_rate() * 100.0,
                static_cast<unsigned long long>(stats.evictions),
                static_cast<unsigned long long>(stats.entries));
  return buf;
}

}  // namespace

analysis::ScenarioSet default_scenarios() {
  auto set = analysis::ScenarioSet::paper_with_whatifs();
  set.add(analysis::scenarios::full_knowledge());
  return set;
}

struct AssessmentServer::SessionGate {
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;

  void add() {
    std::lock_guard<std::mutex> lock(mu);
    ++pending;
  }
  void done() {
    {
      std::lock_guard<std::mutex> lock(mu);
      --pending;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return pending == 0; });
  }
};

AssessmentServer::AssessmentServer(ServerOptions options)
    : options_(options),
      pool_(options.threads),
      engine_({.pool = &pool_, .cache_capacity = options.cache_capacity}),
      scenarios_(default_scenarios()),
      records_(top500::generate_records()) {
  if (::pipe(wake_pipe_) != 0) {
    throw util::Error("cannot create server wake pipe");
  }
  const unsigned n = std::max(1u, options_.admission);
  executors_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

AssessmentServer::~AssessmentServer() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : executors_) t.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

std::vector<std::string> AssessmentServer::warm_start() {
  std::vector<std::string> notes;
  if (options_.cache_file) {
    const std::string& path = *options_.cache_file;
    if (std::ifstream probe(path, std::ios::binary); probe) {
      try {
        const size_t n = engine_.load_cache(path);
        notes.push_back("cache warm-start: " + std::to_string(n) +
                        " entries from " + path);
      } catch (const util::Error& e) {
        // A cache is advisory: a stale/corrupt/unreadable snapshot costs
        // a cold start, never a wrong result or a failed one.
        notes.push_back("cache file " + path + " rejected (" + e.what() +
                        "); starting cold");
      }
    } else {
      notes.push_back("cache file " + path + " not found; starting cold");
    }
  }
  for (std::string& note : load_extra_snapshots(options_.cache_load)) {
    notes.push_back(std::move(note));
  }
  return notes;
}

std::vector<std::string> AssessmentServer::load_extra_snapshots(
    const std::vector<std::string>& paths) {
  std::vector<std::string> notes;
  for (const std::string& path : paths) {
    try {
      const size_t n = engine_.load_cache(path);
      notes.push_back("cache load: " + std::to_string(n) + " entries from " +
                      path);
    } catch (const util::Error& e) {
      // Same advisory posture as warm_start: restore() is additive and
      // rejects before mutating, so a bad extra snapshot costs nothing.
      notes.push_back("cache load " + path + " rejected (" + e.what() + ")");
    }
  }
  return notes;
}

std::vector<std::string> AssessmentServer::save_snapshot() {
  std::vector<std::string> notes;
  if (!options_.cache_file) return notes;
  const std::string& path = *options_.cache_file;
  try {
    engine_.save_cache(path);
    notes.push_back(
        "cache saved: " + std::to_string(engine_.cache_stats().entries) +
        " entries to " + path);
  } catch (const util::Error& e) {
    notes.push_back("warning: could not save cache to " + path + " (" +
                    e.what() + ")");
  }
  return notes;
}

Reply AssessmentServer::finish_reply(Reply reply,
                                     const par::CacheStats& before) {
  const par::CacheStats after = engine_.cache_stats();
  reply.stats.delta = after.since(before);
  reply.stats.cumulative = after;
  reply.stats.served = served_.fetch_add(1, std::memory_order_relaxed) + 1;
  return reply;
}

Reply AssessmentServer::error_reply(std::string_view id,
                                    const std::string& message) {
  Reply reply;
  reply.id = std::string(id);
  reply.ok = false;
  reply.payload = message;
  if (reply.payload.empty() || reply.payload.back() != '\n') {
    reply.payload += '\n';
  }
  return finish_reply(std::move(reply), engine_.cache_stats());
}

Reply AssessmentServer::execute(const Request& request,
                                analysis::SweepCellSink* sink) {
  Reply reply;
  reply.id = request.id.empty() ? "0" : request.id;
  const par::CacheStats before = engine_.cache_stats();
  try {
    switch (request.verb) {
      case Verb::kPing:
        do_ping(reply);
        break;
      case Verb::kVersion:
        do_version(reply);
        break;
      case Verb::kAssess:
        do_assess(request, reply);
        break;
      case Verb::kTurnover:
        do_turnover(request, reply);
        break;
      case Verb::kSweep:
        do_sweep(request, reply, sink);
        break;
      case Verb::kShutdown:
        reply.payload = "shutting down\n";
        break;
    }
  } catch (const util::Error& e) {
    reply.ok = false;
    reply.notes.clear();
    reply.payload = std::string(e.what()) + "\n";
  } catch (const std::exception& e) {
    reply.ok = false;
    reply.notes.clear();
    reply.payload = std::string("internal error: ") + e.what() + "\n";
  }
  Reply out = finish_reply(std::move(reply), before);
  // Flag after the reply is built so this request still gets a clean
  // frame; the session loop stops admitting afterwards.
  if (request.verb == Verb::kShutdown && out.ok) request_shutdown();
  return out;
}

Reply AssessmentServer::execute_line(std::string_view line,
                                     std::string_view default_id) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const util::Error& e) {
    return error_reply(default_id, e.what());
  }
  if (request.id.empty()) request.id = std::string(default_id);
  return execute(request);
}

void AssessmentServer::do_ping(Reply& reply) { reply.payload = "pong\n"; }

void AssessmentServer::do_version(Reply& reply) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "easyc_serve protocol %u\n"
                "assessment-codec %u\n"
                "assessment-semantics %u\n"
                "cache-scheme-tag %016llx\n",
                kProtocolVersion, model::kAssessmentCodecVersion,
                model::kAssessmentSemanticsVersion,
                static_cast<unsigned long long>(
                    analysis::AssessmentEngine::cache_scheme_tag()));
  reply.payload = buf;
}

void AssessmentServer::do_assess(const Request& request, Reply& reply) {
  const std::string name =
      request.scenario.empty()
          ? std::string(analysis::scenarios::kEnhancedName)
          : request.scenario;
  analysis::ScenarioSpec spec = scenarios_.at(name);
  if (!request.overrides.empty()) {
    // set= reuses the sweep grammar pinned to one value per axis, so a
    // client overrides any what-if knob without a registry entry.
    const analysis::SweepSpec overrides =
        analysis::SweepSpec::parse(request.overrides, spec);
    if (overrides.monte_carlo) {
      throw ProtocolError("assess set= pins single values; mc= belongs to "
                          "sweep");
    }
    for (const analysis::AxisValues& axis : overrides.axes) {
      if (axis.values.size() != 1) {
        throw ProtocolError(
            "assess set= wants exactly one value per axis (" +
            std::string(analysis::axis_name(axis.axis)) + " lists " +
            std::to_string(axis.values.size()) + "); ranges belong to sweep");
      }
      spec = analysis::apply_axis(std::move(spec), axis.axis, axis.values[0]);
    }
  }
  analysis::ScenarioSet one;
  one.add(spec);
  const analysis::EditionAssessment edition = engine_.assess(records_, one);
  const analysis::ScenarioResults& r = edition.scenarios.front();

  reply.payload = "scenario: " + spec.name + " — " + spec.description + "\n";
  if (!request.overrides.empty()) {
    reply.payload += "overrides: " + request.overrides + "\n";
  }
  reply.payload += "systems: " + std::to_string(records_.size()) + "\n";
  reply.payload +=
      "coverage: operational " + std::to_string(r.coverage.operational) + "/" +
      std::to_string(r.coverage.total) + ", embodied " +
      std::to_string(r.coverage.embodied) + "/" +
      std::to_string(r.coverage.total) + "\n";
  reply.payload += "totals over covered systems: " +
                   util::format_double(r.total(true), 0) +
                   " MT CO2e/yr operational, " +
                   util::format_double(r.total(false), 0) + " MT embodied\n";
  char line[128];
  std::snprintf(line, sizeof(line),
                "annualized over a %.0f-year service life: %s MT CO2e/yr\n",
                spec.service_years,
                util::format_double(r.annualized_total_mt(), 0).c_str());
  reply.payload += line;
}

const std::vector<top500::ListEdition>& AssessmentServer::history(
    int editions) {
  std::lock_guard<std::mutex> lock(history_mu_);
  auto it = histories_.find(editions);
  if (it == histories_.end()) {
    top500::HistoryConfig cfg;
    cfg.editions = editions;
    it = histories_.emplace(editions, top500::generate_history(cfg)).first;
  }
  return it->second;
}

void AssessmentServer::do_turnover(const Request& request, Reply& reply) {
  if (request.editions < 2 || request.editions > kMaxTurnoverEditions) {
    throw ProtocolError("editions= wants 2.." +
                        std::to_string(kMaxTurnoverEditions));
  }
  top500::HistoryConfig cfg;
  cfg.editions = request.editions;
  char head[128];
  std::snprintf(head, sizeof(head),
                "simulating %d list editions (~%d entrants per cycle)...\n",
                cfg.editions, cfg.entrants_per_cycle);

  analysis::TurnoverOptions opts;
  opts.engine = &engine_;
  const analysis::TurnoverReport report =
      analysis::analyze_turnover(history(request.editions), opts);

  reply.payload = head;
  reply.payload +=
      report::turnover_summary(report, /*include_cache_stats=*/false);
  reply.payload += "\nProjection from the measured growth rates:\n";
  util::TextTable t({"Year", "Op kMT", "Emb kMT", "PFlop/s"});
  for (const analysis::ProjectionPoint& p :
       analysis::project_from_turnover(report)) {
    t.add_row({std::to_string(p.year),
               util::format_double(p.operational_kmt, 0),
               util::format_double(p.embodied_kmt, 0),
               util::format_double(p.perf_pflops, 0)});
  }
  reply.payload += t.render();
  reply.notes.push_back(cache_note(report.cache));
}

void AssessmentServer::do_sweep(const Request& request, Reply& reply,
                                analysis::SweepCellSink* sink) {
  const std::string base_name =
      request.base.empty() ? std::string(analysis::scenarios::kEnhancedName)
                           : request.base;
  const analysis::SweepSpec spec =
      analysis::SweepSpec::parse(request.axes, scenarios_.at(base_name));
  const size_t cells = spec.total_cells();

  const std::vector<top500::SystemRecord>* records = &records_;
  std::vector<top500::SystemRecord> limited;
  if (request.records && *request.records < records_.size()) {
    limited.assign(records_.begin(),
                   records_.begin() + static_cast<long>(*request.records));
    records = &limited;
  }

  if (cells > options_.max_sweep_cells) {
    if (options_.shard_workers >= 2 && !options_.shard_exec.empty()) {
      do_sweep_sharded(request, reply, sink, *records, spec, cells);
      return;
    }
    throw ProtocolError(
        "sweep expands to " + std::to_string(cells) +
        " cells; this server accepts at most " +
        std::to_string(options_.max_sweep_cells) +
        " per request — split the grid, raise --max-sweep-cells, or start "
        "the server with --shard-workers/--shard-exec to fan out");
  }
  reply.notes.push_back("expanding " + std::to_string(cells) +
                        " derived scenarios from '" + base_name + "'...");

  analysis::SweepEngine::Options opt;
  opt.engine = &engine_;
  if (request.batch) opt.batch_size = *request.batch;
  opt.stats = request.stats.value_or(analysis::SweepStatsMode::kAuto);
  // The payload renders from counters/summaries and refinement plans
  // from streamed marginals; retention off keeps one request's peak
  // memory at one batch no matter how many cells it expands to.
  opt.retain_cells = false;
  analysis::SweepEngine sweep(opt);
  const analysis::SweepReport report =
      request.refine ? sweep.run_adaptive(*records, spec, *request.refine, sink)
                     : sweep.run(*records, spec, sink);

  reply.payload = analysis::render_sweep_report(report);
  for (const analysis::RefinementRound& round : report.refinement) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "sweep round %zu: %zu cells, %llu hits / %llu misses "
                  "(%.1f%% hit rate)",
                  round.round, round.cells,
                  static_cast<unsigned long long>(round.cache.hits),
                  static_cast<unsigned long long>(round.cache.misses),
                  round.cache.hit_rate() * 100.0);
    reply.notes.push_back(buf);
  }
  reply.notes.push_back(cache_note(report.cache));
}

// The sharded backend: an oversized sweep fans out to shard_workers
// easyc_cli subprocesses (`--sweep-shard i/N`), each of which ships an
// EZPART partial plus a cache snapshot into a per-request temp
// directory; the server merges the partials into the same payload an
// in-process run renders and absorbs the snapshots into its own cache,
// so a follow-up request over the same grid is warm.
void AssessmentServer::do_sweep_sharded(
    const Request& request, Reply& reply, analysis::SweepCellSink* sink,
    const std::vector<top500::SystemRecord>& records,
    const analysis::SweepSpec& spec, size_t cells) {
  if (request.refine) {
    throw ProtocolError(
        "adaptive refinement cannot fan out to shard workers (rounds after "
        "the first depend on merged marginals) — drop refine= or raise "
        "--max-sweep-cells");
  }
  const unsigned workers = options_.shard_workers;

  // One fresh directory per request: workers never collide, and the
  // merge never picks up a stale partial from an earlier request.
  std::string parent = options_.shard_dir;
  if (parent.empty()) {
    // getenv is mt-unsafe only against a concurrent setenv; this
    // process never mutates its environment.
    const char* tmp = ::getenv("TMPDIR");  // NOLINT(concurrency-mt-unsafe)
    parent = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  std::string tmpl = parent + "/easyc-shard-XXXXXX";
  std::vector<char> tmpl_buf(tmpl.begin(), tmpl.end());
  tmpl_buf.push_back('\0');
  if (::mkdtemp(tmpl_buf.data()) == nullptr) {
    throw util::Error("cannot create shard working directory under " + parent);
  }
  const std::string dir(tmpl_buf.data());

  std::vector<std::string> partials, snapshots;
  const auto cleanup = [&]() {
    for (const std::string& p : partials) ::unlink(p.c_str());
    for (const std::string& p : snapshots) ::unlink(p.c_str());
    ::rmdir(dir.c_str());
  };

  try {
    const std::string base_name =
        request.base.empty() ? std::string(analysis::scenarios::kEnhancedName)
                             : request.base;
    std::vector<std::string> common = {
        options_.shard_exec,
        "--sweep=" + request.axes,
        "--sweep-base=" + base_name,
    };
    if (request.batch) {
      common.push_back("--sweep-batch=" + std::to_string(*request.batch));
    }
    if (request.stats) {
      common.push_back(
          "--sweep-stats=" +
          std::string(analysis::sweep_stats_mode_name(*request.stats)));
    }
    if (request.records) {
      common.push_back("--sweep-records=" + std::to_string(*request.records));
    }

    std::vector<pid_t> pids;
    for (unsigned i = 1; i <= workers; ++i) {
      const std::string part =
          dir + "/part" + std::to_string(i) + ".ezpart";
      const std::string snap = dir + "/shard" + std::to_string(i) + ".snap";
      partials.push_back(part);
      snapshots.push_back(snap);

      std::vector<std::string> args = common;
      args.push_back("--sweep-shard=" + std::to_string(i) + "/" +
                     std::to_string(workers));
      args.push_back("--shard-out=" + part);
      args.push_back("--cache-file=" + snap);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);

      const pid_t pid = ::fork();
      if (pid < 0) {
        for (pid_t running : pids) {
          ::kill(running, SIGTERM);
          int ignored = 0;
          ::waitpid(running, &ignored, 0);
        }
        throw util::Error("cannot fork shard worker " + std::to_string(i) +
                          "/" + std::to_string(workers));
      }
      if (pid == 0) {
        ::execv(argv[0], argv.data());
        // Only reached when exec fails; _exit keeps the child from
        // running the server's destructors/atexit handlers.
        ::_exit(127);
      }
      pids.push_back(pid);
    }

    std::string failure;
    for (unsigned i = 0; i < pids.size(); ++i) {
      int status = 0;
      ::waitpid(pids[i], &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        const std::string what =
            WIFEXITED(status)
                ? "exit code " + std::to_string(WEXITSTATUS(status))
                : "signal " + std::to_string(WTERMSIG(status));
        if (failure.empty()) {
          failure = "shard worker " + std::to_string(i + 1) + "/" +
                    std::to_string(workers) + " failed (" + what + ")";
        }
      }
    }
    if (!failure.empty()) throw ProtocolError(failure);

    reply.notes.push_back("sweep sharded: " + std::to_string(cells) +
                          " cells over " + std::to_string(workers) +
                          " worker processes");

    analysis::MergeOptions merge_opt;
    merge_opt.sink = sink;
    const analysis::SweepReport report =
        analysis::merge_sweep_partials(partials, records, spec, merge_opt);

    // Ship the workers' cache state home: restore() is additive and
    // resident entries win, so this only fills holes.
    size_t absorbed = 0;
    for (const std::string& snap : snapshots) {
      try {
        absorbed += engine_.load_cache(snap);
      } catch (const util::Error&) {
        // Advisory, like every snapshot load: a worker that died after
        // writing its partial but mid-snapshot costs warmth, not the
        // merge.
      }
    }
    reply.notes.push_back(
        "absorbed " + std::to_string(absorbed) + " cache entries from " +
        std::to_string(snapshots.size()) + " shard snapshots");

    reply.payload = analysis::render_sweep_report(report);
    reply.notes.push_back(cache_note(report.cache));
  } catch (...) {
    cleanup();
    throw;
  }
  cleanup();
}

void AssessmentServer::enqueue(std::function<void()> job) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  const size_t bound = std::max<size_t>(1, options_.admission) * 4;
  // Backpressure: a session that outruns the executors stalls here
  // (and, over TCP, stalls its client) instead of growing the queue
  // without bound. wait_for, not wait: request_shutdown() is
  // async-signal-safe and cannot notify a condition variable.
  while (!queue_closed_ && queue_.size() >= bound && !shutdown_requested()) {
    queue_space_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  if (queue_closed_) {
    // Destructor raced a live session (a usage error); run inline so
    // the session's gate still resolves.
    lock.unlock();
    job();
    return;
  }
  queue_.push_back(std::move(job));
  queue_cv_.notify_one();
}

void AssessmentServer::executor_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_space_cv_.notify_one();
    job();
  }
}

void AssessmentServer::serve(ByteSource& in, ReplySink& out) {
  LineReader reader(in, options_.max_line_bytes);
  auto gate = std::make_shared<SessionGate>();
  uint64_t seq = 0;
  std::string line;
  bool stop = false;
  while (!stop) {
    const LineReader::Event event = reader.next(line);
    if (event == LineReader::Event::kEof) break;
    if (event == LineReader::Event::kInterrupted) {
      if (shutdown_requested()) break;
      continue;
    }
    if (event == LineReader::Event::kOverlong) {
      ++seq;
      out.send(frame_reply(error_reply(
          std::to_string(seq),
          "protocol error: request line exceeds " +
              std::to_string(options_.max_line_bytes) + " bytes")));
      continue;
    }
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    ++seq;
    Request request;
    try {
      request = parse_request(trimmed);
    } catch (const util::Error& e) {
      // One bad line costs one error reply, never the session: the
      // same rejection-matrix posture the snapshot codec takes.
      out.send(frame_reply(error_reply(std::to_string(seq), e.what())));
      continue;
    }
    if (request.id.empty()) request.id = std::to_string(seq);
    const bool is_shutdown = (request.verb == Verb::kShutdown);
    gate->add();
    enqueue([this, &out, request, gate] {
      out.send(frame_reply(execute(request)));
      gate->done();
    });
    if (is_shutdown) stop = true;
  }
  // Every admitted request replies before the session ends — a
  // shutdown or EOF never strands an in-flight reply.
  gate->wait();
}

uint16_t AssessmentServer::listen_tcp(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw util::Error("cannot create TCP socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw util::Error("cannot bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw util::Error("cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw util::Error("cannot read bound TCP port");
  }
  return ntohs(addr.sin_port);
}

void AssessmentServer::serve_tcp() {
  if (listen_fd_ < 0) {
    throw util::Error("serve_tcp() needs listen_tcp() first");
  }
  std::vector<std::thread> sessions;
  while (!shutdown_requested()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // shutdown wake
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Replies go out as soon as they are framed. With Nagle on, a reply
    // sent while the previous one is still unacknowledged waits for the
    // client's delayed ACK, which pins a paced client's latency to its
    // own request period.
    const int nodelay = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    sessions.emplace_back([this, conn] {
      FdSource source(conn, wake_pipe_[0]);
      FdSink sink(conn, /*is_socket=*/true);
      serve(source, sink);
      ::shutdown(conn, SHUT_RDWR);
      ::close(conn);
    });
  }
  for (std::thread& t : sessions) t.join();
}

void AssessmentServer::request_shutdown() {
  // Async-signal-safe by construction: a lock-free atomic store plus
  // one write to the wake pipe (never drained, so every poll on it
  // stays readable). No locks, no allocation, no condition variables.
  shutdown_.store(true, std::memory_order_release);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

}  // namespace easyc::service
