// The long-lived assessment server: one hot AssessmentEngine +
// ShardedCache for the whole process life, answering the line protocol
// in protocol.hpp over any ByteSource/ReplySink pair (stdin/stdout,
// TCP sockets, in-memory strings for tests).
//
// This is the ROADMAP's "millions of users" shape: process startup,
// catalog generation, and the cache warm-start are paid once, in the
// constructor — every request after that is admission + (mostly)
// cache lookups. The CLI's --turnover/--sweep modes are the degenerate
// case: construct a server, execute one request, print, snapshot, exit
// — so the one-shot and daemon paths cannot drift apart.
//
// Concurrency model: session readers (one per connection) parse lines
// and enqueue jobs on a bounded queue; a fixed set of dedicated
// executor threads pops and runs them against the shared engine. The
// executors are real threads, NOT pool tasks — a request fans its
// batch work out over the shared par::ThreadPool and blocks on the
// results, which would deadlock if the requester itself occupied a
// pool worker. Replies go out whole-frame-atomically through the
// session's ReplySink, so concurrent completions interleave frames,
// never bytes.
//
// Determinism: a reply's payload is a pure function of the request
// (assessments are pure, sweep reductions iterate expansion order),
// so it is byte-identical cold, warm-started, or interleaved with
// other requests. Everything cache-dependent rides outside the
// payload (notes, stats trailer). Tests and the CI serve leg diff
// exactly this.
//
// Shutdown: request_shutdown() is async-signal-safe (an atomic store
// plus one write() to a never-drained wake pipe), so easyc_serve's
// SIGTERM handler can call it directly; every blocked read wakes,
// sessions stop admitting, in-flight requests complete and reply, and
// the caller snapshots the cache via save_snapshot() — the same
// atomic temp+rename path the CLI uses, so a snapshot is never left
// half-written.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/scenario.hpp"
#include "parallel/thread_pool.hpp"
#include "service/protocol.hpp"
#include "top500/history.hpp"

namespace easyc::service {

/// The scenario registry every server (and the CLI) serves from: the
/// paper + what-if set plus the full-knowledge bound.
analysis::ScenarioSet default_scenarios();

struct ServerOptions {
  /// Worker threads of the shared pool (0 = hardware concurrency).
  unsigned threads = 0;
  /// Concurrent request executors. 1 serializes requests; more lets
  /// cheap requests (ping, warm assess) overtake a long sweep.
  unsigned admission = 2;
  /// Warm-start source and shutdown-snapshot target (nullopt = no
  /// persistence).
  std::optional<std::string> cache_file;
  /// Resident cache bound (0 = unbounded).
  size_t cache_capacity = 0;
  size_t max_line_bytes = kDefaultMaxLineBytes;
  size_t max_sweep_cells = kDefaultMaxSweepCells;
  /// Extra snapshot files loaded (additively; resident entries win)
  /// during warm_start, after cache_file — the path by which a merge
  /// process re-absorbs the cache state shard workers shipped.
  std::vector<std::string> cache_load;
  /// Sweep requests expanding past max_sweep_cells fan out to this
  /// many worker subprocesses (the sharded backend) instead of being
  /// refused. 0 or 1 keeps the historical refusal; >= 2 requires
  /// shard_exec.
  unsigned shard_workers = 0;
  /// The easyc_cli binary workers run as (`--sweep-shard i/N`); must
  /// be set when shard_workers >= 2.
  std::string shard_exec;
  /// Directory for worker partials and cache snapshots (one fresh
  /// subdirectory per sharded request, removed afterwards). Empty =
  /// $TMPDIR or /tmp.
  std::string shard_dir;
};

class AssessmentServer {
 public:
  explicit AssessmentServer(ServerOptions options = {});
  ~AssessmentServer();

  AssessmentServer(const AssessmentServer&) = delete;
  AssessmentServer& operator=(const AssessmentServer&) = delete;

  /// Load options.cache_file into the engine if it exists; a missing,
  /// stale, or corrupt snapshot costs a cold start, never a failure.
  /// Returns human-readable notes (the CLI's historical stderr lines).
  std::vector<std::string> warm_start();

  /// Snapshot the cache to options.cache_file (atomic temp+rename).
  /// Never throws: a failed save only costs the next run its warm
  /// start. Returns notes as above.
  std::vector<std::string> save_snapshot();

  /// Execute one request synchronously on the calling thread. The
  /// deterministic payload, cache-dependent notes, and stats come back
  /// in the Reply; errors become ok=false replies, never exceptions.
  /// `sink` (optional, sweep only) receives every cell — the CLI's
  /// --cells-out path; cell streaming is not part of the wire
  /// protocol.
  Reply execute(const Request& request,
                analysis::SweepCellSink* sink = nullptr);

  /// Parse + execute one line; parse failures become err replies under
  /// `default_id`.
  Reply execute_line(std::string_view line, std::string_view default_id);

  /// Serve one session: read request lines from `in`, execute them
  /// concurrently on the executor threads, write reply frames to
  /// `out`. Returns after end-of-stream, a shutdown request, or
  /// request_shutdown() — always after every admitted request has
  /// replied. Blank lines and '#' comments are skipped (so scripted
  /// request mixes can be annotated).
  void serve(ByteSource& in, ReplySink& out);

  /// Bind a loopback TCP listener (port 0 = ephemeral); returns the
  /// bound port. Call before serve_tcp().
  uint16_t listen_tcp(uint16_t port);

  /// Accept loop: one session (and one reader thread) per connection,
  /// all sharing the executors and the engine. Returns after
  /// request_shutdown(), once every session has drained.
  void serve_tcp();

  /// Stop serving: async-signal-safe (atomic store + pipe write), so
  /// signal handlers may call it. In-flight requests still reply.
  void request_shutdown();
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  /// Read end of the never-drained wake pipe, for external pollers.
  int wake_fd() const { return wake_pipe_[0]; }

  analysis::AssessmentEngine& engine() { return engine_; }
  const analysis::ScenarioSet& scenarios() const { return scenarios_; }
  /// The simulated record list every request assesses (the shard
  /// worker and merge paths must run over exactly this list).
  const std::vector<top500::SystemRecord>& records() const {
    return records_;
  }
  const ServerOptions& options() const { return options_; }
  uint64_t served() const { return served_.load(std::memory_order_relaxed); }

 private:
  struct SessionGate;

  std::vector<std::string> load_extra_snapshots(
      const std::vector<std::string>& paths);

  Reply finish_reply(Reply reply, const par::CacheStats& before);
  Reply error_reply(std::string_view id, const std::string& message);

  void do_ping(Reply& reply);
  void do_version(Reply& reply);
  void do_assess(const Request& request, Reply& reply);
  void do_turnover(const Request& request, Reply& reply);
  void do_sweep(const Request& request, Reply& reply,
                analysis::SweepCellSink* sink);
  void do_sweep_sharded(const Request& request, Reply& reply,
                        analysis::SweepCellSink* sink,
                        const std::vector<top500::SystemRecord>& records,
                        const analysis::SweepSpec& spec, size_t cells);

  const std::vector<top500::ListEdition>& history(int editions);

  void enqueue(std::function<void()> job);
  void executor_loop();

  ServerOptions options_;
  par::ThreadPool pool_;
  analysis::AssessmentEngine engine_;
  analysis::ScenarioSet scenarios_;
  std::vector<top500::SystemRecord> records_;

  std::mutex history_mu_;
  std::map<int, std::vector<top500::ListEdition>> histories_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable queue_space_cv_;
  std::deque<std::function<void()>> queue_;
  bool queue_closed_ = false;
  std::vector<std::thread> executors_;

  std::atomic<uint64_t> served_{0};
  std::atomic<bool> shutdown_{false};
  int wake_pipe_[2] = {-1, -1};
  int listen_fd_ = -1;
};

}  // namespace easyc::service
