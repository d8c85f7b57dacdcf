// easyc_serve — the long-lived assessment daemon.
//
// Pipe mode (default): answers the line protocol on stdin/stdout,
// one session, until EOF or a `shutdown` request.
//
//   easyc_serve --cache-file=warm.snap < requests.txt
//
// TCP mode: a loopback listener, one session per connection, all
// sharing the hot engine. --tcp=0 binds an ephemeral port; the bound
// port goes to stderr and (for scripts) to --port-file.
//
//   easyc_serve --tcp=0 --port-file=port.txt --cache-file=warm.snap
//
// Diagnostics go to stderr; reply payloads are byte-identical cold,
// warm-started, or interleaved with concurrent requests (CI diffs
// them). SIGTERM/SIGINT drain in-flight requests, snapshot the cache,
// and exit 0 — a supervisor restart never loses the warm state.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <string>

#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

namespace service = easyc::service;
namespace util = easyc::util;

// The signal handler's entire world: request_shutdown() is
// async-signal-safe (atomic store + one pipe write), so SIGTERM during
// a blocking read or mid-request needs no self-pipe bookkeeping here.
std::atomic<service::AssessmentServer*> g_server{nullptr};

void handle_signal(int) {
  if (service::AssessmentServer* server = g_server.load()) {
    server->request_shutdown();
  }
}

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked reads must wake
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // Replies to a vanished pipe client must surface as EPIPE (the sink
  // marks itself failed), not kill the process. Socket sends already
  // use MSG_NOSIGNAL.
  signal(SIGPIPE, SIG_IGN);
}

void print_notes(const std::vector<std::string>& notes) {
  for (const std::string& note : notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "easyc_serve — long-lived assessment server answering the "
      "line-delimited request protocol (see README.md, \"Server mode\")");
  args.add_flag("tcp",
                "listen on a loopback TCP port instead of stdin/stdout "
                "(0 = ephemeral; the bound port is reported on stderr)");
  args.add_flag("port-file",
                "write the bound TCP port to this file (for scripts that "
                "start the server with --tcp=0)");
  args.add_flag("threads",
                "worker threads of the shared pool (default: hardware "
                "concurrency); results are bit-identical for every value");
  args.add_flag("admission",
                "concurrent request executors (default 2); 1 serializes "
                "requests, more lets cheap requests overtake a long sweep");
  args.add_flag("cache-file",
                "warm-start the assessment cache from this snapshot when it "
                "exists and save it back on shutdown/SIGTERM");
  args.add_flag("cache-capacity",
                "resident assessment bound (default 0 = unbounded)");
  args.add_flag("max-sweep-cells",
                "reject sweep requests expanding past this many cells "
                "(default 1048576) — unless --shard-workers fans them out");
  args.add_flag("shard-workers",
                "fan sweep requests above --max-sweep-cells out to this "
                "many easyc --sweep-shard worker subprocesses and merge "
                "their EZPART partials (default 0 = refuse oversized "
                "sweeps); needs --shard-exec");
  args.add_flag("shard-exec",
                "path to the easyc CLI binary --shard-workers launches");
  args.add_flag("shard-dir",
                "directory for per-request shard working subdirectories "
                "(default: $TMPDIR or /tmp)");
  args.add_flag("cache-load",
                "comma-separated extra snapshot files loaded additively "
                "after --cache-file at startup (resident entries win) — "
                "e.g. the snapshots a sharded run's workers shipped");
  args.add_flag("help", "show usage", /*takes_value=*/false);
  args.allow_positional(false);

  try {
    args.parse(argc, argv);
    if (args.has("help")) {
      std::fputs(args.usage(argv[0]).c_str(), stdout);
      return 0;
    }

    service::ServerOptions options;
    if (auto threads = args.get_int("threads")) {
      if (*threads < 1) throw util::Error("--threads must be at least 1");
      options.threads = static_cast<unsigned>(*threads);
    }
    if (auto admission = args.get_int("admission")) {
      if (*admission < 1) throw util::Error("--admission must be at least 1");
      options.admission = static_cast<unsigned>(*admission);
    }
    options.cache_file = args.get("cache-file");
    if (auto capacity = args.get_int("cache-capacity")) {
      if (*capacity < 0) {
        throw util::Error("--cache-capacity must be non-negative");
      }
      options.cache_capacity = static_cast<size_t>(*capacity);
    }
    if (auto cells = args.get_int("max-sweep-cells")) {
      if (*cells < 1) {
        throw util::Error("--max-sweep-cells must be at least 1");
      }
      options.max_sweep_cells = static_cast<size_t>(*cells);
    }
    if (auto workers = args.get_int("shard-workers")) {
      if (*workers < 0) {
        throw util::Error("--shard-workers must be non-negative");
      }
      if (*workers == 1) {
        throw util::Error(
            "--shard-workers wants 0 (refuse oversized sweeps) or >= 2 "
            "(fan out); a 1-worker fan-out is just a slower refusal of "
            "--max-sweep-cells");
      }
      options.shard_workers = static_cast<unsigned>(*workers);
    }
    if (auto exec = args.get("shard-exec")) options.shard_exec = *exec;
    if (options.shard_workers >= 2 && options.shard_exec.empty()) {
      throw util::Error("--shard-workers needs --shard-exec=<easyc binary>");
    }
    if (!options.shard_exec.empty() && options.shard_workers < 2) {
      throw util::Error("--shard-exec applies only with --shard-workers");
    }
    if (auto dir = args.get("shard-dir")) options.shard_dir = *dir;
    if (args.has("shard-dir") && options.shard_workers < 2) {
      throw util::Error("--shard-dir applies only with --shard-workers");
    }
    if (auto loads = args.get("cache-load")) {
      for (const auto& raw : util::split(*loads, ',')) {
        const std::string path(util::trim(raw));
        if (!path.empty()) options.cache_load.push_back(path);
      }
    }
    std::optional<long long> tcp_port = args.get_int("tcp");
    if (args.has("tcp") && !tcp_port) {
      throw util::Error("--tcp wants a port number (0 = ephemeral)");
    }
    if (tcp_port && (*tcp_port < 0 || *tcp_port > 65535)) {
      throw util::Error("--tcp wants a port in 0..65535");
    }
    if (args.has("port-file") && !tcp_port) {
      throw util::Error("--port-file applies only to --tcp servers");
    }

    service::AssessmentServer server(options);
    print_notes(server.warm_start());
    g_server.store(&server);
    install_signal_handlers();

    if (tcp_port) {
      const uint16_t port =
          server.listen_tcp(static_cast<uint16_t>(*tcp_port));
      std::fprintf(stderr, "easyc_serve: listening on 127.0.0.1:%u\n", port);
      if (auto port_file = args.get("port-file")) {
        if (FILE* f = std::fopen(port_file->c_str(), "w")) {
          std::fprintf(f, "%u\n", port);
          std::fclose(f);
        } else {
          throw util::Error("cannot write --port-file: " + *port_file);
        }
      }
      server.serve_tcp();
    } else {
      service::FdSource in(STDIN_FILENO, server.wake_fd());
      service::FdSink out(STDOUT_FILENO, /*is_socket=*/false);
      server.serve(in, out);
    }

    // Snapshot after every in-flight request has replied — the same
    // atomic temp+rename path the CLI uses, so a SIGTERM mid-request
    // can truncate a session, never the snapshot file.
    g_server.store(nullptr);
    print_notes(server.save_snapshot());
    std::fprintf(stderr, "easyc_serve: served %llu requests\n",
                 static_cast<unsigned long long>(server.served()));
    return 0;
  } catch (const util::ParseError& e) {
    std::fprintf(stderr, "error: %s\nrun %s --help for usage\n", e.what(),
                 argv[0]);
    return 1;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
