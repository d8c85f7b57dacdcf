// AssessmentServer: the long-lived engine lifecycle behind both
// easyc_serve and the CLI one-shots.
//
// The load-bearing pin is the determinism bar from the ROADMAP: a
// request's reply payload is byte-identical whether served cold,
// warm-started from a snapshot, or interleaved with concurrent
// requests on a shared engine. Robustness rides along in the same
// rejection-matrix style as cache_persistence_test: malformed lines,
// oversized specs, client disconnects, and shutdown mid-request all
// produce clean error replies or clean drains — never a crash, never
// a corrupt snapshot.
#include "service/server.hpp"

// easyc-lint: allow(pragma-suppression) GCC through 12 flags C++20
// designated initializers ({.threads = 2}) as missing-field-initializers
// even though every omitted ServerOptions member has a default member
// initializer (GCC PR96868, fixed in 13). The idiom is load-bearing for
// readability here, so the false positive is silenced file-wide.
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "util/strings.hpp"

namespace service = easyc::service;
namespace analysis = easyc::analysis;
namespace util = easyc::util;
namespace par = easyc::par;

namespace {

struct ParsedReply {
  std::string id;
  bool ok = false;
  std::string payload;
  std::vector<std::string> notes;
  std::map<std::string, uint64_t> stats;
};

// Parse a concatenation of reply frames (a whole session's output).
std::vector<ParsedReply> parse_frames(const std::string& data) {
  std::vector<ParsedReply> replies;
  size_t pos = 0;
  auto next_line = [&]() {
    const size_t nl = data.find('\n', pos);
    EXPECT_NE(nl, std::string::npos) << "truncated frame";
    std::string line = data.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  while (pos < data.size()) {
    const std::string header = next_line();
    const auto parts = util::split(header, ' ');
    EXPECT_EQ(parts.size(), 4u) << "bad header: " << header;
    EXPECT_EQ(parts[0], "reply");
    ParsedReply reply;
    reply.id = parts[1];
    reply.ok = (parts[2] == "ok");
    const size_t bytes = std::stoul(parts[3]);
    EXPECT_LE(pos + bytes, data.size()) << "payload truncated";
    if (pos + bytes > data.size()) return replies;
    reply.payload = data.substr(pos, bytes);
    pos += bytes;
    for (;;) {
      const std::string line = next_line();
      if (line.rfind("note " + reply.id + " ", 0) == 0) {
        reply.notes.push_back(line.substr(6 + reply.id.size()));
        continue;
      }
      EXPECT_EQ(line.rfind("stats " + reply.id + " ", 0), 0u)
          << "unexpected frame line: " << line;
      for (const auto& token :
           util::split(line.substr(7 + reply.id.size()), ' ')) {
        const auto eq = token.find('=');
        EXPECT_NE(eq, std::string::npos) << token;
        if (eq == std::string::npos) continue;
        reply.stats[std::string(token.substr(0, eq))] =
            std::stoull(std::string(token.substr(eq + 1)));
      }
      break;
    }
    replies.push_back(std::move(reply));
  }
  return replies;
}

// The scripted request mix the determinism pins replay: every verb,
// repeated lookups, per-request overrides, and a sweep — the same
// shape the CI serve leg drives end-to-end through easyc_serve.
const std::vector<std::string>& request_mix() {
  static const std::vector<std::string> mix = {
      "ping id=m0",
      "version id=m1",
      "assess id=m2",
      "assess scenario=baseline set=aci=150 id=m3",
      "turnover editions=3 id=m4",
      "sweep axes=aci=25,100,300;util=0.6,0.8 records=40 batch=16 id=m5",
      "assess id=m6",  // byte-identical to m2, served warm
  };
  return mix;
}

std::vector<std::string> reference_payloads(service::AssessmentServer& server) {
  std::vector<std::string> payloads;
  for (const std::string& line : request_mix()) {
    const service::Reply reply = server.execute_line(line, "?");
    EXPECT_TRUE(reply.ok) << line << " -> " << reply.payload;
    payloads.push_back(reply.payload);
  }
  return payloads;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(ServeExecute, ColdRunsAreByteIdentical) {
  service::AssessmentServer a({.threads = 2});
  service::AssessmentServer b({.threads = 4});
  EXPECT_EQ(reference_payloads(a), reference_payloads(b));
}

TEST(ServeExecute, RepeatedAssessIsPureLookups) {
  service::AssessmentServer server({.threads = 2});
  const service::Reply cold = server.execute_line("assess id=1", "1");
  const service::Reply warm = server.execute_line("assess id=2", "2");
  ASSERT_TRUE(cold.ok);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(cold.payload, warm.payload);
  EXPECT_GT(cold.stats.delta.misses, 0u);
  EXPECT_EQ(warm.stats.delta.misses, 0u);
  EXPECT_GT(warm.stats.delta.hits, 0u);
  EXPECT_EQ(warm.stats.served, 2u);
}

TEST(ServeExecute, WarmRestartFromSnapshotIsByteIdentical) {
  const std::string cache = temp_path("serve_warm_restart.snap");
  std::remove(cache.c_str());  // stale snapshot from an earlier run
  std::vector<std::string> cold;
  {
    service::AssessmentServer server(
        {.threads = 2, .cache_file = cache});
    EXPECT_EQ(server.warm_start().at(0),
              "cache file " + cache + " not found; starting cold");
    cold = reference_payloads(server);
    const auto notes = server.save_snapshot();
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].rfind("cache saved: ", 0), 0u) << notes[0];
  }
  service::AssessmentServer server({.threads = 2, .cache_file = cache});
  const auto notes = server.warm_start();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].rfind("cache warm-start: ", 0), 0u) << notes[0];
  EXPECT_EQ(reference_payloads(server), cold);
  // The second run against the snapshot is ~pure lookups.
  const par::CacheStats stats = server.engine().cache_stats();
  EXPECT_GE(stats.hit_rate(), 0.99);
}

TEST(ServeExecute, InterleavedConcurrentRequestsAreByteIdentical) {
  service::AssessmentServer reference({.threads = 2});
  const std::vector<std::string> expected = reference_payloads(reference);

  service::AssessmentServer server({.threads = 4});
  std::vector<std::string> payloads(request_mix().size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < request_mix().size(); ++i) {
    threads.emplace_back([&, i] {
      const service::Reply reply =
          server.execute_line(request_mix()[i], "?");
      payloads[i] = reply.ok ? reply.payload : "ERR: " + reply.payload;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(payloads, expected);
}

TEST(ServeSession, StreamsFramesForEveryRequest) {
  service::AssessmentServer reference({.threads = 2});
  const std::vector<std::string> expected = reference_payloads(reference);

  std::string script = "# scripted mix (comments and blanks are skipped)\n\n";
  for (const std::string& line : request_mix()) script += line + "\n";

  service::AssessmentServer server({.threads = 2, .admission = 4});
  service::StringSource in(script);
  service::StringSink out;
  server.serve(in, out);

  const auto replies = parse_frames(out.take());
  ASSERT_EQ(replies.size(), request_mix().size());
  std::map<std::string, ParsedReply> by_id;
  for (const auto& reply : replies) {
    EXPECT_TRUE(reply.ok) << reply.id << ": " << reply.payload;
    by_id[reply.id] = reply;
  }
  for (size_t i = 0; i < request_mix().size(); ++i) {
    // Two-step concat: GCC 12's -Wrestrict false-positives on the
    // temporary from "m" + to_string(i) (PR105651).
    std::string id = "m";
    id += std::to_string(i);
    EXPECT_EQ(by_id.at(id).payload, expected[i]);
  }
}

TEST(ServeSession, MalformedLinesGetErrRepliesAndSessionSurvives) {
  service::AssessmentServer server({.threads = 2});
  service::StringSource in(
      "frobnicate id=1\n"
      "assess scenario=no-such-scenario id=2\n"
      "assess set=aci=1,2,3 id=3\n"          // multi-valued set=
      "sweep axes=bogus id=4\n"              // axis grammar error
      "turnover editions=1 id=5\n"
      "ping id=6\n");
  service::StringSink out;
  server.serve(in, out);
  const auto replies = parse_frames(out.take());
  ASSERT_EQ(replies.size(), 6u);
  // Concurrent executors may interleave the frames, so match by id.
  std::map<std::string, ParsedReply> by_id;
  for (const auto& reply : replies) by_id[reply.id] = reply;
  for (int i = 1; i <= 5; ++i) {
    const ParsedReply& reply = by_id.at(std::to_string(i));
    EXPECT_FALSE(reply.ok) << reply.payload;
    EXPECT_FALSE(reply.payload.empty());
    EXPECT_EQ(reply.payload.back(), '\n');
  }
  // The session survives every rejection: the ping still lands.
  EXPECT_TRUE(by_id.at("6").ok);
  EXPECT_EQ(by_id.at("6").payload, "pong\n");
}

TEST(ServeExecute, TurnoverAtTheEditionCapRuns) {
  // The longest accepted history assesses cleanly: every simulated
  // entrant's operation year passes validation (serve_protocol_test
  // checks that one edition more is refused at parse time).
  service::AssessmentServer server({.threads = 2});
  const service::Reply reply = server.execute_line(
      "turnover editions=" + std::to_string(service::kMaxTurnoverEditions),
      "cap");
  EXPECT_TRUE(reply.ok) << reply.payload;
}

TEST(ServeSession, OverlongLineIsRejectedNotFatal) {
  service::AssessmentServer server({.threads = 2, .max_line_bytes = 128});
  service::StringSource in("assess set=" + std::string(4096, 'x') +
                           "\nping id=p\n");
  service::StringSink out;
  server.serve(in, out);
  const auto replies = parse_frames(out.take());
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_NE(replies[0].payload.find("exceeds 128 bytes"), std::string::npos);
  EXPECT_TRUE(replies[1].ok);
  EXPECT_EQ(replies[1].payload, "pong\n");
}

TEST(ServeSession, OversizedSweepIsRejectedBeforeRunning) {
  service::AssessmentServer server({.threads = 2, .max_sweep_cells = 10});
  const service::Reply reply = server.execute_line(
      "sweep axes=aci=25:600:6;pue=1.1:1.6:6 id=big", "big");
  EXPECT_FALSE(reply.ok);
  EXPECT_NE(reply.payload.find("accepts at most 10"), std::string::npos);
  // No engine work was admitted...
  EXPECT_EQ(reply.stats.delta.lookups(), 0u);
  // ...and the server still serves.
  EXPECT_TRUE(server.execute_line("ping", "p").ok);
}

TEST(ServeSession, ShutdownVerbDrainsInflightAndSnapshotStaysValid) {
  const std::string cache = temp_path("serve_shutdown_inflight.snap");
  service::AssessmentServer server(
      {.threads = 2, .admission = 2, .cache_file = cache});
  // The shutdown request races a still-running sweep on the second
  // executor; both must reply before serve() returns.
  service::StringSource in(
      "sweep axes=aci=25:600:6;util=0.5,0.7,0.9 records=60 id=slow\n"
      "shutdown id=stop\n");
  service::StringSink out;
  server.serve(in, out);
  EXPECT_TRUE(server.shutdown_requested());

  const auto replies = parse_frames(out.take());
  ASSERT_EQ(replies.size(), 2u);
  std::map<std::string, ParsedReply> by_id;
  for (const auto& r : replies) by_id[r.id] = r;
  EXPECT_TRUE(by_id.at("slow").ok);
  EXPECT_TRUE(by_id.at("stop").ok);
  EXPECT_EQ(by_id.at("stop").payload, "shutting down\n");

  // Snapshot-after-drain round-trips: no partial state, no corruption.
  const auto notes = server.save_snapshot();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].rfind("cache saved: ", 0), 0u) << notes[0];
  analysis::AssessmentEngine probe;
  EXPECT_GT(probe.load_cache(cache), 0u);
}

TEST(ServeSession, RequestShutdownWakesABlockedReader) {
  service::AssessmentServer server({.threads = 2});
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  service::StringSink out;
  std::thread session([&] {
    service::FdSource in(fds[0], server.wake_fd());
    server.serve(in, out);
  });
  // No bytes ever arrive; the wake pipe alone must unblock the read —
  // the SIGTERM-while-idle path of easyc_serve.
  server.request_shutdown();
  session.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void send_all(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
}

std::string recv_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return out;
    out.append(buf, static_cast<size_t>(n));
  }
}

// One TCP exchange: send the lines, half-close, read to EOF.
std::vector<ParsedReply> tcp_exchange(uint16_t port,
                                      const std::string& lines) {
  const int fd = connect_loopback(port);
  send_all(fd, lines);
  ::shutdown(fd, SHUT_WR);
  const std::string data = recv_all(fd);
  ::close(fd);
  return parse_frames(data);
}

TEST(ServeTcp, SessionsShareOneHotEngine) {
  service::AssessmentServer server({.threads = 2, .admission = 2});
  const uint16_t port = server.listen_tcp(0);
  ASSERT_GT(port, 0);
  std::thread acceptor([&] { server.serve_tcp(); });

  const auto first = tcp_exchange(port, "assess id=a\n");
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].ok);
  EXPECT_GT(first[0].stats.at("misses"), 0u);

  // A later connection hits the same warm cache: zero misses, same
  // payload bytes.
  const auto second = tcp_exchange(port, "assess id=b\n");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].ok);
  EXPECT_EQ(second[0].payload, first[0].payload);
  EXPECT_EQ(second[0].stats.at("misses"), 0u);
  EXPECT_GT(second[0].stats.at("hits"), 0u);

  const auto bye = tcp_exchange(port, "shutdown id=z\n");
  ASSERT_EQ(bye.size(), 1u);
  EXPECT_EQ(bye[0].payload, "shutting down\n");
  acceptor.join();
}

TEST(ServeTcp, MidRequestDisconnectDoesNotKillTheServer) {
  service::AssessmentServer server({.threads = 2, .admission = 2});
  const uint16_t port = server.listen_tcp(0);
  std::thread acceptor([&] { server.serve_tcp(); });

  // Hang up immediately after sending a request: the reply lands on a
  // dead socket and is dropped; the server must keep serving.
  const int fd = connect_loopback(port);
  send_all(fd, "sweep axes=aci=25,100,300 records=30 id=gone\n");
  ::close(fd);

  const auto alive = tcp_exchange(port, "ping id=p\n");
  ASSERT_EQ(alive.size(), 1u);
  EXPECT_EQ(alive[0].payload, "pong\n");

  tcp_exchange(port, "shutdown id=z\n");
  acceptor.join();
}

}  // namespace
