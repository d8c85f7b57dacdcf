// Protocol layer of the assessment server: request parsing (including
// the rejection matrix for malformed lines — same posture as the cache
// codec's corruption matrix), reply framing, and the line reader's
// bounded-buffer behavior.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace service = easyc::service;
namespace analysis = easyc::analysis;

namespace {

TEST(ParseRequest, VerbsAndDefaults) {
  EXPECT_EQ(service::parse_request("ping").verb, service::Verb::kPing);
  EXPECT_EQ(service::parse_request("version").verb, service::Verb::kVersion);
  EXPECT_EQ(service::parse_request("shutdown").verb,
            service::Verb::kShutdown);

  const service::Request assess = service::parse_request("assess");
  EXPECT_EQ(assess.verb, service::Verb::kAssess);
  EXPECT_TRUE(assess.scenario.empty());
  EXPECT_TRUE(assess.id.empty());

  const service::Request turnover = service::parse_request("turnover");
  EXPECT_EQ(turnover.verb, service::Verb::kTurnover);
  EXPECT_EQ(turnover.editions, 8);
}

TEST(ParseRequest, AllKeys) {
  const service::Request assess = service::parse_request(
      "assess scenario=baseline set=aci=100;life=4 id=a-7");
  EXPECT_EQ(assess.scenario, "baseline");
  EXPECT_EQ(assess.overrides, "aci=100;life=4");
  EXPECT_EQ(assess.id, "a-7");

  const service::Request turnover =
      service::parse_request("turnover editions=12");
  EXPECT_EQ(turnover.editions, 12);

  const service::Request sweep = service::parse_request(
      "sweep axes=aci=25:600:6;pue=1.1,1.3 base=baseline batch=32 "
      "stats=streaming records=100 refine=2@2");
  EXPECT_EQ(sweep.axes, "aci=25:600:6;pue=1.1,1.3");
  EXPECT_EQ(sweep.base, "baseline");
  EXPECT_EQ(sweep.batch, 32u);
  EXPECT_EQ(sweep.stats, analysis::SweepStatsMode::kStreaming);
  EXPECT_EQ(sweep.records, 100u);
  ASSERT_TRUE(sweep.refine.has_value());
  EXPECT_EQ(sweep.refine->top_axes, 2u);
  EXPECT_EQ(sweep.refine->rounds, 2u);
}

TEST(ParseRequest, WhitespaceIsFlexible) {
  const service::Request req =
      service::parse_request("  turnover \t editions=4  ");
  EXPECT_EQ(req.verb, service::Verb::kTurnover);
  EXPECT_EQ(req.editions, 4);
}

// The editions cap is the longest simulated history whose entrants all
// carry a valid operation year: the cap itself parses, one more is
// refused at parse time with the range message.
TEST(ParseRequest, TurnoverEditionsCapMatchesTheYearValidator) {
  const int cap = service::kMaxTurnoverEditions;
  EXPECT_EQ(cap, easyc::top500::kMaxHistoryEditions);
  EXPECT_EQ(easyc::top500::kFirstEditionYear + cap / 2,
            easyc::model::kMaxOperationYear);
  EXPECT_EQ(
      service::parse_request("turnover editions=" + std::to_string(cap))
          .editions,
      cap);
  try {
    service::parse_request("turnover editions=" + std::to_string(cap + 1));
    ADD_FAILURE() << "editions=" << cap + 1 << " was accepted";
  } catch (const service::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("editions= wants 2.." +
                                         std::to_string(cap)),
              std::string::npos)
        << e.what();
  }
}

// The rejection matrix: every malformed line raises a clean
// ProtocolError (caught by the session loop and turned into an err
// reply) — never a crash, never a silently-ignored key.
TEST(ParseRequest, RejectionMatrix) {
  const std::vector<std::string> bad = {
      "",                                // empty
      "   ",                             // whitespace only
      "frobnicate",                      // unknown verb
      "PING",                            // verbs are case-sensitive
      "ping extra",                      // token without '='
      "ping =value",                     // empty key
      "ping id=",                        // empty value
      "ping color=red",                  // key the verb does not take
      "assess axes=aci=1,2",             // sweep key on assess
      "assess scenario=a scenario=b",    // duplicate key
      "turnover editions=abc",           // not a number
      "turnover editions=1",             // below minimum
      "turnover editions=0",
      "turnover editions=-3",
      "turnover editions=9999",          // above kMaxTurnoverEditions
      "sweep",                           // missing axes=
      "sweep base=baseline",             // still missing axes=
      "sweep axes=aci=1,2 batch=0",      // batch must be positive
      "sweep axes=aci=1,2 records=0",
      "sweep axes=aci=1,2 stats=bogus",
      "sweep axes=aci=1,2 refine=2",     // refine wants K@R
      "sweep axes=aci=1,2 refine=0@1",
      "sweep axes=aci=1,2 refine=1@0",
      "ping id=" + std::string(service::kMaxRequestIdBytes + 1, 'x'),
      "ping id=\x01"
      "bad",                             // non-printable id
  };
  for (const std::string& line : bad) {
    EXPECT_THROW(service::parse_request(line), easyc::util::Error)
        << "accepted: '" << line << "'";
  }
}

TEST(ParseRefine, RoundTripAndRejects) {
  const analysis::RefineOptions r = service::parse_refine("3@2");
  EXPECT_EQ(r.top_axes, 3u);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_THROW(service::parse_refine("3"), easyc::util::ParseError);
  EXPECT_THROW(service::parse_refine("@2"), easyc::util::ParseError);
  EXPECT_THROW(service::parse_refine("a@b"), easyc::util::ParseError);
}

TEST(FrameReply, GoldenBytes) {
  service::Reply reply;
  reply.id = "7";
  reply.ok = true;
  reply.payload = "pong\n";
  reply.notes = {"warmed up", "multi\nline note"};
  reply.stats.delta = {.hits = 3, .misses = 1, .evictions = 0, .entries = 9};
  reply.stats.cumulative = {
      .hits = 30, .misses = 10, .evictions = 2, .entries = 9};
  reply.stats.served = 5;
  EXPECT_EQ(service::frame_reply(reply),
            "reply 7 ok 5\n"
            "pong\n"
            "note 7 warmed up\n"
            "note 7 multi line note\n"  // newline flattened
            "stats 7 hits=3 misses=1 evictions=0 entries=9 cum-hits=30 "
            "cum-misses=10 served=5\n");

  service::Reply err;
  err.id = "9";
  err.ok = false;
  err.payload = "protocol error: nope\n";
  EXPECT_EQ(service::frame_reply(err),
            "reply 9 err 21\n"
            "protocol error: nope\n"
            "stats 9 hits=0 misses=0 evictions=0 entries=0 cum-hits=0 "
            "cum-misses=0 served=0\n");
}

std::vector<std::pair<service::LineReader::Event, std::string>> drain(
    service::ByteSource& source, size_t max_line) {
  service::LineReader reader(source, max_line);
  std::vector<std::pair<service::LineReader::Event, std::string>> events;
  std::string line;
  for (;;) {
    const auto event = reader.next(line);
    events.emplace_back(event, event == service::LineReader::Event::kLine
                                   ? line
                                   : std::string());
    if (event == service::LineReader::Event::kEof) return events;
  }
}

TEST(LineReader, SplitsAndStripsCr) {
  service::StringSource source("ping\r\nversion\nlast-no-newline");
  const auto events = drain(source, 1024);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].second, "ping");
  EXPECT_EQ(events[1].second, "version");
  EXPECT_EQ(events[2].second, "last-no-newline");
  EXPECT_EQ(events[3].first, service::LineReader::Event::kEof);
}

TEST(LineReader, OverlongLineIsSkippedNotFatal) {
  // An oversized line yields exactly one kOverlong and the stream
  // resumes at the next request — one bad request, one error reply.
  const std::string big(5000, 'x');
  service::StringSource source("ping\n" + big + "\nversion\n");
  const auto events = drain(source, 64);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].second, "ping");
  EXPECT_EQ(events[1].first, service::LineReader::Event::kOverlong);
  EXPECT_EQ(events[2].second, "version");
  EXPECT_EQ(events[3].first, service::LineReader::Event::kEof);
}

TEST(LineReader, OverlongFinalLineWithoutNewline) {
  service::StringSource source(std::string(5000, 'y'));
  const auto events = drain(source, 64);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, service::LineReader::Event::kOverlong);
  EXPECT_EQ(events[1].first, service::LineReader::Event::kEof);
}

TEST(LineReader, EmptyStream) {
  service::StringSource source("");
  const auto events = drain(source, 64);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, service::LineReader::Event::kEof);
}

}  // namespace
