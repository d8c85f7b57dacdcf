// Cache persistence: the cell codec round trip and its rejections,
// engine snapshot save -> load -> bit-identical warm-started results, rejection of
// corrupt / truncated / version- or scheme-mismatched snapshot files,
// and LRU eviction interplay with restored entries.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/turnover.hpp"
#include "easyc/codec.hpp"
#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"
#include "top500/history.hpp"
#include "util/serialize.hpp"

namespace easyc::analysis {
namespace {

namespace sc = scenarios;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "easyc_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const std::vector<top500::ListEdition>& history4() {
  static const auto kHistory = [] {
    top500::HistoryConfig cfg;
    cfg.editions = 4;
    return top500::generate_history(cfg);
  }();
  return kHistory;
}

ScenarioSet enhanced_only() {
  ScenarioSet set;
  set.add(sc::enhanced());
  return set;
}

void expect_identical(const std::vector<EditionAssessment>& a,
                      const std::vector<EditionAssessment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t e = 0; e < a.size(); ++e) {
    ASSERT_EQ(a[e].scenarios.size(), b[e].scenarios.size());
    for (size_t s = 0; s < a[e].scenarios.size(); ++s) {
      const ScenarioResults& ra = a[e].scenarios[s];
      const ScenarioResults& rb = b[e].scenarios[s];
      ASSERT_EQ(ra.operational.size(), rb.operational.size());
      for (size_t i = 0; i < ra.operational.size(); ++i) {
        // Bit-identity, not tolerance: persisted doubles must match
        // the recomputed ones exactly.
        ASSERT_EQ(ra.operational[i].has_value(),
                  rb.operational[i].has_value());
        if (ra.operational[i]) {
          EXPECT_EQ(std::bit_cast<uint64_t>(*ra.operational[i]),
                    std::bit_cast<uint64_t>(*rb.operational[i]));
        }
        ASSERT_EQ(ra.embodied[i].has_value(), rb.embodied[i].has_value());
        if (ra.embodied[i]) {
          EXPECT_EQ(std::bit_cast<uint64_t>(*ra.embodied[i]),
                    std::bit_cast<uint64_t>(*rb.embodied[i]));
        }
      }
    }
  }
}

// --- cell codec ------------------------------------------------------

std::string encoded(const model::CellValue& cell) {
  util::BinaryWriter w;
  model::encode_cell(w, cell);
  return w.bytes();
}

TEST(CellCodec, SuccessAndFailureCellsRoundTrip) {
  const auto records = top500::generate_records();
  const model::EasyCModel model(sc::enhanced().to_options());
  // Sweep enough records to hit both covered and uncovered systems on
  // both the operational and embodied side.
  int ok_seen = 0;
  int fail_seen = 0;
  for (size_t i = 0; i < 80; ++i) {
    const auto inputs =
        to_inputs(records[i], top500::DataVisibility::kTop500PlusPublic);
    const model::CellValue cell = model.assess_cell(inputs);
    const std::string bytes = encoded(cell);
    util::BinaryReader r(bytes);
    const model::CellValue back = model::decode_cell(r);
    EXPECT_TRUE(r.exhausted());
    // Re-encoding is the bitwise compare: every double, flag and code.
    EXPECT_EQ(encoded(back), bytes);

    ASSERT_EQ(back.operational.ok(), cell.operational.ok());
    EXPECT_EQ(back.operational.codes, cell.operational.codes);
    if (cell.operational.ok()) {
      ++ok_seen;
      EXPECT_EQ(std::bit_cast<uint64_t>(back.operational.value().mt_co2e),
                std::bit_cast<uint64_t>(cell.operational.value().mt_co2e));
      EXPECT_EQ(back.operational.value().path, cell.operational.value().path);
    } else {
      ++fail_seen;
    }
    ASSERT_EQ(back.embodied.ok(), cell.embodied.ok());
    EXPECT_EQ(back.embodied.codes, cell.embodied.codes);

    // The decoded codes render the scalar model's name and reasons.
    const auto want = model.assess(inputs);
    const auto got = model::render_assessment(back, inputs);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.operational.reasons(), want.operational.reasons());
    EXPECT_EQ(got.embodied.reasons(), want.embodied.reasons());
  }
  EXPECT_GT(ok_seen, 0);
  EXPECT_GT(fail_seen, 0);
}

// A cell whose operational side is a success with the given path byte,
// then a failed embodied side: ok flag, codes, and the result fields.
std::string cell_with_path(uint8_t path) {
  util::BinaryWriter w;
  w.boolean(true).u8(0);
  for (int i = 0; i < 5; ++i) w.f64(0.0);
  w.boolean(false).u8(path).f64(0.0);
  w.boolean(false).u8(model::reason::kNoCounts);
  return w.bytes();
}

TEST(CellCodec, BadEnergyPathByteIsRejected) {
  const std::string good = cell_with_path(0);
  util::BinaryReader ok(good);
  EXPECT_NO_THROW(model::decode_cell(ok));
  const std::string bad = cell_with_path(99);
  util::BinaryReader r(bad);
  EXPECT_THROW(model::decode_cell(r), util::CodecError);
}

TEST(CellCodec, UnknownReasonBitsAreRejected) {
  for (const auto& [op, emb] : {std::pair<uint8_t, uint8_t>{0x04, 0x01},
                                {0x80, 0x01},
                                {0x01, 0x10},
                                {0x01, 0xff}}) {
    util::BinaryWriter w;
    w.boolean(false).u8(op).boolean(false).u8(emb);
    util::BinaryReader r(w.bytes());
    EXPECT_THROW(model::decode_cell(r), util::CodecError)
        << int{op} << " " << int{emb};
  }
}

TEST(CellCodec, OkFlagContradictingCodesIsRejected) {
  {  // ok, yet a reason code is set
    util::BinaryWriter w;
    w.boolean(true).u8(model::reason::kNoEnergyPath);
    util::BinaryReader r(w.bytes());
    EXPECT_THROW(model::decode_cell(r), util::CodecError);
  }
  {  // failed, yet no reason code
    util::BinaryWriter w;
    w.boolean(false).u8(0).boolean(false).u8(model::reason::kNoCounts);
    util::BinaryReader r(w.bytes());
    EXPECT_THROW(model::decode_cell(r), util::CodecError);
  }
}

// --- engine snapshot round trip --------------------------------------

TEST(CachePersistence, WarmStartedEngineIsBitIdenticalAndPureLookups) {
  par::ThreadPool one(1);
  AssessmentEngine first({.pool = &one});
  const auto cold = first.run(history4(), enhanced_only());
  const auto path = temp_path("roundtrip.bin");
  first.save_cache(path);

  AssessmentEngine second({.pool = &one});
  const size_t loaded = second.load_cache(path);
  EXPECT_EQ(loaded, first.cache_stats().entries);
  EXPECT_EQ(second.cache_stats().entries, loaded);

  const auto warm = second.run(history4(), enhanced_only());
  expect_identical(cold, warm);
  // The whole run is served from the restored snapshot.
  EXPECT_EQ(second.cache_stats().misses, 0u);
  EXPECT_EQ(second.cache_stats().hits,
            static_cast<uint64_t>(history4().size()) * 500u);
}

TEST(CachePersistence, WarmStartMatchesTurnoverAnalysis) {
  par::ThreadPool one(1);
  AssessmentEngine first({.pool = &one});
  TurnoverOptions opts;
  opts.engine = &first;
  const auto cold_report = analyze_turnover(history4(), opts);
  const auto path = temp_path("turnover.bin");
  first.save_cache(path);

  AssessmentEngine second({.pool = &one});
  second.load_cache(path);
  TurnoverOptions warm_opts;
  warm_opts.engine = &second;
  const auto warm_report = analyze_turnover(history4(), warm_opts);

  EXPECT_DOUBLE_EQ(warm_report.cache.hit_rate(), 1.0);
  ASSERT_EQ(warm_report.editions.size(), cold_report.editions.size());
  for (size_t e = 0; e < warm_report.editions.size(); ++e) {
    EXPECT_EQ(std::bit_cast<uint64_t>(warm_report.editions[e].op_total_mt),
              std::bit_cast<uint64_t>(cold_report.editions[e].op_total_mt));
    EXPECT_EQ(std::bit_cast<uint64_t>(warm_report.editions[e].emb_total_mt),
              std::bit_cast<uint64_t>(cold_report.editions[e].emb_total_mt));
  }
}

TEST(CachePersistence, SnapshotOfColdCacheIsEmptyButValid) {
  AssessmentEngine engine;
  const auto path = temp_path("empty.bin");
  engine.save_cache(path);
  AssessmentEngine other;
  EXPECT_EQ(other.load_cache(path), 0u);
  EXPECT_EQ(other.cache_stats().entries, 0u);
}

TEST(CachePersistence, RestoreIntoWarmCacheKeepsResidentEntries) {
  par::ThreadPool one(1);
  auto records = top500::generate_records();
  records.resize(50);
  AssessmentEngine a({.pool = &one});
  a.assess(records, enhanced_only());
  const auto path = temp_path("merge.bin");
  a.save_cache(path);

  // b already assessed the same records: restore inserts nothing new
  // (first writer wins) and the next run still misses nothing.
  AssessmentEngine b({.pool = &one});
  b.assess(records, enhanced_only());
  const auto before = b.cache_stats();
  b.load_cache(path);
  EXPECT_EQ(b.cache_stats().entries, before.entries);
  b.assess(records, enhanced_only());
  EXPECT_EQ(b.cache_stats().since(before).misses, 0u);
}

// --- rejection of bad files -----------------------------------------

class CachePersistenceRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    par::ThreadPool one(1);
    AssessmentEngine engine({.pool = &one});
    auto records = top500::generate_records();
    records.resize(30);
    engine.assess(records, enhanced_only());
    path_ = temp_path("reject.bin");
    engine.save_cache(path_);
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), 36u);  // header + some payload
  }

  /// Write a mutated copy and expect load_cache to reject it.
  void expect_rejected(const std::string& mutated) {
    write_file(path_, mutated);
    AssessmentEngine fresh;
    EXPECT_THROW(fresh.load_cache(path_), util::CodecError);
    EXPECT_EQ(fresh.cache_stats().entries, 0u);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(CachePersistenceRejection, BadMagic) {
  std::string b = bytes_;
  b[0] = 'X';
  expect_rejected(b);
}

TEST_F(CachePersistenceRejection, FormatVersionMismatch) {
  std::string b = bytes_;
  b[8] = static_cast<char>(0x7f);  // u32 format version, little-endian
  expect_rejected(b);
}

TEST_F(CachePersistenceRejection, SchemeTagMismatch) {
  std::string b = bytes_;
  b[12] = static_cast<char>(b[12] ^ 0x01);  // u64 scheme tag
  expect_rejected(b);
}

TEST_F(CachePersistenceRejection, CorruptPayloadFailsChecksum) {
  std::string b = bytes_;
  b[b.size() - 1] = static_cast<char>(b[b.size() - 1] ^ 0x40);
  expect_rejected(b);
}

TEST_F(CachePersistenceRejection, TruncatedFile) {
  expect_rejected(bytes_.substr(0, bytes_.size() / 2));
  expect_rejected(bytes_.substr(0, 10));  // mid-header
  expect_rejected("");
}

TEST_F(CachePersistenceRejection, HeaderCountBeyondPayloadIsRejected) {
  // The u64 entry count (bytes 20..27) sits outside the checksummed
  // payload: a count the payload cannot hold is refused before any
  // entry is decoded or inserted — not a bad_alloc, not a half-loaded
  // cache.
  const size_t payload = bytes_.size() - 36;
  for (const uint64_t count : {uint64_t{1} << 60, uint64_t{payload}}) {
    std::string b = bytes_;
    for (int i = 0; i < 8; ++i) {
      b[20 + static_cast<size_t>(i)] = static_cast<char>(count >> (8 * i));
    }
    expect_rejected(b);
  }
}

TEST_F(CachePersistenceRejection, CodecVersion1SnapshotFailsSchemeTag) {
  // A snapshot an older build wrote under codec version 1 (whole
  // SystemAssessments) carries that version's scheme tag.
  const uint64_t v1 = AssessmentEngine::cache_scheme_tag(1);
  EXPECT_NE(v1, AssessmentEngine::cache_scheme_tag());
  std::string b = bytes_;
  for (int i = 0; i < 8; ++i) {
    b[12 + static_cast<size_t>(i)] = static_cast<char>(v1 >> (8 * i));
  }
  write_file(path_, b);
  AssessmentEngine fresh;
  try {
    fresh.load_cache(path_);
    ADD_FAILURE() << "a codec-1 snapshot loaded";
  } catch (const util::CodecError& e) {
    EXPECT_NE(std::string(e.what()).find("different key/value scheme"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fresh.cache_stats().entries, 0u);
}

TEST_F(CachePersistenceRejection, TrailingBytesAfterPayload) {
  // Appended garbage changes the checksum -> rejected before decode.
  expect_rejected(bytes_ + "extra");
}

TEST(CachePersistence, MissingFileThrowsPlainError) {
  AssessmentEngine engine;
  EXPECT_THROW(engine.load_cache(temp_path("does_not_exist.bin")),
               util::Error);
}

// --- capacity interplay ----------------------------------------------

TEST(CachePersistence, BoundedEngineRestoresWithinCapacityAndStaysExact) {
  par::ThreadPool one(1);
  AssessmentEngine unbounded({.pool = &one});
  const auto reference = unbounded.run(history4(), enhanced_only());
  const auto path = temp_path("bounded.bin");
  unbounded.save_cache(path);
  const uint64_t total = unbounded.cache_stats().entries;

  AssessmentEngine bounded(
      {.pool = &one, .cache_capacity = 64, .cache_shards = 4});
  const size_t carried = bounded.load_cache(path);
  EXPECT_EQ(carried, total);  // snapshot size is reported...
  const auto after_load = bounded.cache_stats();
  EXPECT_LE(after_load.entries, 64u);  // ...but residency honors the cap
  // Every entry dropped on the way in is accounted as an eviction.
  EXPECT_EQ(after_load.evictions, total - after_load.entries);

  // And a capacity-pressured warm start still computes correct results.
  expect_identical(reference, bounded.run(history4(), enhanced_only()));
}

}  // namespace
}  // namespace easyc::analysis
