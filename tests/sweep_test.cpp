// Sweep engine: axis-spec grammar, grid expansion counts and naming,
// axis-override correctness against hand-built specs, Monte-Carlo seed
// determinism, and the engine guarantees (1-vs-N-thread and batch-size
// bit-identity, cache amortization across aliased cells, and cells
// summed from the block buffer matching make_sweep_cell bit for bit).
#include "analysis/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>
#include <utility>

#include "analysis/sweep_shard.hpp"
#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace easyc::analysis {
namespace {

namespace sc = scenarios;

// A 60-record slice of the generated list: plenty of coverage variety,
// fast enough to sweep many times in one test binary.
const std::vector<top500::SystemRecord>& records60() {
  static const auto kRecords = [] {
    auto all = top500::generate_records();
    all.resize(60);
    return all;
  }();
  return kRecords;
}

// --- grammar --------------------------------------------------------

TEST(SweepSpec, AxisNamesRoundTripAndAliases) {
  for (const SweepAxis a :
       {SweepAxis::kAci, SweepAxis::kPue, SweepAxis::kFab,
        SweepAxis::kUtilization, SweepAxis::kLifetime}) {
    EXPECT_EQ(axis_from_name(axis_name(a)), a);
  }
  EXPECT_EQ(axis_from_name("utilization"), SweepAxis::kUtilization);
  EXPECT_EQ(axis_from_name("lifetime"), SweepAxis::kLifetime);
  EXPECT_FALSE(axis_from_name("watts").has_value());
}

TEST(SweepSpec, ParsesListsRangesAndMonteCarlo) {
  const auto spec =
      SweepSpec::parse("aci=25,100; pue=1.1:1.5:3 ;life=4,8;mc=16@7");
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes[0].axis, SweepAxis::kAci);
  EXPECT_EQ(spec.axes[0].values, (std::vector<double>{25.0, 100.0}));
  EXPECT_EQ(spec.axes[1].axis, SweepAxis::kPue);
  ASSERT_EQ(spec.axes[1].values.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.axes[1].values[0], 1.1);
  EXPECT_NEAR(spec.axes[1].values[1], 1.3, 1e-12);
  EXPECT_DOUBLE_EQ(spec.axes[1].values[2], 1.5);
  EXPECT_EQ(spec.axes[2].axis, SweepAxis::kLifetime);
  ASSERT_TRUE(spec.monte_carlo.has_value());
  EXPECT_EQ(spec.monte_carlo->draws, 16u);
  EXPECT_EQ(spec.monte_carlo->seed, 7u);

  EXPECT_EQ(spec.grid_cells(), 12u);
  // 1 base + 2 endpoints per multi-valued axis + grid + draws.
  EXPECT_EQ(spec.total_cells(), 1u + 6u + 12u + 16u);
}

TEST(SweepSpec, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(SweepSpec::parse(""), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("watts=1,2"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=25;aci=50"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=25,banana"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=1:2:1"), util::ParseError);   // n < 2
  EXPECT_THROW(SweepSpec::parse("aci=5:5:3"), util::ParseError);   // lo == hi
  EXPECT_THROW(SweepSpec::parse("aci=1:2"), util::ParseError);     // not lo:hi:n
  EXPECT_THROW(SweepSpec::parse("aci=25,25"), util::ParseError);   // duplicate
  EXPECT_THROW(SweepSpec::parse("aci=25;;pue=1.2"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("mc=16"), util::ParseError);       // no seed
  EXPECT_THROW(SweepSpec::parse("mc=0@7"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("mc=2@-1"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("mc=4@1;mc=4@2"), util::ParseError);
}

TEST(SweepSpec, ParseRejectsPhysicallyMeaninglessValues) {
  EXPECT_THROW(SweepSpec::parse("pue=-1"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("pue=0.5,1.2"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("util=0,0.5"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("util=0.5,1.5"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("life=0:8:5"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("life=-4,6"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("aci=-5,100"), util::ParseError);
  EXPECT_THROW(SweepSpec::parse("fab=-0.1,0.2"), util::ParseError);

  // Boundary values are legal: a carbon-free grid, a perfect facility,
  // full utilization.
  EXPECT_NO_THROW(SweepSpec::parse("aci=0,100;pue=1,1.2;util=0.5,1"));

  // The message names the axis, the value, and the violated range.
  try {
    SweepSpec::parse("util=0.5,0");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("util"), std::string::npos) << what;
    EXPECT_NE(what.find("value 0"), std::string::npos) << what;
    EXPECT_NE(what.find("(0,1]"), std::string::npos) << what;
  }

  // ScenarioSet::add stays as the backstop for hand-built SweepSpecs
  // that never went through the grammar.
  SweepSpec bad;
  bad.base = sc::enhanced();
  bad.axes.push_back({SweepAxis::kPue, {0.5, 1.2}});
  EXPECT_THROW(expand_sweep(bad), util::Error);
}

// --- expansion ------------------------------------------------------

TEST(SweepSpec, ApplyAxisMatchesHandBuiltSpecs) {
  // The stock renewables-grid what-if *is* enhanced + aci=25: deriving
  // it through the axis machinery must land on the same assessment
  // identity (equal fingerprints => the memo cache serves either).
  EXPECT_EQ(apply_axis(sc::enhanced(), SweepAxis::kAci, 25.0).fingerprint(),
            sc::renewables_grid().fingerprint());

  // The lifetime axis only reaches annualization: same fingerprint as
  // its base (the cache win behind cheap lifetime sweeps), new
  // service_years — exactly the stock extended-lifetime what-if.
  const ScenarioSpec life8 = apply_axis(sc::enhanced(), SweepAxis::kLifetime,
                                        8.0);
  EXPECT_EQ(life8.fingerprint(), sc::enhanced().fingerprint());
  EXPECT_DOUBLE_EQ(life8.service_years,
                   sc::extended_lifetime().service_years);

  const auto opt = apply_axis(sc::baseline(), SweepAxis::kPue, 1.25)
                       .to_options();
  EXPECT_EQ(opt.operational.pue_override, 1.25);
  const auto fab = apply_axis(sc::baseline(), SweepAxis::kFab, 0.2);
  EXPECT_EQ(fab.fab_aci_kg_kwh, 0.2);
  const auto util = apply_axis(sc::baseline(), SweepAxis::kUtilization, 0.6);
  EXPECT_EQ(util.default_utilization, 0.6);
}

TEST(SweepExpansion, NamesAreOrderedUniqueAndCorrect) {
  const auto spec = SweepSpec::parse("aci=25,100;life=4,8;mc=3@9");
  const ScenarioSet set = expand_sweep(spec);
  ASSERT_EQ(set.size(), spec.total_cells());

  EXPECT_EQ(set.specs().front().name, "sweep/base");
  EXPECT_EQ(set.specs().front().fingerprint(), sc::enhanced().fingerprint());
  EXPECT_TRUE(set.contains("sweep/axis/aci=25"));
  EXPECT_TRUE(set.contains("sweep/axis/aci=100"));
  EXPECT_TRUE(set.contains("sweep/axis/life=4"));
  EXPECT_TRUE(set.contains("sweep/mc/0002"));
  EXPECT_FALSE(set.contains("sweep/mc/0003"));

  // A grid cell carries exactly the overrides its name declares —
  // identical to deriving the same cell by hand.
  const ScenarioSpec& cell = set.at("sweep/grid/aci=25/life=4");
  const ScenarioSpec by_hand = apply_axis(
      apply_axis(sc::enhanced(), SweepAxis::kAci, 25.0),
      SweepAxis::kLifetime, 4.0);
  EXPECT_EQ(cell.fingerprint(), by_hand.fingerprint());
  EXPECT_DOUBLE_EQ(cell.service_years, 4.0);
  EXPECT_EQ(cell.aci_override_g_kwh, 25.0);
  // ...and the single-axis endpoint aliases the stock what-if.
  EXPECT_EQ(set.at("sweep/axis/aci=25").fingerprint(),
            sc::renewables_grid().fingerprint());
}

TEST(SweepExpansion, MonteCarloDrawsAreSeededAndSpecExpressible) {
  const auto a = expand_sweep(SweepSpec::parse("mc=6@42"));
  const auto b = expand_sweep(SweepSpec::parse("mc=6@42"));
  const auto c = expand_sweep(SweepSpec::parse("mc=6@43"));
  ASSERT_EQ(a.size(), 7u);  // base + draws
  bool any_differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.specs()[i].fingerprint(), b.specs()[i].fingerprint());
    any_differs |= a.specs()[i].fingerprint() != c.specs()[i].fingerprint();
  }
  EXPECT_TRUE(any_differs);

  // Draws perturb the spec-expressible priors around the base values.
  const ScenarioSpec& draw = a.at("sweep/mc/0000");
  ASSERT_TRUE(draw.default_utilization.has_value());
  ASSERT_TRUE(draw.fab_aci_kg_kwh.has_value());
  const model::PriorRanges ranges;
  const model::EasyCOptions base = sc::enhanced().to_options();
  EXPECT_NEAR(*draw.default_utilization, base.operational.default_utilization,
              base.operational.default_utilization * ranges.utilization_rel +
                  1e-12);
  EXPECT_NEAR(*draw.fab_aci_kg_kwh, base.embodied.fab_aci_kg_kwh,
              base.embodied.fab_aci_kg_kwh * ranges.fab_aci_rel + 1e-12);
  // No absolute ACI override on the base scenario => none on the draw.
  EXPECT_FALSE(draw.aci_override_g_kwh.has_value());
}

// --- engine ---------------------------------------------------------

TEST(SweepEngine, ReportIsBitIdenticalForAnyThreadCountAndBatchSize) {
  const auto spec = SweepSpec::parse("aci=25,300;util=0.6:0.9:3;mc=8@3");

  par::ThreadPool serial(1);
  SweepEngine::Options one;
  one.pool = &serial;
  one.batch_size = 5;
  const SweepReport a = SweepEngine(one).run(records60(), spec);

  par::ThreadPool wide(4);
  SweepEngine::Options many;
  many.pool = &wide;
  many.batch_size = 1000;  // everything in one block
  const SweepReport b = SweepEngine(many).run(records60(), spec);

  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].name, b.cells[i].name);
    EXPECT_EQ(a.cells[i].op_total_mt, b.cells[i].op_total_mt) << i;
    EXPECT_EQ(a.cells[i].emb_total_mt, b.cells[i].emb_total_mt) << i;
    EXPECT_EQ(a.cells[i].annualized_mt, b.cells[i].annualized_mt) << i;
  }
  EXPECT_EQ(render_sweep_report(a), render_sweep_report(b));
  EXPECT_NE(a.batches, b.batches);  // the runs really differed in shape
}

TEST(SweepEngine, SeedDeterminismReachesTheReport) {
  const SweepReport a =
      SweepEngine().run(records60(), SweepSpec::parse("mc=12@7"));
  const SweepReport b =
      SweepEngine().run(records60(), SweepSpec::parse("mc=12@7"));
  const SweepReport c =
      SweepEngine().run(records60(), SweepSpec::parse("mc=12@8"));
  EXPECT_EQ(render_sweep_report(a), render_sweep_report(b));
  EXPECT_NE(render_sweep_report(a), render_sweep_report(c));
}

TEST(SweepEngine, LifetimeAxisCellsAliasTheirBaseAssessments) {
  // life is excluded from the assessment fingerprint, so a pure
  // lifetime sweep computes each record exactly once — every other
  // cell is lookups. 5 cells (base + 2 endpoints + 2 grid) x 60
  // records = 300 lookups, 60 misses.
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  const SweepReport r =
      SweepEngine(opt).run(records60(), SweepSpec::parse("life=4,8"));
  EXPECT_EQ(r.cells.size(), 5u);
  EXPECT_EQ(r.cache.lookups(), 300u);
  EXPECT_EQ(r.cache.misses, 60u);
  EXPECT_EQ(r.cache.hits, 240u);

  // Same engine, same sweep: pure lookups, byte-identical report.
  const SweepReport warm =
      SweepEngine(opt).run(records60(), SweepSpec::parse("life=4,8"));
  EXPECT_DOUBLE_EQ(warm.cache.hit_rate(), 1.0);
  EXPECT_EQ(render_sweep_report(r), render_sweep_report(warm));
}

TEST(SweepEngine, TornadoSwingsPointTheRightWay) {
  const SweepReport r = SweepEngine().run(
      records60(), SweepSpec::parse("aci=25,600;life=4,8"));
  ASSERT_EQ(r.tornado.size(), 2u);

  const TornadoRow& aci = r.tornado[0];
  EXPECT_EQ(aci.axis, SweepAxis::kAci);
  EXPECT_DOUBLE_EQ(aci.low, 25.0);
  EXPECT_DOUBLE_EQ(aci.high, 600.0);
  // A dirtier grid means more operational carbon.
  EXPECT_GT(aci.swing_mt, 0.0);
  EXPECT_GT(aci.op_max_abs_pct, 100.0);   // 25 -> 600 is a 24x ACI
  EXPECT_DOUBLE_EQ(aci.emb_max_abs_pct, 0.0);  // embodied ignores the grid

  const TornadoRow& life = r.tornado[1];
  EXPECT_EQ(life.axis, SweepAxis::kLifetime);
  // Longer amortization lowers the annualized total...
  EXPECT_LT(life.swing_mt, 0.0);
  // ...without touching any per-record assessment.
  EXPECT_DOUBLE_EQ(life.op_max_abs_pct, 0.0);
  EXPECT_DOUBLE_EQ(life.emb_max_abs_pct, 0.0);

  // An endpoint cell and a grid cell that share every model-reaching
  // override are the same assessment under different names (the
  // endpoint keeps life at base 6, the grid cell sets life=4 — but
  // the operational total never depends on life); their per-record
  // aggregates must agree exactly.
  const auto cell = [&](const std::string& name) -> const SweepCell& {
    for (const auto& c : r.cells) {
      if (c.name == name) return c;
    }
    throw util::Error("no cell named " + name);
  };
  EXPECT_DOUBLE_EQ(cell("sweep/axis/aci=25").op_total_mt,
                   cell("sweep/grid/aci=25/life=4").op_total_mt);
}

// --- stats modes ----------------------------------------------------

TEST(SweepStatsMode, NamesRoundTrip) {
  for (const SweepStatsMode m :
       {SweepStatsMode::kAuto, SweepStatsMode::kExact,
        SweepStatsMode::kStreaming}) {
    EXPECT_EQ(sweep_stats_mode_from_name(sweep_stats_mode_name(m)), m);
  }
  EXPECT_FALSE(sweep_stats_mode_from_name("approximate").has_value());
}

TEST(SweepStatsMode, AutoStaysExactBelowTheThreshold) {
  // Every sweep in this suite is far below kStreamingStatsThreshold,
  // so kAuto (the default) must keep the historical exact reduction —
  // the byte-identity guarantee against pre-streaming reports.
  const auto spec = SweepSpec::parse("aci=25,300;life=4,8");
  const SweepReport r = SweepEngine().run(records60(), spec);
  EXPECT_FALSE(r.streaming_stats);
  EXPECT_EQ(r.total_cells, spec.total_cells());

  SweepEngine::Options opt;
  opt.stats = SweepStatsMode::kStreaming;
  EXPECT_TRUE(SweepEngine(opt).run(records60(), spec).streaming_stats);
}

TEST(SweepStatsMode, StreamingMatchesExactOnEverythingButOrderStats) {
  const auto spec = SweepSpec::parse("aci=25:600:4;util=0.6:0.9:3;mc=16@5");

  SweepEngine::Options exact_opt;
  exact_opt.stats = SweepStatsMode::kExact;
  const SweepReport exact = SweepEngine(exact_opt).run(records60(), spec);

  SweepEngine::Options stream_opt;
  stream_opt.stats = SweepStatsMode::kStreaming;
  const SweepReport stream = SweepEngine(stream_opt).run(records60(), spec);

  // Cells, tornado, base: reduction mode never touches them.
  ASSERT_EQ(stream.cells.size(), exact.cells.size());
  for (size_t i = 0; i < exact.cells.size(); ++i) {
    EXPECT_EQ(stream.cells[i].annualized_mt, exact.cells[i].annualized_mt);
  }
  ASSERT_EQ(stream.tornado.size(), exact.tornado.size());
  for (size_t i = 0; i < exact.tornado.size(); ++i) {
    EXPECT_EQ(stream.tornado[i].swing_mt, exact.tornado[i].swing_mt);
  }

  // The moment statistics are bit-equal (Kahan total / exact min-max);
  // the P² order statistics track the sorted ones within tolerance.
  for (const auto& [s, e] :
       {std::pair(stream.annualized_mt, exact.annualized_mt),
        std::pair(stream.op_total_mt, exact.op_total_mt),
        std::pair(stream.emb_total_mt, exact.emb_total_mt)}) {
    EXPECT_EQ(s.count, e.count);
    EXPECT_EQ(s.total, e.total);
    EXPECT_EQ(s.mean, e.mean);
    EXPECT_EQ(s.min, e.min);
    EXPECT_EQ(s.max, e.max);
    const double spread = std::max(e.max - e.min, 1e-12);
    EXPECT_NEAR(s.median, e.median, 0.15 * spread);
    EXPECT_NEAR(s.p05, e.p05, 0.15 * spread);
    EXPECT_NEAR(s.p95, e.p95, 0.15 * spread);
  }
}

TEST(SweepStatsMode, StreamingReportIsBitIdenticalAcrossThreadsAndBatches) {
  // The streaming reduction runs in expansion order no matter how the
  // batches land on the pool, so its approximation is the *same*
  // approximation everywhere — the byte-identity guarantee holds in
  // streaming mode too.
  const auto spec = SweepSpec::parse("aci=25:600:4;util=0.6,0.9;mc=8@3");

  par::ThreadPool serial(1);
  SweepEngine::Options one;
  one.pool = &serial;
  one.batch_size = 5;
  one.stats = SweepStatsMode::kStreaming;
  one.retain_cells = false;

  par::ThreadPool wide(4);
  SweepEngine::Options many;
  many.pool = &wide;
  many.batch_size = 1000;
  many.stats = SweepStatsMode::kStreaming;

  const SweepReport a = SweepEngine(one).run(records60(), spec);
  const SweepReport b = SweepEngine(many).run(records60(), spec);
  EXPECT_EQ(render_sweep_report(a), render_sweep_report(b));
}

// --- per-cell export ------------------------------------------------

TEST(SweepCellExport, CsvRoundTripsAndMatchesTheReport) {
  const auto spec = SweepSpec::parse("aci=25,300;life=4,8;mc=4@9");
  std::ostringstream csv;
  CsvCellSink sink(csv);
  const SweepReport r = SweepEngine().run(records60(), spec, &sink);

  const util::CsvTable t = util::CsvTable::parse(csv.str());
  EXPECT_EQ(t.header(), CsvCellSink::columns());
  ASSERT_EQ(t.num_rows(), r.cells.size());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(t.cell(i, "round"), "0");
    EXPECT_EQ(t.cell_int(i, "index"), static_cast<long long>(i));
    EXPECT_EQ(t.cell(i, "scenario"), r.cells[i].name);
    EXPECT_EQ(t.cell(i, "kind"), cell_kind_name(r.cells[i].kind));
    // Aggregates are written as %.17g, which round-trips doubles
    // exactly.
    EXPECT_EQ(t.cell_double(i, "op_total_mt"), r.cells[i].op_total_mt);
    EXPECT_EQ(t.cell_double(i, "emb_total_mt"), r.cells[i].emb_total_mt);
    EXPECT_EQ(t.cell_double(i, "annualized_mt"), r.cells[i].annualized_mt);
    EXPECT_EQ(t.cell_int(i, "op_covered"), r.cells[i].op_covered);
    EXPECT_EQ(t.cell_int(i, "emb_covered"), r.cells[i].emb_covered);
  }

  // A grid cell's coordinate columns carry exactly its name's declared
  // values; axes the cell leaves at the model default stay empty.
  bool found = false;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (t.cell(i, "scenario") != "sweep/grid/aci=25/life=4") continue;
    found = true;
    EXPECT_EQ(t.cell(i, "kind"), "grid");
    EXPECT_EQ(t.cell_double(i, "aci_g_kwh"), 25.0);
    EXPECT_EQ(t.cell_double(i, "service_years"), 4.0);
    EXPECT_TRUE(t.cell(i, "pue").empty());
    EXPECT_TRUE(t.cell(i, "fab_kg_kwh").empty());
  }
  EXPECT_TRUE(found);
}

TEST(SweepCellExport, QuotesFieldsEmbeddingDelimiters) {
  // A base scenario whose label embeds commas, quotes, and a newline:
  // the cell descriptions inherit it, so an unquoted writer would
  // shear every row. The export must round-trip it through a strict
  // RFC-4180 reader.
  ScenarioSpec base = sc::enhanced();
  base.name = "procurement, 2025 \"winter\"\nrevision";
  const SweepSpec spec = SweepSpec::parse("life=4,8", base);

  std::ostringstream csv;
  CsvCellSink sink(csv);
  SweepEngine().run(records60(), spec, &sink);

  const util::CsvTable t = util::CsvTable::parse(csv.str());
  EXPECT_EQ(t.cell(0, "scenario"), "sweep/base");
  EXPECT_EQ(t.cell(0, "description"),
            "sweep base (procurement, 2025 \"winter\"\nrevision)");
}

TEST(SweepCellExport, FileIsByteIdenticalForThreadsBatchesAndCacheState) {
  const auto spec = SweepSpec::parse("aci=25,300;util=0.6:0.9:3");

  par::ThreadPool serial(1);
  std::ostringstream a;
  {
    SweepEngine::Options opt;
    opt.pool = &serial;
    opt.batch_size = 3;
    CsvCellSink sink(a);
    SweepEngine(opt).run(records60(), spec, &sink);
  }

  par::ThreadPool wide(4);
  AssessmentEngine shared({.pool = &wide});
  std::ostringstream b, c;
  {
    SweepEngine::Options opt;
    opt.engine = &shared;
    opt.batch_size = 1000;  // everything in one block
    CsvCellSink sink(b);
    SweepEngine(opt).run(records60(), spec, &sink);
  }
  {
    SweepEngine::Options opt;  // same engine again: warm cache
    opt.engine = &shared;
    CsvCellSink sink(c);
    SweepEngine(opt).run(records60(), spec, &sink);
  }
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.str(), c.str());
}

// --- adaptive refinement --------------------------------------------

TEST(SweepAdaptive, RefinesTheSteepestAxisAndHitsTheCacheHarder) {
  const auto spec = SweepSpec::parse("aci=25:600:4;pue=1.1:1.6:3");
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  RefineOptions refine;
  refine.top_axes = 1;
  refine.rounds = 2;
  refine.points = 3;
  const SweepReport r =
      SweepEngine(opt).run_adaptive(records60(), spec, refine);

  ASSERT_EQ(r.refinement.size(), 3u);  // coarse + 2 refinement rounds
  EXPECT_EQ(r.refinement[0].round, 0u);
  EXPECT_TRUE(r.refinement[0].refined.empty());
  size_t grid_values = 4;
  for (size_t i = 1; i < r.refinement.size(); ++i) {
    const auto& round = r.refinement[i];
    EXPECT_EQ(round.round, i);
    ASSERT_EQ(round.refined.size(), 1u);
    const RefinedAxis& ax = round.refined[0];
    // A 24x ACI range dwarfs the PUE swing, so ACI is the axis picked.
    EXPECT_EQ(ax.axis, SweepAxis::kAci);
    EXPECT_EQ(ax.added, 3u);
    EXPECT_LT(ax.seg_lo, ax.seg_hi);
    EXPECT_GE(ax.seg_lo, 25.0);
    EXPECT_LE(ax.seg_hi, 600.0);
    grid_values += ax.added;
    // Every previous value is kept, so a refinement round re-runs the
    // old grid from cache and out-hits the coarse round.
    EXPECT_GT(round.cache.hit_rate(), r.refinement[0].cache.hit_rate());
  }
  // The final report describes the final (densified) grid...
  EXPECT_EQ(r.grid_cells, grid_values * 3);
  EXPECT_EQ(r.refinement.back().cells, r.cells.size());
  // ...and its cache stats are cumulative over all rounds.
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& round : r.refinement) {
    hits += round.cache.hits;
    misses += round.cache.misses;
  }
  EXPECT_EQ(r.cache.hits, hits);
  EXPECT_EQ(r.cache.misses, misses);
}

TEST(SweepAdaptive, StopsWhenNothingCanBeRefined) {
  // A single two-point axis refines once... and then keeps finding new
  // in-segment values, so cap by rounds; mc-only sweeps have no
  // multi-valued axes at all and stop immediately.
  AssessmentEngine engine;
  SweepEngine::Options opt;
  opt.engine = &engine;
  RefineOptions refine;
  refine.rounds = 3;
  const SweepReport mc_only =
      SweepEngine(opt).run_adaptive(records60(), SweepSpec::parse("mc=4@1"),
                                    refine);
  ASSERT_EQ(mc_only.refinement.size(), 1u);  // coarse only
  EXPECT_TRUE(mc_only.refinement[0].refined.empty());
}

TEST(SweepAdaptive, ReportAndExportAreIdenticalAcrossThreadsAndCacheState) {
  const auto spec = SweepSpec::parse("aci=25:600:4;util=0.6,0.9");
  RefineOptions refine;
  refine.top_axes = 2;
  refine.rounds = 2;

  struct Run {
    std::string report;
    std::string csv;
    double hit_rate = 0.0;
  };
  auto run_with = [&](par::ThreadPool& pool, bool prewarm) {
    AssessmentEngine engine({.pool = &pool});
    SweepEngine::Options opt;
    opt.engine = &engine;
    if (prewarm) {
      SweepEngine(opt).run_adaptive(records60(), spec, refine);
    }
    std::ostringstream csv;
    CsvCellSink sink(csv);
    const SweepReport r =
        SweepEngine(opt).run_adaptive(records60(), spec, refine, &sink);
    return Run{render_sweep_report(r), csv.str(), r.cache.hit_rate()};
  };

  par::ThreadPool one(1);
  par::ThreadPool four(4);
  const Run a = run_with(one, false);
  const Run b = run_with(four, false);
  const Run c = run_with(four, true);

  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.report, c.report);  // warm == cold, byte for byte
  EXPECT_EQ(a.csv, c.csv);
  EXPECT_DOUBLE_EQ(c.hit_rate, 1.0);  // the warm rerun is pure lookups
  EXPECT_NE(a.report.find("Adaptive refinement"), std::string::npos);
}


// --- block buffer vs the per-scenario path ----------------------------

// Base, two endpoints per axis, a 2x2x2 grid and Monte-Carlo draws: every
// expansion arm, 24 cells.
constexpr const char* kEveryArm = "aci=25,300;pue=1.1,1.4;life=4,8;mc=9@5";

// The cells as the per-scenario path computes them: named ScenarioSets
// of expansion.cell(i), assessed by AssessmentEngine::assess and folded
// by make_sweep_cell.
std::vector<SweepCell> reference_cells(const SweepSpec& spec,
                                       size_t batch_size) {
  const SweepExpansion expansion(spec);
  AssessmentEngine engine;
  std::vector<SweepCell> out;
  for (size_t start = 0; start < expansion.size(); start += batch_size) {
    ScenarioSet set;
    for (size_t i = start; i < std::min(start + batch_size, expansion.size());
         ++i) {
      set.add(expansion.cell(i));
    }
    for (const auto& r : engine.assess(records60(), set).scenarios) {
      out.push_back(make_sweep_cell(r));
    }
  }
  return out;
}

class CaptureSink : public SweepCellSink {
 public:
  void cell(size_t, size_t index, const SweepCell& c) override {
    EXPECT_EQ(index, cells.size());
    cells.push_back(c);
  }
  std::vector<SweepCell> cells;
};

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

void expect_same_cell(const SweepCell& got, const SweepCell& want,
                      const std::string& where) {
  EXPECT_EQ(got.name, want.name) << where;
  EXPECT_EQ(got.description, want.description) << where;
  EXPECT_EQ(got.kind, want.kind) << where;
  EXPECT_EQ(got.fingerprint, want.fingerprint) << where;
  for (size_t a = 0; a < kNumSweepAxes; ++a) {
    ASSERT_EQ(got.coords[a].has_value(), want.coords[a].has_value()) << where;
    if (got.coords[a]) {
      EXPECT_EQ(bits(*got.coords[a]), bits(*want.coords[a])) << where;
    }
  }
  EXPECT_EQ(bits(got.op_total_mt), bits(want.op_total_mt)) << where;
  EXPECT_EQ(bits(got.emb_total_mt), bits(want.emb_total_mt)) << where;
  EXPECT_EQ(bits(got.annualized_mt), bits(want.annualized_mt)) << where;
  EXPECT_EQ(got.op_covered, want.op_covered) << where;
  EXPECT_EQ(got.emb_covered, want.emb_covered) << where;
}

TEST(SweepBlockBuffer, CellsMatchMakeSweepCellBitForBit) {
  const auto spec = SweepSpec::parse(kEveryArm);
  const std::vector<SweepCell> want = reference_cells(spec, 64);
  ASSERT_EQ(want.size(), 24u);
  // The reference itself spans every arm.
  for (const SweepCellKind kind :
       {SweepCellKind::kBase, SweepCellKind::kAxisEndpoint,
        SweepCellKind::kGrid, SweepCellKind::kMonteCarlo}) {
    EXPECT_TRUE(std::any_of(want.begin(), want.end(),
                            [&](const SweepCell& c) { return c.kind == kind; }));
  }
  // The reference does not depend on its own block shape.
  const std::vector<SweepCell> want7 = reference_cells(spec, 7);
  for (size_t i = 0; i < want.size(); ++i) {
    expect_same_cell(want7[i], want[i], "reference cell " + std::to_string(i));
  }

  enum class Cache { kOff, kCold, kWarm };
  for (const unsigned threads : {1u, 4u}) {
    par::ThreadPool pool(threads);
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      for (const Cache cache : {Cache::kOff, Cache::kCold, Cache::kWarm}) {
        AssessmentEngine::Options eopt;
        eopt.pool = &pool;
        eopt.cache_enabled = cache != Cache::kOff;
        AssessmentEngine engine(eopt);
        SweepEngine::Options opt;
        opt.engine = &engine;
        opt.batch_size = batch;
        if (cache == Cache::kWarm) SweepEngine(opt).run(records60(), spec);
        CaptureSink sink;
        const SweepReport report = SweepEngine(opt).run(records60(), spec,
                                                        &sink);
        if (cache == Cache::kWarm) {
          EXPECT_DOUBLE_EQ(report.cache.hit_rate(), 1.0);
        }
        const std::string where = std::to_string(threads) + " threads, batch " +
                                  std::to_string(batch) + ", cache mode " +
                                  std::to_string(static_cast<int>(cache));
        ASSERT_EQ(sink.cells.size(), want.size()) << where;
        ASSERT_EQ(report.cells.size(), want.size()) << where;
        for (size_t i = 0; i < want.size(); ++i) {
          const std::string at = where + ", cell " + std::to_string(i);
          expect_same_cell(sink.cells[i], want[i], at);
          expect_same_cell(report.cells[i], want[i], at);
        }
        expect_same_cell(report.base, want[0], where + ", base");
      }
    }
  }
}

TEST(SweepBlockBuffer, OnDemandNamesMatchTheNamedCells) {
  const SweepExpansion expansion(SweepSpec::parse(kEveryArm));
  for (size_t i = 0; i < expansion.size(); ++i) {
    const ScenarioSpec named = expansion.cell(i);
    ScenarioSpec unnamed = expansion.unnamed_cell(i);
    EXPECT_TRUE(unnamed.name.empty()) << i;
    EXPECT_TRUE(unnamed.description.empty()) << i;
    EXPECT_EQ(expansion.cell_name(i), named.name) << i;
    EXPECT_EQ(expansion.cell_description(i), named.description) << i;
    EXPECT_EQ(expansion.kind(i), cell_kind_from_name(named.name)) << i;
    unnamed.name = named.name;
    unnamed.description = named.description;
    EXPECT_EQ(unnamed, named) << i;
  }
}

TEST(SweepBlockBuffer, ReportBytesIgnoreSinksAndRetention) {
  const auto spec = SweepSpec::parse(kEveryArm);
  std::vector<std::string> reports;
  std::vector<std::string> csvs;
  for (const bool with_sink : {false, true}) {
    for (const bool retain : {false, true}) {
      SweepEngine::Options opt;
      opt.batch_size = 7;
      opt.retain_cells = retain;
      std::ostringstream csv;
      CsvCellSink sink(csv);
      const SweepReport r =
          SweepEngine(opt).run(records60(), spec, with_sink ? &sink : nullptr);
      EXPECT_EQ(r.cells.size(), retain ? spec.total_cells() : 0u);
      EXPECT_EQ(r.base.name, "sweep/base");
      reports.push_back(render_sweep_report(r));
      if (with_sink) csvs.push_back(csv.str());
    }
  }
  for (const auto& r : reports) EXPECT_EQ(r, reports.front());
  EXPECT_EQ(csvs[0], csvs[1]);
}

TEST(SweepBlockBuffer, FourShardMergeMatchesTheReferenceCells) {
  const auto spec = SweepSpec::parse(kEveryArm);
  std::ostringstream want_csv;
  {
    CsvCellSink sink(want_csv);
    const std::vector<SweepCell> want = reference_cells(spec, 64);
    for (size_t i = 0; i < want.size(); ++i) sink.cell(0, i, want[i]);
  }
  std::vector<std::string> paths;
  for (uint32_t i = 1; i <= 4; ++i) {
    SweepEngine::Options opt;
    opt.batch_size = 5;
    SweepEngine engine(opt);
    std::ostringstream part;
    run_sweep_shard(engine, records60(), spec, ShardRef{i, 4}, part);
    paths.push_back(::testing::TempDir() + "block_buffer_" +
                    std::to_string(i) + "of4.ezpart");
    std::ofstream out(paths.back(), std::ios::binary | std::ios::trunc);
    out << part.str();
    ASSERT_TRUE(out.good()) << paths.back();
  }
  std::ostringstream merged_csv;
  CsvCellSink merged_sink(merged_csv);
  MergeOptions merge;
  merge.sink = &merged_sink;
  const SweepReport merged =
      merge_sweep_partials(paths, records60(), spec, merge);
  EXPECT_EQ(merged_csv.str(), want_csv.str());
  EXPECT_EQ(render_sweep_report(merged),
            render_sweep_report(SweepEngine().run(records60(), spec)));
}

TEST(SweepBlockBuffer, InvalidDerivedCellStillThrowsNamingTheCell) {
  ScenarioSpec base = sc::enhanced();
  base.pue_override = 0.5;  // only the pue axis cells override it
  const auto spec = SweepSpec::parse("pue=1.1,1.4", base);
  std::string registration_error;
  try {
    expand_sweep(spec);
  } catch (const util::Error& e) {
    registration_error = e.what();
  }
  ASSERT_NE(registration_error.find("'sweep/base'"), std::string::npos)
      << registration_error;
  SweepEngine::Options opt;
  opt.batch_size = 1;
  CaptureSink sink;
  try {
    SweepEngine(opt).run(records60(), spec, &sink);
    ADD_FAILURE() << "the invalid base cell was assessed";
  } catch (const util::Error& e) {
    EXPECT_EQ(std::string(e.what()), registration_error);
  }
  EXPECT_TRUE(sink.cells.empty());
}

}  // namespace
}  // namespace easyc::analysis
