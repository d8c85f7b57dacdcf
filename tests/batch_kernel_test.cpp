// Engine-vs-oracle bit-identity of both fill kernels. The engine picks
// its kernel from the scenario set: the SoA batch kernel when the set
// averages at least two lanes per resolved profile (sweep blocks), the
// scalar per-cell path otherwise (the paper pair). Whichever runs, with
// the cache off, cold, or warm, on one thread or many, every cell must
// equal a direct EasyCModel::assess(to_inputs(...)) byte-for-byte —
// same doubles, same failure reasons in the same order, same coverage —
// which this test checks by rendering each compact engine cell (name
// and reason text from the record) and comparing full encodings. The
// BatchAssessor is also checked directly over mixed valid/invalid/
// missing-input lanes and for ValidationError parity.
#include "easyc/batch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/assessment_engine.hpp"
#include "analysis/sweep.hpp"
#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"
#include "top500/history.hpp"
#include "top500/record.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace easyc::analysis {
namespace {

namespace sc = scenarios;
using analysis::AssessmentEngine;

// Byte-identity is asserted through a full encoding of the rendered
// assessment: if two assessments encode to the same bytes, the names
// match, every double is bit-equal and every failure-reason list
// matches in content and order.
template <typename T, typename Fields>
void encode_side(util::BinaryWriter& w, const model::Outcome<T>& o,
                 Fields&& fields) {
  w.boolean(o.ok());
  if (o.ok()) {
    fields(w, o.value());
    return;
  }
  w.u64(o.reasons().size());
  for (const std::string& reason : o.reasons()) w.str(reason);
}

std::string bytes_of(const model::SystemAssessment& a) {
  util::BinaryWriter w;
  w.str(a.name);
  encode_side(w, a.operational,
              [](util::BinaryWriter& out, const model::OperationalResult& r) {
                out.f64(r.mt_co2e)
                    .f64(r.annual_kwh)
                    .f64(r.it_kw)
                    .f64(r.pue)
                    .f64(r.aci_g_kwh)
                    .boolean(r.aci_region_refined)
                    .u8(static_cast<uint8_t>(r.path))
                    .f64(r.utilization);
              });
  encode_side(w, a.embodied,
              [](util::BinaryWriter& out, const model::EmbodiedBreakdown& b) {
                out.f64(b.cpu_mt)
                    .f64(b.gpu_mt)
                    .f64(b.memory_mt)
                    .f64(b.storage_mt)
                    .f64(b.platform_mt)
                    .f64(b.interconnect_mt)
                    .f64(b.total_mt)
                    .boolean(b.used_gpu_proxy)
                    .boolean(b.used_memory_default)
                    .boolean(b.used_storage_default);
              });
  return w.bytes();
}

// The oracle: every (scenario, record) cell assessed directly by the
// scalar model, indexed [scenario][record].
using OracleBytes = std::vector<std::vector<std::string>>;

OracleBytes oracle_bytes(const std::vector<top500::SystemRecord>& records,
                         const ScenarioSet& set) {
  OracleBytes out;
  for (const auto& spec : set.specs()) {
    const model::EasyCModel model(spec.to_options());
    auto& column = out.emplace_back();
    for (const auto& r : records) {
      column.push_back(bytes_of(model.assess(to_inputs(r, spec.visibility))));
    }
  }
  return out;
}

// Engine cells are compact (no name, reasons as codes): each is
// rendered from its record before the byte compare.
void expect_matches_oracle(const EditionAssessment& got,
                           const std::vector<top500::SystemRecord>& records,
                           const OracleBytes& want) {
  ASSERT_EQ(got.scenarios.size(), want.size());
  for (size_t s = 0; s < want.size(); ++s) {
    const ScenarioResults& results = got.scenarios[s];
    ASSERT_EQ(results.assessments.size(), want[s].size());
    for (size_t i = 0; i < want[s].size(); ++i) {
      const model::Inputs inputs =
          to_inputs(records[i], results.spec.visibility);
      const model::SystemAssessment rendered =
          model::render_assessment(results.assessments[i], inputs);
      ASSERT_EQ(bytes_of(rendered), want[s][i])
          << got.label << " scenario " << results.spec.name << " record "
          << i;
    }
  }
}

// Every stock scenario: the paper pair, the what-if trio, and the
// ground-truth bound — three visibilities, overrides, both policies.
ScenarioSet all_stock_scenarios() {
  ScenarioSet set = ScenarioSet::paper_with_whatifs();
  set.add(sc::full_knowledge());
  return set;
}

// A sweep block: 12 derived what-ifs over the enhanced visibility (grid
// axes fab x pue x util; no ACI override, so lanes read the per-batch
// ACI table) — the shape SweepEngine submits to the engine.
ScenarioSet sweep_block() {
  ScenarioSet set;
  int n = 0;
  for (double fab : {0.3, 0.475, 0.65}) {
    for (double pue : {1.15, 1.45}) {
      for (double util : {0.6, 0.9}) {
        ScenarioSpec spec = sc::enhanced();
        spec.name = "sweep/" + std::to_string(n++);
        spec.fab_aci_kg_kwh = fab;
        spec.pue_override = pue;
        spec.default_utilization = util;
        set.add(spec);
      }
    }
  }
  return set;
}

// --- both kernels x cache off / cold / warm x 1 vs N threads --------

TEST(BatchKernel, EngineMatchesOracleOnBothKernelsCacheModesAndThreads) {
  const auto records = top500::generate_records();
  struct Shape {
    const char* name;
    ScenarioSet set;
    bool soa;  ///< which side of the lanes-per-profile rule
  };
  // The paper pair has one lane per profile (scalar); the sweep block
  // has twelve (SoA).
  const Shape shapes[] = {{"paper pair", ScenarioSet::paper(), false},
                          {"sweep block", sweep_block(), true}};
  for (const Shape& shape : shapes) {
    const OracleBytes want = oracle_bytes(records, shape.set);
    const size_t cells = shape.set.size() * records.size();
    const size_t lanes = shape.soa ? cells : 0;
    for (unsigned threads : {1u, 8u}) {
      SCOPED_TRACE(std::string(shape.name) + ", " + std::to_string(threads) +
                   " thread(s)");
      par::ThreadPool pool(threads);

      AssessmentEngine off({.pool = &pool, .cache_enabled = false});
      expect_matches_oracle(off.assess(records, shape.set), records, want);
      expect_matches_oracle(off.assess(records, shape.set), records, want);
      EXPECT_EQ(off.batch_stats().lanes, 2 * lanes);
      EXPECT_EQ(off.cache_stats().lookups(), 0u);
      EXPECT_EQ(off.cache_stats().entries, 0u);

      AssessmentEngine cached({.pool = &pool});
      // cold
      expect_matches_oracle(cached.assess(records, shape.set), records, want);
      EXPECT_EQ(cached.batch_stats().lanes, lanes);
      EXPECT_EQ(cached.cache_stats().misses, cells);
      // warm
      expect_matches_oracle(cached.assess(records, shape.set), records, want);
      EXPECT_EQ(cached.batch_stats().lanes, lanes);  // pure lookups
      EXPECT_EQ(cached.cache_stats().misses, cells);
      EXPECT_EQ(cached.cache_stats().hits, cells);

      const model::BatchStats& stats = cached.batch_stats();
      EXPECT_EQ(stats.validations, stats.profiles);
      EXPECT_EQ(stats.profiles, shape.soa ? records.size() : 0u);
    }
  }
}

TEST(BatchKernel, CatalogAllStockScenariosMatchOracle) {
  // Six specs over three visibilities: two lanes per profile, so the
  // SoA kernel fills; the extended-lifetime what-if aliases enhanced
  // and runs as the second grid, recomputed when the cache is off.
  const auto records = top500::generate_records();
  const auto set = all_stock_scenarios();
  const OracleBytes want = oracle_bytes(records, set);
  par::ThreadPool one(1);

  AssessmentEngine off({.pool = &one, .cache_enabled = false});
  expect_matches_oracle(off.assess(records, set), records, want);
  EXPECT_EQ(off.batch_stats().lanes, set.size() * records.size());

  AssessmentEngine cached({.pool = &one});
  expect_matches_oracle(cached.assess(records, set), records, want);
  // The alias grid found its entries resident: one lane fewer per
  // record than the uncached engine, the same profiles.
  EXPECT_EQ(cached.batch_stats().lanes, (set.size() - 1) * records.size());
  EXPECT_EQ(cached.batch_stats().profiles, off.batch_stats().profiles);
  EXPECT_EQ(cached.batch_stats().validations, cached.batch_stats().profiles);
}

TEST(BatchKernel, HistoryMatchesOracleColdAndWarm) {
  top500::HistoryConfig cfg;
  cfg.editions = 3;
  const auto history = top500::generate_history(cfg);
  const auto set = all_stock_scenarios();
  par::ThreadPool wide(4);

  // Exactly-once: the cold run misses once per distinct cache key.
  std::set<std::pair<uint64_t, uint64_t>> keys;
  for (const auto& edition : history) {
    for (const auto& r : edition.records) {
      for (const auto& spec : set.specs()) {
        keys.emplace(r.content_fingerprint(), spec.fingerprint());
      }
    }
  }

  AssessmentEngine engine({.pool = &wide});
  const auto cold = engine.run(history, set);
  EXPECT_EQ(engine.cache_stats().misses, keys.size());
  EXPECT_EQ(engine.batch_stats().lanes, keys.size());
  const auto warm = engine.run(history, set);
  EXPECT_EQ(engine.cache_stats().misses, keys.size());
  ASSERT_EQ(cold.size(), history.size());
  ASSERT_EQ(warm.size(), history.size());
  for (size_t e = 0; e < history.size(); ++e) {
    const OracleBytes want = oracle_bytes(history[e].records, set);
    expect_matches_oracle(cold[e], history[e].records, want);
    expect_matches_oracle(warm[e], history[e].records, want);
  }
}

// --- sweep slice ----------------------------------------------------

TEST(BatchKernel, SweepSliceMatchesOracle) {
  // A 4-axis slice: 5 x 5 x 5 x 8 = 1000 grid cells plus the base and
  // per-axis endpoint cells. Lifetime cells alias on the assessment
  // fingerprint, so the distinct-work set stays test-sized while the
  // cell set crosses 1k.
  const SweepSpec spec = SweepSpec::parse(
      "aci=25:600:5;pue=1.1:1.9:5;util=0.5:0.95:5;life=4:8:8");
  auto records = top500::generate_records();
  records.resize(30);

  const SweepExpansion expansion(spec);
  ScenarioSet cells;
  for (size_t i = 0; i < expansion.size(); ++i) cells.add(expansion.cell(i));
  ASSERT_GE(cells.size(), 1000u);
  par::ThreadPool wide(4);
  AssessmentEngine engine({.pool = &wide});
  expect_matches_oracle(engine.assess(records, cells), records,
                        oracle_bytes(records, cells));
  EXPECT_GT(engine.batch_stats().lanes, 0u);
  EXPECT_GT(engine.cache_stats().hits, 0u);  // the lifetime aliases

  // The sweep itself renders the same bytes cached on one thread and
  // uncached on many.
  par::ThreadPool one(1);
  AssessmentEngine cached({.pool = &one});
  AssessmentEngine uncached({.pool = &wide, .cache_enabled = false});
  std::ostringstream cached_csv, uncached_csv;
  CsvCellSink cached_sink(cached_csv), uncached_sink(uncached_csv);
  SweepEngine se({.engine = &cached});
  SweepEngine ue({.engine = &uncached});
  const auto rc = se.run(records, spec, &cached_sink);
  const auto ru = ue.run(records, spec, &uncached_sink);
  ASSERT_GE(rc.cells.size(), 1000u);
  EXPECT_EQ(render_sweep_report(rc), render_sweep_report(ru));
  EXPECT_EQ(cached_csv.str(), uncached_csv.str());
}

// --- mixed valid / failing / missing-input lanes --------------------

// Lanes covering every resolution path and failure reason the kernel
// masks: metered, reported, roll-up, core-count, no-path, unknown
// country, in-catalog accelerator, unknown accelerator (strict fail /
// approx proxy), missing GPU count, unknown processor.
std::vector<model::Inputs> mixed_lanes() {
  std::vector<model::Inputs> lanes;

  model::Inputs full;  // every metric present, accelerated, in catalog
  full.name = "full";
  full.country = "United States";
  full.region = "Tennessee";
  full.rmax_tflops = 1.2e6;
  full.rpeak_tflops = 1.7e6;
  full.power_kw = 22000.0;
  full.total_cores = 8'000'000;
  full.processor = "AMD EPYC 7763 64C 2.45GHz";
  full.accelerator = "MI250X";
  full.operation_year = 2022;
  full.num_nodes = 9400;
  full.num_gpus = 37600;
  full.num_cpus = 9400;
  full.memory_gb = 4'800'000.0;
  full.memory_type = "DDR4";
  full.ssd_tb = 11000.0;
  full.utilization = 0.8;
  lanes.push_back(full);

  model::Inputs metered = full;  // metered path beats reported power
  metered.name = "metered";
  metered.annual_energy_kwh = 1.5e8;
  lanes.push_back(metered);

  model::Inputs rollup = full;  // no reported power: component roll-up
  rollup.name = "rollup";
  rollup.power_kw.reset();
  lanes.push_back(rollup);

  model::Inputs cores_only;  // nothing but cores: era-prior W/core path
  cores_only.name = "cores-only";
  cores_only.country = "Germany";
  cores_only.rmax_tflops = 5000.0;
  cores_only.rpeak_tflops = 7000.0;
  cores_only.total_cores = 150000;
  cores_only.processor = "Xeon Platinum 8280 28C 2.7GHz";
  cores_only.operation_year = 2020;
  lanes.push_back(cores_only);

  model::Inputs no_path;  // no power, no counts: operational failure
  no_path.name = "no-path";
  no_path.country = "Japan";
  no_path.rmax_tflops = 3000.0;
  no_path.rpeak_tflops = 4000.0;
  no_path.processor = "mystery chip";
  lanes.push_back(no_path);

  model::Inputs no_aci = full;  // country outside the ACI database
  no_aci.name = "no-aci";
  no_aci.country = "Atlantis";
  no_aci.region.clear();
  lanes.push_back(no_aci);

  model::Inputs unknown_acc = full;  // strict declines, approx proxies
  unknown_acc.name = "unknown-acc";
  unknown_acc.accelerator = "FutureChip Z9";
  lanes.push_back(unknown_acc);

  model::Inputs no_gpu_count = full;  // accelerated but count unknown
  no_gpu_count.name = "no-gpu-count";
  no_gpu_count.num_gpus.reset();
  lanes.push_back(no_gpu_count);

  model::Inputs unknown_cpu = full;  // embodied CPU failure
  unknown_cpu.name = "unknown-cpu";
  unknown_cpu.processor = "mystery chip";
  unknown_cpu.accelerator.clear();
  unknown_cpu.num_gpus.reset();
  lanes.push_back(unknown_cpu);

  model::Inputs sparse;  // power only, defaults everywhere else
  sparse.name = "sparse";
  sparse.country = "France";
  sparse.rmax_tflops = 9000.0;
  sparse.rpeak_tflops = 12000.0;
  sparse.power_kw = 900.0;
  sparse.processor = "AMD EPYC 7763 64C 2.45GHz";
  sparse.total_cores = 200000;
  sparse.num_nodes = 1500;
  lanes.push_back(sparse);

  return lanes;
}

// Option sets spanning both policies and every override the kernel
// blends: stock scenarios plus targeted overrides.
std::vector<model::EasyCOptions> option_sets() {
  std::vector<model::EasyCOptions> sets;
  sets.push_back(sc::enhanced().to_options());
  sets.push_back(sc::baseline().to_options());  // strict policy
  sets.push_back(sc::renewables_grid().to_options());  // ACI override
  sets.push_back(sc::full_knowledge().to_options());

  model::EasyCOptions pue = sc::enhanced().to_options();
  pue.operational.pue_override = 1.08;
  sets.push_back(pue);

  model::EasyCOptions knobs = sc::enhanced().to_options();
  knobs.operational.default_utilization = 0.6;
  knobs.embodied.fab_aci_kg_kwh = 0.2;
  knobs.embodied.accelerator_policy =
      model::AcceleratorPolicy::kApproximateWithMainstreamGpu;
  sets.push_back(knobs);
  return sets;
}

TEST(BatchKernel, MixedLanesMatchScalarUnderEveryOptionSet) {
  const auto lanes = mixed_lanes();
  par::ThreadPool one(1);

  model::BatchAssessor batch;
  batch.add_profiles(
      lanes.size(), [&](size_t k) { return lanes[k]; }, &one);

  for (const auto& options : option_sets()) {
    std::vector<model::CellValue> got(lanes.size());
    std::vector<model::BatchAssessor::Cell> cells(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) cells[i] = {i, &got[i]};
    batch.assess({{&options, cells.data(), cells.size()}}, &one);

    model::EasyCModel oracle(options);
    for (size_t i = 0; i < lanes.size(); ++i) {
      const std::string want = bytes_of(oracle.assess(lanes[i]));
      EXPECT_EQ(bytes_of(model::render_assessment(got[i], lanes[i])), want)
          << lanes[i].name;
      EXPECT_EQ(bytes_of(model::render_assessment(
                    oracle.assess_cell(lanes[i]), lanes[i])),
                want)
          << lanes[i].name;
    }
  }
}

TEST(BatchKernel, OnePassOverManyJobsPublishesEveryLaneOnce) {
  // Every option set as one job of every lane, in one pass on a wide
  // pool: each lane is published exactly once, by the task that wrote
  // it, and equals the single-job pass.
  const auto lanes = mixed_lanes();
  const auto sets = option_sets();
  par::ThreadPool wide(4);
  model::BatchAssessor batch;
  batch.add_profiles(
      lanes.size(), [&](size_t k) { return lanes[k]; }, &wide);

  std::vector<std::vector<model::CellValue>> got(
      sets.size(), std::vector<model::CellValue>(lanes.size()));
  std::vector<std::vector<model::BatchAssessor::Cell>> cells(sets.size());
  std::vector<model::BatchAssessor::Job> jobs;
  for (size_t j = 0; j < sets.size(); ++j) {
    for (size_t i = 0; i < lanes.size(); ++i) {
      cells[j].push_back({i, &got[j][i]});
    }
    jobs.push_back({&sets[j], cells[j].data(), cells[j].size()});
  }
  std::vector<std::vector<std::atomic<int>>> published(sets.size());
  for (auto& p : published) p = std::vector<std::atomic<int>>(lanes.size());
  batch.assess(jobs, &wide, [&](size_t j, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++published[j][i];
  });

  for (size_t j = 0; j < sets.size(); ++j) {
    std::vector<model::CellValue> alone(lanes.size());
    std::vector<model::BatchAssessor::Cell> one_job(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) one_job[i] = {i, &alone[i]};
    batch.assess({{&sets[j], one_job.data(), one_job.size()}}, &wide);
    for (size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_EQ(published[j][i].load(), 1) << j << " " << lanes[i].name;
      EXPECT_EQ(bytes_of(model::render_assessment(got[j][i], lanes[i])),
                bytes_of(model::render_assessment(alone[i], lanes[i])))
          << j << " " << lanes[i].name;
    }
  }
}

TEST(BatchKernel, InvalidInputsThrowValidationErrorLikeScalar) {
  model::Inputs bad = mixed_lanes()[0];
  bad.name = "bad";
  bad.rmax_tflops = -1.0;  // performance must be non-negative

  model::EasyCModel oracle;
  EXPECT_THROW(oracle.assess(bad), util::ValidationError);

  model::BatchAssessor batch;
  EXPECT_THROW(batch.add_profiles(1, [&](size_t) { return bad; }),
               util::ValidationError);
  EXPECT_EQ(batch.num_profiles(), 0u);
}

// --- stats accounting -----------------------------------------------

TEST(BatchKernel, AciHoistStatsAccounting) {
  const auto records = top500::generate_records();
  // Two lanes per profile, so the SoA kernel fills; no ACI override,
  // so every lane reads the grid database through the per-batch table.
  ScenarioSet set;
  set.add(sc::enhanced());
  ScenarioSpec pue = sc::enhanced();
  pue.name = "enhanced/pue";
  pue.pue_override = 1.2;
  set.add(pue);
  par::ThreadPool one(1);

  AssessmentEngine engine({.pool = &one, .cache_enabled = false});
  expect_matches_oracle(engine.assess(records, set), records,
                        oracle_bytes(records, set));
  const auto& hs = engine.batch_stats();
  EXPECT_EQ(hs.lanes, set.size() * records.size());
  EXPECT_EQ(hs.profiles, records.size());
  EXPECT_EQ(hs.validations, records.size());
  // Every lane's ACI came from the per-batch table; the database saw
  // two probes (country + region) per distinct pair, not per lane.
  EXPECT_EQ(hs.aci_hoisted, hs.lanes);
  EXPECT_GT(hs.aci_keys, 0u);
  EXPECT_LT(hs.aci_keys, records.size());
  EXPECT_EQ(hs.aci_db_queries, 2 * hs.aci_keys);
}

}  // namespace
}  // namespace easyc::analysis
