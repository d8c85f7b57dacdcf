// The SoA batch assessment kernel vs the scalar per-cell path.
//
// Report: cold assessment on one worker under two workload shapes —
// the stock scenario set (paper pair + what-ifs, three visibilities)
// and a sweep-shaped block (12 derived what-ifs over one visibility,
// what SweepEngine submits per batch). The SoA kernel resolves each
// distinct (visibility, record) profile once and amortizes it across
// every scenario lane, so the sweep shape is where the win lands; the
// stock set bounds the worst case (2.5 lanes per profile). Both arms
// call the kernels directly, the way the engine fills its cache
// misses: the scalar arm projects and assesses each cell through
// EasyCModel::assess_cell, the SoA arm projects each record once and runs
// every scenario through one BatchAssessor. Both kernels are
// byte-identical per cell (batch_kernel_test), so these numbers can
// only disagree on time.
//
// The gated pair (check_bench_regression: SoA >= 1.5x scalar
// cells_per_s) runs the sweep-shaped block — the engine's cold fill
// workload in the paper pipeline's sweeps.
#include "bench/common.hpp"

#include <array>
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "analysis/scenario.hpp"
#include "easyc/batch.hpp"
#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"
#include "util/strings.hpp"

namespace {

using easyc::analysis::ScenarioSet;
using easyc::analysis::ScenarioSpec;
using easyc::util::format_double;
namespace sc = easyc::analysis::scenarios;
using easyc::model::CellValue;

const std::vector<easyc::top500::SystemRecord>& catalog() {
  static const auto kRecords = easyc::top500::generate_records();
  return kRecords;
}

const ScenarioSet& stock_set() {
  static const ScenarioSet kSet = ScenarioSet::paper_with_whatifs();
  return kSet;
}

// A sweep block: derived what-ifs over the enhanced visibility, the
// shape SweepEngine submits to the engine (grid axes fab x pue x util;
// no ACI override, so lanes read the grid database and the per-batch
// ACI table is live in the gated workload).
const ScenarioSet& sweep_block() {
  static const ScenarioSet kSet = [] {
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
  }();
  return kSet;
}

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

using Results = std::vector<std::vector<CellValue>>;

// One cold fill of the catalog under `set` through the scalar kernel.
// Like the SoA arm, it projects each distinct (visibility, record)
// once, so the two arms differ only in the kernel.
Results assess_scalar(const ScenarioSet& set) {
  const auto& records = catalog();
  Results out(set.size(), std::vector<CellValue>(records.size()));
  std::array<std::vector<easyc::model::Inputs>,
             easyc::top500::kNumDataVisibilities>
      projections;
  for (size_t s = 0; s < set.size(); ++s) {
    const ScenarioSpec& spec = set.specs()[s];
    auto& inputs = projections[static_cast<size_t>(spec.visibility)];
    if (inputs.empty()) {
      for (const auto& r : records) {
        inputs.push_back(easyc::top500::to_inputs(r, spec.visibility));
      }
    }
    const easyc::model::EasyCModel model(spec.to_options());
    for (size_t i = 0; i < records.size(); ++i) {
      out[s][i] = model.assess_cell(inputs[i]);
    }
  }
  return out;
}

// The same fill through the SoA kernel: one profile per distinct
// (visibility, record), then every scenario's lanes in one pass.
Results assess_soa(const ScenarioSet& set, easyc::par::ThreadPool& pool,
                   easyc::model::BatchStats* stats = nullptr) {
  const auto& records = catalog();
  Results out(set.size(), std::vector<CellValue>(records.size()));
  easyc::model::BatchAssessor batch;
  // Profile ids of visibility v start at first_id[v]; all distinct
  // (visibility, record) pairs resolve in one call.
  constexpr size_t kUnused = static_cast<size_t>(-1);
  std::array<size_t, easyc::top500::kNumDataVisibilities> first_id{};
  first_id.fill(kUnused);
  std::vector<easyc::top500::DataVisibility> order;
  for (const auto& spec : set.specs()) {
    size_t& first = first_id[static_cast<size_t>(spec.visibility)];
    if (first != kUnused) continue;
    first = order.size() * records.size();
    order.push_back(spec.visibility);
  }
  batch.add_profiles(
      order.size() * records.size(),
      [&](size_t k) {
        return easyc::top500::to_inputs(records[k % records.size()],
                                        order[k / records.size()]);
      },
      &pool);
  std::vector<easyc::model::EasyCOptions> options;
  std::vector<std::vector<easyc::model::BatchAssessor::Cell>> cells(
      set.size());
  std::vector<easyc::model::BatchAssessor::Job> jobs;
  for (const auto& spec : set.specs()) options.push_back(spec.to_options());
  for (size_t s = 0; s < set.size(); ++s) {
    const size_t first =
        first_id[static_cast<size_t>(set.specs()[s].visibility)];
    for (size_t i = 0; i < records.size(); ++i) {
      cells[s].push_back({first + i, &out[s][i]});
    }
    jobs.push_back({&options[s], cells[s].data(), cells[s].size()});
  }
  batch.assess(jobs, &pool);
  if (stats) *stats += batch.stats();
  return out;
}

std::string workload_table(const std::string& title, const ScenarioSet& set,
                           easyc::par::ThreadPool& pool, int reps) {
  const double cells = static_cast<double>(catalog().size()) *
                       static_cast<double>(set.size());
  easyc::model::BatchStats stats;
  double t_scalar = 0.0;
  double t_soa = 0.0;
  for (int i = 0; i < reps; ++i) {
    t_scalar += seconds_of([&] { assess_scalar(set); }) / reps;
    t_soa += seconds_of([&] { assess_soa(set, pool, &stats); }) / reps;
  }

  const auto line = [&](const std::string& label, double t) {
    return "    " + label + format_double(t * 1e3, 2) + " ms  (" +
           format_double(cells / t / 1e3, 1) + "k cells/s, " +
           format_double(t_scalar / t, 2) + "x scalar)\n";
  };
  std::string out = "  " + title + " — " + format_double(cells, 0) +
                    " cells, mean of " + std::to_string(reps) + "\n";
  out += line("scalar per-cell oracle: ", t_scalar);
  out += line("SoA kernel:             ", t_soa);
  const int r = reps;
  out += "    per run: " + std::to_string(stats.lanes / r) + " lanes from " +
         std::to_string(stats.profiles / r) + " resolved profiles (" +
         std::to_string(stats.validations / r) + " validations); ACI " +
         std::to_string(stats.aci_keys / r) + " keys, " +
         std::to_string(stats.aci_db_queries / r) + " db queries, " +
         std::to_string(stats.aci_hoisted / r) + " lane lookups hoisted\n";
  return out;
}

std::string kernel_report() {
  easyc::par::ThreadPool one(1);
  std::string out = "Batch kernel — catalog, cold, 1 worker\n";
  out += workload_table("sweep-shaped block (12 derived scenarios)",
                        sweep_block(), one, 5);
  out += workload_table("stock scenario set (3 visibilities)", stock_set(),
                        one, 5);
  out += "  target: >=1.5x scalar on the sweep-shaped block (the gated "
         "pair below)\n";
  return out;
}

// Cold fill throughput of one kernel on the sweep-shaped block: every
// cell computes through that kernel. cells_per_s is the gated counter
// (check_bench_regression enforces BM_BatchAssessSoA >= 1.5x
// BM_BatchAssessScalar).
void count_cells(benchmark::State& state) {
  const int64_t cells = static_cast<int64_t>(catalog().size()) *
                        static_cast<int64_t>(sweep_block().size());
  state.SetItemsProcessed(state.iterations() * cells);
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cells),
      benchmark::Counter::kIsRate);
}

void BM_BatchAssessScalar(benchmark::State& state) {
  for (auto _ : state) {
    auto r = assess_scalar(sweep_block());
    benchmark::DoNotOptimize(&r);
  }
  count_cells(state);
}
BENCHMARK(BM_BatchAssessScalar)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_BatchAssessSoA(benchmark::State& state) {
  easyc::par::ThreadPool one(1);
  for (auto _ : state) {
    auto r = assess_soa(sweep_block(), one);
    benchmark::DoNotOptimize(&r);
  }
  count_cells(state);
}
BENCHMARK(BM_BatchAssessSoA)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

EASYC_FIGURE_BENCH_MAIN(kernel_report())
