#include "analysis/assessment_engine.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "easyc/codec.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/serialize.hpp"
#include "util/units.hpp"

namespace easyc::analysis {

namespace {

double covered_sum(const CarbonSeries& s) {
  double total = 0.0;
  for (const auto& v : s) {
    if (v) total += *v;
  }
  return total;
}

int covered_count(const CarbonSeries& s) {
  int n = 0;
  for (const auto& v : s) {
    if (v) ++n;
  }
  return n;
}

// The SoA kernel's win is amortization: one profile resolution per
// distinct (visibility, record) shared by every scenario lane that
// reads it. It is engaged when the set averages at least two lanes per
// profile (sweep blocks); below that (e.g. the two-spec paper pair, one
// visibility each) batching is pure overhead and the scalar path wins.
// The two kernels are byte-identical per cell (batch_kernel_test), so
// the choice only moves time.
bool use_soa_kernel(std::span<const ScenarioSpec> specs) {
  bool seen[top500::kNumDataVisibilities] = {};
  size_t distinct = 0;
  for (const auto& spec : specs) {
    const auto vis = static_cast<size_t>(spec.visibility);
    if (!seen[vis]) {
      seen[vis] = true;
      ++distinct;
    }
  }
  return specs.size() >= 2 * distinct;
}

}  // namespace

void ScenarioResults::finalize() {
  operational = operational_series(assessments);
  embodied = embodied_series(assessments);
  coverage = count_coverage(assessments);
}

double ScenarioResults::total(bool operational_side) const {
  return covered_sum(operational_side ? operational : embodied);
}

double ScenarioResults::average(bool operational_side) const {
  const CarbonSeries& s = operational_side ? operational : embodied;
  const int n = covered_count(s);
  return n == 0 ? 0.0 : covered_sum(s) / n;
}

double ScenarioResults::annualized_total_mt() const {
  return total(true) + total(false) / spec.service_years;
}

CarbonSeries operational_series(
    const std::vector<model::CellValue>& assessments) {
  CarbonSeries out;
  out.reserve(assessments.size());
  for (const auto& a : assessments) {
    out.push_back(a.operational.ok()
                      ? std::optional<double>(a.operational.value().mt_co2e)
                      : std::nullopt);
  }
  return out;
}

CarbonSeries embodied_series(
    const std::vector<model::CellValue>& assessments) {
  CarbonSeries out;
  out.reserve(assessments.size());
  for (const auto& a : assessments) {
    out.push_back(a.embodied.ok()
                      ? std::optional<double>(a.embodied.value().total_mt)
                      : std::nullopt);
  }
  return out;
}

const ScenarioResults* find_scenario_in(
    const std::vector<ScenarioResults>& scenarios, std::string_view name) {
  for (const auto& s : scenarios) {
    if (s.spec.name == name) return &s;
  }
  return nullptr;
}

const ScenarioResults& scenario_in(
    const std::vector<ScenarioResults>& scenarios, std::string_view name,
    std::string_view owner) {
  if (const ScenarioResults* s = find_scenario_in(scenarios, name)) return *s;
  throw util::Error(std::string(owner) + " has no scenario named '" +
                    std::string(name) + "'");
}

const ScenarioResults* EditionAssessment::find_scenario(
    std::string_view name) const {
  return find_scenario_in(scenarios, name);
}

const ScenarioResults& EditionAssessment::scenario(
    std::string_view name) const {
  return scenario_in(scenarios, name, "edition");
}

AssessmentEngine::AssessmentEngine() : AssessmentEngine(Options{}) {}

AssessmentEngine::AssessmentEngine(Options options)
    : options_(options),
      cache_(options.cache_shards, options.cache_capacity) {}

model::BatchStats AssessmentEngine::batch_stats() const {
  std::lock_guard<std::mutex> lock(batch_stats_mu_);
  return batch_stats_;
}

void AssessmentEngine::add_batch_stats(const model::BatchStats& stats) {
  std::lock_guard<std::mutex> lock(batch_stats_mu_);
  batch_stats_ += stats;
}

std::vector<uint64_t> AssessmentEngine::record_fingerprints(
    const std::vector<top500::SystemRecord>& records) const {
  if (!options_.cache_enabled) return {};
  std::vector<uint64_t> fps(records.size());
  par::parallel_for(
      options_.pool ? *options_.pool : par::ThreadPool::global(), 0,
      records.size(),
      [&](size_t i) { fps[i] = records[i].content_fingerprint(); });
  return fps;
}

// One edition's wavefront: all (scenario, record) cells flattened into
// parallel grids. A cell first consults the memo table; only a miss
// pays for the visibility projection and the model. Each cell writes
// its own slot, rows[s][i], so results are bit-identical for any pool
// size and whichever buffer the rows point into. The
// memo is read and written in bulk runs (ShardedCache::lookup_many /
// insert_many: one lock per stripe per run). With the cache disabled
// the same grids run with every cell a miss: no lookups, no publishes.
//
// Scenarios whose fingerprints coincide (aliases: same assessment
// identity under different names/service lives, like the stock
// enhanced / whatif/extended-lifetime pair) run as a second grid after
// the first completes — their cells then find the entry resident
// (barring capacity eviction, which only costs a recompute), which
// keeps the exactly-once guarantee and the hit accounting
// deterministic for every pool size.
void AssessmentEngine::assess_edition(
    const std::vector<top500::SystemRecord>& records,
    const std::vector<uint64_t>& record_fps,
    std::span<const ScenarioSpec> specs, model::CellValue* const* rows) {
  par::ThreadPool& pool =
      options_.pool ? *options_.pool : par::ThreadPool::global();
  const size_t num_scenarios = specs.size();
  const size_t num_records = records.size();
  const bool cached = options_.cache_enabled;
  EASYC_REQUIRE(!cached || record_fps.size() == num_records,
                "one record fingerprint per record");
  if (num_scenarios == 0 || num_records == 0) return;

  std::vector<model::EasyCModel> models;
  std::vector<uint64_t> scenario_fps;
  models.reserve(num_scenarios);
  scenario_fps.reserve(num_scenarios);
  for (const auto& spec : specs) {
    models.emplace_back(spec.to_options());
    scenario_fps.push_back(spec.fingerprint());
  }

  std::vector<size_t> primaries;
  std::vector<size_t> aliases;
  for (size_t s = 0; s < num_scenarios; ++s) {
    bool is_alias = false;
    for (size_t p = 0; p < s && !is_alias; ++p) {
      is_alias = scenario_fps[p] == scenario_fps[s];
    }
    (is_alias ? aliases : primaries).push_back(s);
  }

  // Scalar fill path: tasks of kScalarTaskCells consecutive grid cells,
  // each one bulk lookup, the misses computed, then one bulk publish —
  // a single pass. Keys within a grid are unique, so no task's publish
  // can turn another task's lookup into a hit.
  constexpr size_t kScalarTaskCells = 32;
  auto run_grid = [&](const std::vector<size_t>& scenario_indices) {
    const size_t ngrid = scenario_indices.size() * num_records;
    auto key = [&](size_t cell) {
      return CellKey{record_fps[cell % num_records],
                     scenario_fps[scenario_indices[cell / num_records]]};
    };
    auto slot = [&](size_t cell) -> model::CellValue& {
      return rows[scenario_indices[cell / num_records]][cell % num_records];
    };
    const size_t ntasks = (ngrid + kScalarTaskCells - 1) / kScalarTaskCells;
    par::parallel_for(pool, 0, ntasks, [&](size_t t) {
      const size_t first = t * kScalarTaskCells;
      const size_t n = std::min(kScalarTaskCells, ngrid - first);
      std::array<bool, kScalarTaskCells> hit{};
      if (cached) {
        cache_.lookup_many(
            n, [&](size_t k) { return key(first + k); },
            [&](size_t k, const model::CellValue& v) {
              slot(first + k) = v;
              hit[k] = true;
            });
      }
      std::array<uint8_t, kScalarTaskCells> missed{};
      size_t num_missed = 0;
      for (size_t k = 0; k < n; ++k) {
        if (hit[k]) continue;
        const size_t cell = first + k;
        const size_t s = scenario_indices[cell / num_records];
        slot(cell) = models[s].assess_cell(
            to_inputs(records[cell % num_records], specs[s].visibility));
        missed[num_missed++] = static_cast<uint8_t>(k);
      }
      if (cached) {
        cache_.insert_many(
            num_missed, [&](size_t m) { return key(first + missed[m]); },
            [&](size_t m) -> const model::CellValue& {
              return slot(first + missed[m]);
            });
      }
    });
  };

  // SoA fill path: pass 1 runs every lookup (one bulk run per scenario
  // row) against the grid's starting cache state, which makes the miss
  // set — and so the hit accounting — deterministic for every pool
  // size. The misses then resolve one profile per distinct
  // (visibility, record) and run as one kernel pass over every
  // scenario's lanes, each 256-lane task publishing its lanes in one
  // bulk run.
  model::BatchAssessor batch;
  std::array<std::vector<int64_t>, top500::kNumDataVisibilities> pid;
  auto run_grid_soa = [&](const std::vector<size_t>& scenario_indices) {
    const size_t ngrid = scenario_indices.size() * num_records;
    std::vector<uint8_t> hit(ngrid);
    if (cached) {
      // Interleaved like the kernel pass, in tasks of whole rows (about
      // kLookupTaskCells cells, or one longer row), so a daemon's
      // interactive requests do not queue behind a bulk block's whole
      // lookup pass.
      constexpr size_t kLookupTaskCells = 512;
      const size_t nrows = scenario_indices.size();
      const size_t rows_per_task =
          std::max<size_t>(1, kLookupTaskCells / num_records);
      const size_t ntasks = (nrows + rows_per_task - 1) / rows_per_task;
      par::parallel_for_interleaved(pool, 0, ntasks, [&](size_t t) {
        for (size_t g = t * rows_per_task;
             g < std::min(nrows, (t + 1) * rows_per_task); ++g) {
          const uint64_t scenario_fp = scenario_fps[scenario_indices[g]];
          model::CellValue* row = rows[scenario_indices[g]];
          uint8_t* row_hit = hit.data() + g * num_records;
          cache_.lookup_many(
              num_records,
              [&](size_t i) { return CellKey{record_fps[i], scenario_fp}; },
              [&](size_t i, const model::CellValue& v) {
                row[i] = v;
                row_hit[i] = 1;
              });
        }
      });
    }
    // Serial scan keeps profile ids and lane order deterministic; the
    // distinct misses are projected and resolved in one parallel pass.
    std::vector<std::pair<size_t, size_t>> need;  // (visibility, record)
    std::vector<model::BatchAssessor::Cell> cells;
    std::vector<uint32_t> cell_records;  // parallel to `cells`
    std::vector<model::BatchAssessor::Job> jobs;
    std::vector<size_t> job_scenario;
    std::vector<size_t> job_offset;
    for (size_t g = 0; g < scenario_indices.size(); ++g) {
      const size_t s = scenario_indices[g];
      const auto vis = static_cast<size_t>(specs[s].visibility);
      const size_t first = cells.size();
      for (size_t i = 0; i < num_records; ++i) {
        if (hit[g * num_records + i]) continue;
        if (pid[vis].empty()) pid[vis].assign(num_records, -1);
        if (pid[vis][i] < 0) {
          pid[vis][i] =
              static_cast<int64_t>(batch.num_profiles() + need.size());
          need.emplace_back(vis, i);
        }
        cells.push_back({static_cast<size_t>(pid[vis][i]), &rows[s][i]});
        cell_records.push_back(static_cast<uint32_t>(i));
      }
      if (cells.size() == first) continue;
      jobs.push_back({&models[s].options(), nullptr, cells.size() - first});
      job_scenario.push_back(s);
      job_offset.push_back(first);
    }
    if (jobs.empty()) return;
    for (size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].cells = cells.data() + job_offset[j];
    }
    batch.add_profiles(
        need.size(),
        [&](size_t k) {
          return to_inputs(records[need[k].second],
                           static_cast<top500::DataVisibility>(need[k].first));
        },
        &pool);
    model::BatchAssessor::Publish publish;
    if (cached) {
      publish = [&](size_t j, size_t begin, size_t end) {
        const uint64_t scenario_fp = scenario_fps[job_scenario[j]];
        const size_t first = job_offset[j] + begin;
        cache_.insert_many(
            end - begin,
            [&](size_t k) {
              return CellKey{record_fps[cell_records[first + k]],
                             scenario_fp};
            },
            [&](size_t k) -> const model::CellValue& {
              return *cells[first + k].out;
            });
      };
    }
    batch.assess(jobs, &pool, publish);
  };
  if (use_soa_kernel(specs)) {
    run_grid_soa(primaries);
    if (!aliases.empty()) run_grid_soa(aliases);
    add_batch_stats(batch.stats());
  } else {
    run_grid(primaries);
    if (!aliases.empty()) run_grid(aliases);
  }
}

void AssessmentEngine::fill_edition(
    const std::vector<top500::SystemRecord>& records,
    const std::vector<uint64_t>& record_fps, const ScenarioSet& scenarios,
    EditionAssessment& out) {
  out.perf_pflops = 0.0;
  for (const auto& r : records) {
    out.perf_pflops += r.rmax_tflops / util::kTFlopsPerPFlop;
  }
  const size_t num_scenarios = scenarios.size();
  out.scenarios.resize(num_scenarios);
  std::vector<model::CellValue*> rows(num_scenarios);
  for (size_t s = 0; s < num_scenarios; ++s) {
    out.scenarios[s].spec = scenarios.specs()[s];
    out.scenarios[s].assessments.resize(records.size());
    rows[s] = out.scenarios[s].assessments.data();
  }
  assess_edition(records, record_fps, scenarios.specs(), rows.data());
  for (auto& r : out.scenarios) r.finalize();
}

void AssessmentEngine::assess_rows(
    const std::vector<top500::SystemRecord>& records,
    const std::vector<uint64_t>& record_fps,
    std::span<const ScenarioSpec> specs, model::CellValue* grid) {
  std::vector<model::CellValue*> rows(specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    rows[s] = grid + s * records.size();
  }
  assess_edition(records, record_fps, specs, rows.data());
}

std::vector<EditionAssessment> AssessmentEngine::run(
    const std::vector<top500::ListEdition>& editions,
    const ScenarioSet& scenarios) {
  // Editions run as ordered wavefronts (each internally parallel):
  // edition k's survivors then hit the entries edition k-1 inserted,
  // guaranteeing each surviving system is assessed exactly once and
  // making the hit-rate independent of the pool size.
  std::vector<EditionAssessment> out(editions.size());
  for (size_t e = 0; e < editions.size(); ++e) {
    out[e].label = editions[e].label;
    out[e].num_new = editions[e].num_new;
    fill_edition(editions[e].records,
                 record_fingerprints(editions[e].records), scenarios, out[e]);
  }
  return out;
}

uint64_t AssessmentEngine::cache_scheme_tag() {
  return cache_scheme_tag(model::kAssessmentCodecVersion);
}

uint64_t AssessmentEngine::cache_scheme_tag(uint32_t codec_version) {
  // Canaries exercise the two fingerprint schemes a cache key is built
  // from. Any change to util::Fingerprint, to the record field set
  // content_fingerprint() walks, or to the spec knobs fingerprint()
  // covers moves these values — the codec version covers the value
  // encoding and the semantics version covers the model's math — so a
  // snapshot from an older scheme fails the tag check instead of being
  // silently misinterpreted (or silently served stale).
  top500::SystemRecord canary_record;
  canary_record.name = "scheme-canary";
  canary_record.country = "Atlantis";
  canary_record.processor = "Canary 64C 2.0GHz";
  canary_record.truth.power_kw = 1234.5;
  canary_record.top500.power = true;
  return util::Fingerprint{}
      .mix_u64(canary_record.content_fingerprint())
      .mix_u64(scenarios::baseline().fingerprint())
      .mix_u64(codec_version)
      .mix_u64(model::kAssessmentSemanticsVersion)
      .value();
}

void AssessmentEngine::save_cache(const std::string& path) const {
  const std::string bytes = cache_.snapshot(
      cache_scheme_tag(),
      [](util::BinaryWriter& w, const CellKey& key) {
        w.u64(key.record_fp).u64(key.scenario_fp);
      },
      [](util::BinaryWriter& w, const model::CellValue& cell) {
        model::encode_cell(w, cell);
      });
  // Write-to-temp + rename, so a crash or full disk mid-write can only
  // lose the *update* — an existing good snapshot at `path` survives
  // any failed save, and concurrent savers cannot interleave into a
  // corrupt file (pid + counter make the temp unique across processes
  // *and* threads; the last rename wins whole).
  static std::atomic<uint64_t> save_seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(save_seq.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw util::Error("cannot open cache file for writing: " + tmp);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw util::Error("short write to cache file: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw util::Error("cannot move cache file into place: " + path);
  }
}

size_t AssessmentEngine::load_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::Error("cannot open cache file for reading: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw util::Error("read failure on cache file: " + path);
  const std::string bytes = buf.str();
  return cache_.restore(
      bytes, cache_scheme_tag(),
      [](util::BinaryReader& r) {
        CellKey key;
        key.record_fp = r.u64();
        key.scenario_fp = r.u64();
        return key;
      },
      [](util::BinaryReader& r) { return model::decode_cell(r); },
      2 * sizeof(uint64_t) + model::kMinEncodedCellBytes);
}

EditionAssessment AssessmentEngine::assess(
    const std::vector<top500::SystemRecord>& records,
    const ScenarioSet& scenarios) {
  EditionAssessment out;
  fill_edition(records, record_fingerprints(records), scenarios, out);
  return out;
}

}  // namespace easyc::analysis
