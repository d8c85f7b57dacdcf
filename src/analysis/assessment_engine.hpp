// The assessment engine: N list editions x M scenarios over one thread
// pool, with a memoized per-record assessment cache.
//
// The paper's growth-rate derivation (Section IV-C) and projections
// assess *many* TOP500 editions, but only ~48 of 500 systems change per
// cycle — the survivors are byte-identical apart from their rank. The
// engine therefore flattens (edition, scenario, record) cells into
// parallel shards and memoizes each compact model::CellValue under the
// key
// (record content fingerprint, scenario fingerprint) in a lock-striped
// par::ShardedCache: a surviving system is assessed exactly once across
// the whole history, and repeated runs over unchanged inputs are served
// from cache entirely.
//
// Editions are processed as successive parallel wavefronts (all
// scenario x record cells of one edition run concurrently; editions
// are ordered, and fingerprint-equal scenario aliases within an
// edition run after their primary). The ordering is what makes the
// exactly-once guarantee and the hit-rate deterministic for every
// pool size — without it, cells of the same survivor in different
// editions could race to the same cold cache line and both compute.
//
// Determinism: assessments are pure functions of (record content,
// scenario), so results are bit-identical for any pool size and any
// cache state (cold, warm, disabled, mid-eviction). CacheStats makes
// the speedup measurable rather than asserted.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/coverage.hpp"
#include "analysis/scenario.hpp"
#include "easyc/batch.hpp"
#include "easyc/model.hpp"
#include "parallel/sharded_cache.hpp"
#include "top500/history.hpp"
#include "top500/record.hpp"

namespace easyc::analysis {

/// One model side of one scenario, as a rank-ordered optional series
/// (MT CO2e); nullopt = not covered.
using CarbonSeries = std::vector<std::optional<double>>;

struct ScenarioResults {
  ScenarioSpec spec;
  /// One compact cell per record, rank order: numbers and failure
  /// codes, no names or reason text (model::render_assessment of the
  /// record's to_inputs(record, spec.visibility) adds them).
  std::vector<model::CellValue> assessments;
  CarbonSeries operational;  ///< MT CO2e, rank order
  CarbonSeries embodied;
  CoverageCounts coverage;

  /// Derive `operational`, `embodied` and `coverage` from `assessments`.
  void finalize();

  double total(bool operational_side) const;   ///< sum of covered systems
  double average(bool operational_side) const; ///< mean over covered
  /// Covered operational total plus covered embodied total amortized
  /// over the spec's service life (MT CO2e per year).
  double annualized_total_mt() const;
};

/// Extract a CarbonSeries from assessments.
CarbonSeries operational_series(
    const std::vector<model::CellValue>& assessments);
CarbonSeries embodied_series(const std::vector<model::CellValue>& assessments);

/// Name lookup over a scenario-results list, shared by every type that
/// carries one (EditionAssessment, PipelineResult). `find_scenario_in`
/// returns nullptr for an unknown name; `scenario_in` throws
/// util::Error mentioning `owner` ("edition", "pipeline", ...).
const ScenarioResults* find_scenario_in(
    const std::vector<ScenarioResults>& scenarios, std::string_view name);
const ScenarioResults& scenario_in(
    const std::vector<ScenarioResults>& scenarios, std::string_view name,
    std::string_view owner);

/// One edition's engine output: every registered scenario assessed over
/// the edition's records, in registration order.
struct EditionAssessment {
  std::string label;       ///< ListEdition::label ("" for a bare list)
  int num_new = 0;         ///< systems that entered this cycle
  double perf_pflops = 0.0;  ///< aggregate Rmax of the edition
  std::vector<ScenarioResults> scenarios;

  /// Keyed access. `scenario` throws util::Error for an unknown name;
  /// `find_scenario` returns nullptr instead.
  const ScenarioResults& scenario(std::string_view name) const;
  const ScenarioResults* find_scenario(std::string_view name) const;
};

class AssessmentEngine {
 public:
  struct Options {
    /// Pool the shards run on; null = the process-global pool.
    par::ThreadPool* pool = nullptr;
    /// false = always recompute (the no-cache ablation arm): the same
    /// fill grids run with every cell a miss. Results are bit-identical
    /// either way.
    bool cache_enabled = true;
    /// Resident assessment bound (0 = unbounded). A full edition set
    /// is ~500 entries per scenario; the default never evicts in the
    /// paper workloads.
    size_t cache_capacity = 0;
    /// Stripes of the memo table.
    size_t cache_shards = 16;
  };

  AssessmentEngine();  // default options
  explicit AssessmentEngine(Options options);

  /// Assess every edition under every registered scenario. The memo
  /// cache persists across calls: re-running an unchanged history is
  /// pure lookups, and an extended history only assesses the new tail.
  std::vector<EditionAssessment> run(
      const std::vector<top500::ListEdition>& editions,
      const ScenarioSet& scenarios);

  /// Single record list (run_pipeline's unit): one edition with no
  /// label/turnover bookkeeping.
  EditionAssessment assess(const std::vector<top500::SystemRecord>& records,
                           const ScenarioSet& scenarios);

  /// The sweep entry point: assess `specs` over `records` straight into
  /// the caller-owned, row-major `grid` of specs.size() * records.size()
  /// cells (grid[s * records.size() + i] is spec s on record i). Names
  /// and descriptions are never read, and no series, coverage or spec
  /// copy is built. `record_fps` must be record_fingerprints(records),
  /// computed once by the caller (a sweep reuses them for every block).
  /// Cells are bit-identical to assess() over the same specs.
  void assess_rows(const std::vector<top500::SystemRecord>& records,
                   const std::vector<uint64_t>& record_fps,
                   std::span<const ScenarioSpec> specs,
                   model::CellValue* grid);

  /// Each record's content_fingerprint() — its half of a memo key —
  /// computed on the engine's pool; empty when the cache is disabled,
  /// where nothing is keyed.
  std::vector<uint64_t> record_fingerprints(
      const std::vector<top500::SystemRecord>& records) const;

  const Options& options() const { return options_; }
  par::CacheStats cache_stats() const { return cache_.stats(); }
  void clear_cache() { cache_.clear(); }

  /// Cumulative SoA-kernel counters (lanes batched, profiles resolved,
  /// validations, ACI lookups hoisted). Fills run through the SoA
  /// kernel when the scenario set averages at least two lanes per
  /// distinct visibility (sweep blocks) and through the scalar per-cell
  /// EasyCModel::assess otherwise (the paper pair), which counts
  /// nothing here — so `lanes` says which kernel ran. Safe
  /// to call while other threads run assess()/run() — the server's
  /// concurrent admission path does exactly that.
  model::BatchStats batch_stats() const;

  /// Persist the memo cache to `path` as a versioned, checksummed
  /// ShardedCache snapshot (see sharded_cache.hpp for the header
  /// layout) whose scheme tag is cache_scheme_tag(). Works whether the
  /// cache is cold, warm, or mid-eviction. Throws util::Error when the
  /// file cannot be written.
  void save_cache(const std::string& path) const;

  /// Warm-start the memo cache from a save_cache() file: a later
  /// process re-running unchanged inputs becomes pure lookups. Returns
  /// the number of entries the snapshot carried. Throws util::Error
  /// when the file cannot be read and util::CodecError when it is
  /// corrupt, truncated, or written under a different format version
  /// or fingerprint/codec scheme — a bad file is rejected, never
  /// partially trusted beyond the entries already decoded.
  size_t load_cache(const std::string& path);

  /// The scheme tag snapshot files are bound to: a fingerprint over a
  /// canary record fingerprint, a canary scenario fingerprint, and the
  /// assessment codec and semantics versions. If the fingerprinting
  /// algorithm, the fingerprinted field set, or the value codec changes
  /// shape, the tag changes and older snapshots are rejected as stale.
  static uint64_t cache_scheme_tag();
  /// The tag under another codec version (what an older build wrote).
  static uint64_t cache_scheme_tag(uint32_t codec_version);

 private:
  struct CellKey {
    uint64_t record_fp = 0;
    uint64_t scenario_fp = 0;
    friend bool operator==(const CellKey&, const CellKey&) = default;
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& k) const {
      // The fingerprints are already well-mixed 64-bit hashes; fold
      // them with the golden-ratio constant to decorrelate the pair.
      return static_cast<size_t>(k.record_fp ^
                                 (k.scenario_fp * 0x9e3779b97f4a7c15ULL));
    }
  };

  /// Fill rows[s][i] (spec s on record i) for every cell.
  void assess_edition(const std::vector<top500::SystemRecord>& records,
                      const std::vector<uint64_t>& record_fps,
                      std::span<const ScenarioSpec> specs,
                      model::CellValue* const* rows);
  /// assess_edition into `out`'s per-scenario vectors, then finalize.
  void fill_edition(const std::vector<top500::SystemRecord>& records,
                    const std::vector<uint64_t>& record_fps,
                    const ScenarioSet& scenarios, EditionAssessment& out);

  using Cache = par::ShardedCache<CellKey, model::CellValue, CellKeyHash>;

  void add_batch_stats(const model::BatchStats& stats);

  Options options_;
  Cache cache_;
  // The cache is lock-striped, but the kernel counters are one shared
  // accumulator; the mutex makes concurrent assess()/run() callers
  // (the server executors) race-free. Uncontended outside batch ends.
  mutable std::mutex batch_stats_mu_;
  model::BatchStats batch_stats_;
};

}  // namespace easyc::analysis
