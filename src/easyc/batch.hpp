// SoA batch assessment kernel.
//
// The scalar path assesses one (record, scenario) cell at a time:
// branchy energy-path resolution, catalog substring matches, and ACI
// database scans per cell. BatchAssessor restructures a block of cells
// into three stages:
//
//   1. resolve: once per distinct record profile, run every branchy,
//      allocation-heavy step (validate(), catalog matching, count
//      resolution, energy-path selection) into an options-independent
//      resolution (see OperationalResolution / EmbodiedResolution);
//   2. gather: per batch, flatten the lanes into structure-of-arrays
//      buffers — path/validity masks plus plain double coefficients,
//      with benign values (yield 1, node count 1) in failed lanes;
//   3. vector core + scatter: the arithmetic (energy roll-up,
//      operational CO2e, embodied amortization) runs as contiguous
//      plain indexed loops the compiler auto-vectorizes, then results
//      scatter straight into per-cell CellValues, masked lanes carrying
//      the scalar path's failure-reason codes.
//
// A pass takes every scenario of a block at once: its tasks are the
// (scenario, chunk) pairs, run as one parallel loop, and each task can
// hand its finished lanes to a publish callback (the engine's cache
// insert) before the next task starts on that thread.
//
// Bit-identity guarantee: both paths call the exact inline lane
// functions in operational.hpp / embodied.hpp (namespace lane) and
// hw::carbon_per_cm2_unchecked, so the IEEE-754 expression trees are
// identical and a SoA result is byte-identical to the scalar oracle —
// same doubles, same failure reasons, same coverage. batch_kernel_test
// enforces this over the catalog x stock scenarios x sweep cells.
//
// The per-cell grid::AciDatabase lookup is hoisted: each distinct
// (country, region) pair resolves once per batch into a small table
// (scenario ACI overrides skip the database entirely, matching the
// scalar short-circuit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "easyc/embodied.hpp"
#include "easyc/model.hpp"
#include "easyc/operational.hpp"

namespace easyc::par {
class ThreadPool;
}

namespace easyc::model {

/// Counters for the bench report (how much work the batch layout saved
/// relative to per-cell resolution).
struct BatchStats {
  size_t lanes = 0;            ///< cells assessed
  size_t profiles = 0;         ///< distinct record profiles resolved
  size_t validations = 0;      ///< Inputs::validate() calls (== profiles)
  size_t aci_keys = 0;         ///< distinct (country, region) pairs
  size_t aci_db_queries = 0;   ///< AciDatabase lookups actually issued
  size_t aci_hoisted = 0;      ///< lane lookups served from the table

  BatchStats& operator+=(const BatchStats& o) {
    lanes += o.lanes;
    profiles += o.profiles;
    validations += o.validations;
    aci_keys += o.aci_keys;
    aci_db_queries += o.aci_db_queries;
    aci_hoisted += o.aci_hoisted;
    return *this;
  }
};

class BatchAssessor {
 public:
  /// One lane of a batch: which registered profile, and where the
  /// assessment lands. Each lane writes only its own slot, so any
  /// thread count produces identical bytes.
  struct Cell {
    size_t profile = 0;
    CellValue* out = nullptr;
  };

  /// One scenario's lanes within a pass.
  struct Job {
    const EasyCOptions* options = nullptr;
    const Cell* cells = nullptr;
    size_t count = 0;
  };

  /// Called by the task that just filled lanes [begin, end) of
  /// jobs[job], on that task's pool thread — concurrently with other
  /// tasks' calls, so it must be thread-safe.
  using Publish = std::function<void(size_t job, size_t begin, size_t end)>;

  /// Register `count` distinct record profiles whose inputs
  /// `project(k)` builds, k in [0, count), and resolve them — once per
  /// profile, not once per scenario. Callers dedupe (the engine keys
  /// profiles by content fingerprint and visibility); the assessor
  /// resolves whatever it is given. Ids are consecutive from the
  /// returned first id. One parallel pass across `pool` (null =
  /// process-global pool), interleaved with the pool's other callers:
  /// each task projects, validates and resolves its profiles in place;
  /// the ACI keys are assigned afterwards in profile order, so ids and
  /// tables do not depend on the pool size. Throws ValidationError
  /// exactly as the scalar path would (the lowest failing profile's,
  /// for any pool size) and then registers none of the `count`.
  size_t add_profiles(size_t count,
                      const std::function<Inputs(size_t)>& project,
                      par::ThreadPool* pool = nullptr);

  /// Assess every job's lanes in one parallel pass over (job, chunk)
  /// tasks; `publish` (optional) sees each chunk as soon as it is
  /// written. Every lane matches
  /// EasyCModel::assess_cell byte-for-byte. Each job's options are
  /// checked before any lane runs.
  void assess(const std::vector<Job>& jobs, par::ThreadPool* pool = nullptr,
              const Publish& publish = nullptr);

  size_t num_profiles() const { return profiles_.size(); }
  const Inputs& profile_inputs(size_t id) const {
    return profiles_[id].inputs;
  }

  const BatchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = BatchStats{}; }

  /// Drop all profiles (and the ACI tables) for a fresh batch.
  void clear();

 private:
  struct Profile {
    Inputs inputs;
    OperationalResolution op;
    EmbodiedResolution emb;
    uint32_t aci_key = 0;
  };

  struct AciEntry {
    bool valid = false;           ///< best_aci found a value
    double aci_g_kwh = 0.0;
    bool region_refined = false;  ///< region_aci had a refinement
  };

  /// The per-batch ACI table of one database, indexed by aci_key.
  struct AciTable {
    const grid::AciDatabase* db = nullptr;
    std::vector<AciEntry> entries;
  };

  /// Fill `db`'s table for every registered (country, region) pair;
  /// returns its index in aci_tables_.
  size_t ensure_aci_table(const grid::AciDatabase* db);
  /// `aci` is the job's table, or null when its options override ACI.
  void assess_chunk(const EasyCOptions& options, const Cell* cells,
                    size_t begin, size_t end, const AciEntry* aci) const;

  std::vector<Profile> profiles_;  ///< every one resolved

  // Distinct (country, region) -> aci_key, and the per-batch tables.
  std::unordered_map<std::string, uint32_t> aci_key_by_pair_;
  std::vector<std::pair<std::string, std::string>> aci_pairs_;
  std::vector<AciTable> aci_tables_;

  BatchStats stats_;
};

}  // namespace easyc::model
