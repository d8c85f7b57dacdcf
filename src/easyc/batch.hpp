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
//      scatter back into per-cell Outcomes, masked lanes reproducing
//      the scalar failure reasons in the scalar order.
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
    SystemAssessment* out = nullptr;
  };

  /// Register a distinct record's inputs; returns its profile id.
  /// Callers dedupe (the engine keys profiles by content fingerprint
  /// and visibility); the assessor resolves whatever it is given.
  size_t add_profile(Inputs inputs);

  /// Validate + resolve every profile registered since the last call —
  /// once per profile, not once per scenario. Throws ValidationError
  /// exactly as the scalar path would. Parallel across `pool` (null =
  /// process-global pool).
  void resolve_profiles(par::ThreadPool* pool = nullptr);

  /// Assess `count` cells under one scenario's options. Profiles must
  /// be resolved. Matches EasyCModel::assess byte-for-byte per lane.
  void assess(const EasyCOptions& options, const Cell* cells, size_t count,
              par::ThreadPool* pool = nullptr);

  size_t num_profiles() const { return profiles_.size(); }
  const Inputs& profile_inputs(size_t id) const {
    return profiles_[id].inputs;
  }

  const BatchStats& stats() const { return stats_; }
  void reset_stats() { stats_ = BatchStats{}; }

  /// Drop all profiles (and the ACI table) for a fresh batch.
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

  void ensure_aci_table(const grid::AciDatabase* db);
  void assess_chunk(const EasyCOptions& options, const Cell* cells,
                    size_t begin, size_t end, bool aci_overridden,
                    double aci_override) const;

  std::vector<Profile> profiles_;
  size_t resolved_ = 0;  ///< profiles_[0..resolved_) are resolved

  // Distinct (country, region) -> aci_key, and the per-batch table.
  std::unordered_map<std::string, uint32_t> aci_key_by_pair_;
  std::vector<std::pair<std::string, std::string>> aci_pairs_;
  const grid::AciDatabase* aci_table_db_ = nullptr;
  std::vector<AciEntry> aci_table_;

  BatchStats stats_;
};

}  // namespace easyc::model
