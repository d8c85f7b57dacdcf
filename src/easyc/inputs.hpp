// EasyC model inputs.
//
// EasyC's central claim (Fig. 1 of the paper) is that carbon footprint
// can be modeled from *seven key data metrics* plus two optional ones,
// against the hundreds a GHG-protocol computation needs:
//
//   1. Operation year            5. Memory capacity
//   2. # of compute nodes        6. Memory type
//   3. # of GPUs                 7. SSD capacity
//   4. # of CPUs                 (opt.) system utilization
//                                (opt.) annual power consumed
//
// `Inputs` carries those metrics (each individually optional, because
// availability is exactly what the paper studies) plus the identity and
// performance context every Top500 entry has.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace easyc::model {

/// Identifier for each EasyC data metric; used by the coverage analysis
/// (paper Table I) to report which metrics are missing per system.
enum class Metric {
  kOperationYear,
  kNumComputeNodes,
  kNumGpus,
  kNumCpus,
  kMemoryCapacity,
  kMemoryType,
  kSsdCapacity,
  kSystemUtilization,   // optional
  kAnnualPowerConsumed, // optional
};

/// All nine metrics in paper Table I order.
const std::vector<Metric>& all_metrics();

/// Human-readable metric name matching the paper's Table I rows.
std::string metric_name(Metric m);

/// True for the two optional metrics.
bool metric_is_optional(Metric m);

/// Latest operation year Inputs::validate accepts (the earliest is
/// 1993, the first Top500 list).
inline constexpr int kMaxOperationYear = 2035;

struct Inputs {
  // --- identity & context (available for every Top500 entry) ---
  std::string name;
  std::string country;
  std::string region;            ///< sub-national grid region; "" = unknown
  double rmax_tflops = 0.0;
  double rpeak_tflops = 0.0;
  std::optional<double> power_kw;      ///< Top500-reported HPL power
  std::optional<long long> total_cores;
  std::string processor;         ///< Top500 processor string
  std::string accelerator;       ///< Top500 accelerator string; "" = none

  // --- the 7 key metrics ---
  std::optional<int> operation_year;          // 1
  std::optional<long long> num_nodes;         // 2
  std::optional<long long> num_gpus;          // 3
  std::optional<long long> num_cpus;          // 4
  std::optional<double> memory_gb;            // 5
  std::optional<std::string> memory_type;     // 6 ("DDR4", "HBM2e", ...)
  std::optional<double> ssd_tb;               // 7

  // --- the 2 optional metrics ---
  std::optional<double> utilization;          ///< average load in [0,1]
  std::optional<double> annual_energy_kwh;    ///< metered annual energy

  /// Which metrics are absent. Optional metrics are included only when
  /// `include_optional` is set (Table I lists them too).
  std::vector<Metric> missing_metrics(bool include_optional = true) const;

  /// Count of missing metrics (the x-axis of the paper's Fig. 2).
  int num_missing(bool include_optional = true) const;

  /// Throws ValidationError for physically impossible values (negative
  /// counts/capacities, utilization outside [0,1], year out of range).
  void validate() const;

  /// True if the system reports an accelerator.
  bool has_accelerator() const;
};

}  // namespace easyc::model
