// EasyC embodied-carbon model (ACT-style bottom-up manufacturing carbon).
//
//   embodied MT CO2e =
//       CPUs  x (die area x carbon-per-area(node) + packaging)
//     + GPUs  x (die area x carbon-per-area(node) + HBM GB x kg/GB + pkg)
//     + DRAM capacity GB x kg/GB(type)
//     + SSD capacity TB x kg/TB
//     + nodes x platform overhead (mainboard, PSU, chassis, NIC)
//     + nodes x interconnect share (switch silicon + optics)
//
// The paper's coverage findings drive the failure modes implemented
// here: CPU-only systems are assessable from Top500 core counts alone,
// while accelerated systems need accelerator identity + count, which
// Top500.org does not adequately capture (paper Section IV-A, Fig. 6).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "easyc/inputs.hpp"
#include "easyc/outcome.hpp"
#include "hw/process.hpp"
#include "util/units.hpp"

namespace easyc::model {

/// Shared per-lane arithmetic of the embodied model (see the matching
/// namespace in operational.hpp): the scalar path and the SoA batch
/// kernel evaluate these exact expression trees, which is what makes
/// the two paths bit-identical by construction.
namespace lane {

/// One CPU package: die carbon at the scenario's fab intensity plus
/// substrate/assembly.
constexpr double cpu_package_kg(double die_area_cm2, double cpa_kg_cm2,
                                double packaging_kg) {
  return die_area_cm2 * cpa_kg_cm2 + packaging_kg;
}

/// One accelerator package: die carbon + HBM stack + CoWoS-class
/// substrate.
constexpr double gpu_package_kg(double die_area_cm2, double cpa_kg_cm2,
                                double hbm_kg, double packaging_kg) {
  return die_area_cm2 * cpa_kg_cm2 + hbm_kg + packaging_kg;
}

/// per-unit kg x unit count -> MT.
constexpr double component_mt(double per_unit_kg, double units) {
  return util::kg_to_mt(per_unit_kg * units);
}

/// Composition-scaled platform/interconnect carbon per node, capped.
constexpr double node_overhead_kg(double base_kg, double per_core_kg,
                                  double cores_per_node, double per_gpu_kg,
                                  double gpus_per_node, double cap_kg) {
  return std::min(cap_kg, base_kg + per_core_kg * cores_per_node +
                              per_gpu_kg * gpus_per_node);
}

/// Flash capacity prior when SSD TB is unreported.
constexpr double default_ssd_tb(double tb_per_node, double nodes,
                                double cap_tb) {
  return std::min(tb_per_node * nodes, cap_tb);
}

/// The six-component sum, in the scalar path's association order.
constexpr double embodied_total_mt(double cpu, double gpu, double memory,
                                   double storage, double platform,
                                   double interconnect) {
  return cpu + gpu + memory + storage + platform + interconnect;
}

}  // namespace lane

/// How unknown accelerator models are treated.
enum class AcceleratorPolicy {
  /// Decline to estimate (baseline coverage behaviour).
  kStrict,
  /// Substitute the era's mainstream datacenter GPU. The paper notes
  /// this "produces systematic underestimates of silicon size".
  kApproximateWithMainstreamGpu,
};

struct EmbodiedBreakdown {
  double cpu_mt = 0.0;
  double gpu_mt = 0.0;
  double memory_mt = 0.0;
  double storage_mt = 0.0;
  double platform_mt = 0.0;     ///< mainboard/PSU/chassis/NIC per node
  double interconnect_mt = 0.0;
  double total_mt = 0.0;

  bool used_gpu_proxy = false;      ///< mainstream-GPU substitution used
  bool used_memory_default = false; ///< per-node capacity prior used
  bool used_storage_default = false;
};

struct EmbodiedOptions {
  AcceleratorPolicy accelerator_policy = AcceleratorPolicy::kStrict;
  /// Fab electricity intensity, kgCO2e/kWh (ACT world-average default).
  double fab_aci_kg_kwh = 0.475;
  /// Per-package assembly/substrate carbon, kgCO2e (CoWoS-class
  /// substrates for accelerators are far heavier than CPU LGA parts).
  double cpu_packaging_kg = 12.0;
  double gpu_packaging_kg = 25.0;
  /// Node platform manufacturing carbon (mainboard PCB, PSUs, chassis
  /// sheet metal, NIC) scales with node composition: a 48-core blade is
  /// nothing like an 8-GPU DGX chassis. kgCO2e per node:
  ///   platform = base + per_core x CPU cores + per_gpu x GPUs  (capped)
  double platform_base_kg = 80.0;
  double platform_per_cpu_core_kg = 1.6;
  double platform_per_gpu_kg = 45.0;
  double platform_cap_kg = 650.0;
  /// Interconnect fabric share (switch silicon, optics, cables), same
  /// composition scaling.
  double interconnect_base_kg = 30.0;
  double interconnect_per_cpu_core_kg = 0.6;
  double interconnect_per_gpu_kg = 20.0;
  double interconnect_cap_kg = 280.0;
  /// Default node-local + parallel-FS share of flash when SSD capacity
  /// is unreported: TB per node, with a site-level cap (large node
  /// counts share a filesystem rather than replicating 12 TB each).
  double default_ssd_tb_per_node = 8.0;
  double default_ssd_cap_tb = 40000.0;
};

/// Embodied failure-reason codes (CellOutcome<EmbodiedBreakdown> bits),
/// in the order their text is reported.
namespace reason {
inline constexpr uint8_t kUnknownCpu = 1u << 0;
inline constexpr uint8_t kNoCounts = 1u << 1;
inline constexpr uint8_t kUnknownAccelerator = 1u << 2;
inline constexpr uint8_t kNoGpuCount = 1u << 3;
inline constexpr uint8_t kEmbodiedCodes =
    kUnknownCpu | kNoCounts | kUnknownAccelerator | kNoGpuCount;
}  // namespace reason

/// The text of embodied failure `codes` for a system, in the order the
/// codes are declared (empty for 0).
std::vector<std::string> embodied_reason_text(uint8_t codes,
                                              const Inputs& inputs);

/// The options-independent half of one embodied assessment: catalog
/// matches, count resolution, era priors — every branchy step that
/// depends only on the inputs. Computed once per distinct record and
/// reused across scenarios; finish_embodied applies the per-scenario
/// knobs (fab ACI, packaging, platform coefficients, accelerator
/// policy) on top.
struct EmbodiedResolution {
  int year = 2020;

  bool has_cpu = false;            ///< catalog hit or mainstream-generic
  double cpu_die_area_cm2 = 0.0;
  hw::ProcessNode cpu_node{};

  bool has_counts = false;         ///< node/package counts resolvable
  long long nodes = 0;
  long long cpus = 0;

  bool accelerated = false;        ///< Inputs::has_accelerator()
  bool acc_in_catalog = false;
  // Catalog-accelerator coefficients (meaningful when acc_in_catalog).
  double acc_die_area_cm2 = 0.0;
  hw::ProcessNode acc_node{};
  double acc_hbm_kg = 0.0;
  // Era-proxy coefficients (meaningful when accelerated and the model
  // is not in the catalog; whether they are used is the scenario's
  // AcceleratorPolicy, so both variants are resolved up front).
  double proxy_die_area_cm2 = 0.0;
  hw::ProcessNode proxy_node{};
  double proxy_hbm_kg = 0.0;

  bool has_gpu_count = false;
  long long gpu_count = 0;

  bool has_memory_gb = false;
  double memory_gb = 0.0;          ///< reported, when has_memory_gb
  double default_memory_gb = 0.0;  ///< era prior (valid when has_cpu && has_counts)
  double mem_kg_per_gb = 0.0;

  bool has_ssd_tb = false;
  double ssd_tb = 0.0;             ///< reported, when has_ssd_tb

  // Derived doubles for the composition-scaled components (valid when
  // has_counts; cpu_cores_per_node additionally needs has_cpu).
  double nodes_d = 0.0;
  double cpu_cores_per_node = 0.0;
  double gpus_per_node = 0.0;
};

/// Resolve the options-independent half. `inputs` must already be
/// validated.
EmbodiedResolution resolve_embodied(const Inputs& inputs);

/// Failure codes of a resolution under `policy` (0 = assessable).
/// Shared by the scalar path and the batch kernel's validity mask.
uint8_t embodied_failure_codes(const EmbodiedResolution& resolution,
                               AcceleratorPolicy policy);

/// Apply scenario knobs to a resolution.
CellOutcome<EmbodiedBreakdown> finish_embodied(
    const EmbodiedResolution& resolution, const EmbodiedOptions& options);

/// The compact form of assess_embodied_prevalidated.
CellOutcome<EmbodiedBreakdown> assess_embodied_cell(
    const Inputs& inputs, const EmbodiedOptions& options);

Outcome<EmbodiedBreakdown> assess_embodied(const Inputs& inputs,
                                           const EmbodiedOptions& options = {});

/// assess_embodied for inputs already validated this batch.
Outcome<EmbodiedBreakdown> assess_embodied_prevalidated(
    const Inputs& inputs, const EmbodiedOptions& options);

}  // namespace easyc::model
