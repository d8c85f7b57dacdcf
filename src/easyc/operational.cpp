#include "easyc/operational.hpp"

#include <algorithm>

#include "grid/pue.hpp"
#include "hw/accelerator.hpp"
#include "hw/cpu.hpp"
#include "hw/memory.hpp"
#include "util/units.hpp"

namespace easyc::model {

std::string energy_path_name(EnergyPath path) {
  switch (path) {
    case EnergyPath::kMeteredAnnualEnergy: return "metered annual energy";
    case EnergyPath::kReportedPower: return "reported HPL power";
    case EnergyPath::kComponentRollup: return "component power roll-up";
    case EnergyPath::kCoreCountEstimate: return "core-count estimate";
  }
  return "unknown";
}

namespace {

// Per-node average DRAM capacity prior (GB) by era, used only inside the
// component roll-up when memory capacity is unreported.
double default_node_memory_gb(int year) {
  if (year >= 2023) return 768.0;
  if (year >= 2019) return 512.0;
  if (year >= 2016) return 256.0;
  return 128.0;
}

// Estimation path 3: roll node component TDPs up to system compute
// power (watts, pre-overhead; finish_operational applies the node
// overhead share via lane::overhead_scaled_kw).
std::optional<double> component_rollup_watts(const Inputs& in) {
  if (!in.num_nodes || !in.num_cpus) return std::nullopt;
  // Accelerated system with no accelerator count: cannot roll up.
  if (in.has_accelerator() && !in.num_gpus) return std::nullopt;

  const int year = in.operation_year.value_or(2020);

  double cpu_tdp_w = 0.0;
  if (auto cpu = hw::find_cpu(in.processor)) {
    cpu_tdp_w = cpu->tdp_w;
  } else if (in.total_cores && in.num_cpus) {
    const auto cores_per_cpu = static_cast<int>(
        std::max<long long>(1, *in.total_cores / *in.num_cpus));
    cpu_tdp_w = hw::generic_server_cpu(year, cores_per_cpu).tdp_w;
  } else {
    return std::nullopt;
  }

  double gpu_w_total = 0.0;
  if (in.has_accelerator()) {
    double gpu_tdp = 0.0;
    if (auto acc = hw::find_accelerator(in.accelerator)) {
      gpu_tdp = acc->tdp_w;
    } else {
      gpu_tdp = hw::mainstream_gpu_proxy(year).tdp_w;
    }
    gpu_w_total = gpu_tdp * static_cast<double>(*in.num_gpus);
  }

  const double cpu_w_total =
      cpu_tdp_w * static_cast<double>(*in.num_cpus);

  const double mem_gb = in.memory_gb.value_or(
      default_node_memory_gb(year) * static_cast<double>(*in.num_nodes));
  const auto mem_type =
      in.memory_type ? hw::parse_memory_type(*in.memory_type)
                     : hw::MemoryType::kUnknown;
  const double mem_w_total = hw::memory_spec(mem_type).power_w_per_gb * mem_gb;

  return cpu_w_total + gpu_w_total + mem_w_total;
}

// Estimation path 4: CPU-only systems where only core counts are known.
// Returns watts, pre-overhead, like component_rollup_watts.
std::optional<double> core_count_watts(const Inputs& in) {
  if (in.has_accelerator()) return std::nullopt;  // cores alone say nothing
  if (!in.total_cores) return std::nullopt;
  const int year = in.operation_year.value_or(2020);
  // Era-typical average watts per core, including the core's share of
  // uncore and DRAM (calibrated against listed HPL power of CPU-only
  // systems of each era).
  double w_per_core = 3.4;
  if (year >= 2022) {
    w_per_core = 2.3;
  } else if (year >= 2019) {
    w_per_core = 2.7;
  }
  return static_cast<double>(*in.total_cores) * w_per_core;
}

}  // namespace

OperationalResolution resolve_operational(const Inputs& in) {
  OperationalResolution rz;
  rz.year = in.operation_year.value_or(2020);
  rz.has_utilization = in.utilization.has_value();
  if (rz.has_utilization) rz.utilization = *in.utilization;

  if (in.annual_energy_kwh) {
    // Path 1: metered energy is facility-side; no PUE re-application.
    rz.path = OperationalResolution::Path::kMetered;
    rz.base = *in.annual_energy_kwh;
  } else if (in.power_kw) {
    // Path 2: Top500 power is measured during HPL, close to full load;
    // scale by utilization for the annual average.
    rz.path = OperationalResolution::Path::kReported;
    rz.base = *in.power_kw;
  } else if (auto roll = component_rollup_watts(in)) {
    rz.path = OperationalResolution::Path::kRollup;
    rz.base = *roll;
  } else if (auto cores = core_count_watts(in)) {
    rz.path = OperationalResolution::Path::kCores;
    rz.base = *cores;
  }
  return rz;
}

CellOutcome<OperationalResult> finish_operational(
    const OperationalResolution& rz, std::optional<double> aci,
    bool aci_region_refined, const OperationalOptions& options) {
  uint8_t codes = aci ? 0 : reason::kNoGridIntensity;

  const double util =
      rz.has_utilization ? rz.utilization : options.default_utilization;

  OperationalResult r;
  r.utilization = util;

  using Path = OperationalResolution::Path;
  switch (rz.path) {
    case Path::kNone:
      codes |= reason::kNoEnergyPath;
      break;
    case Path::kMetered:
      r.path = EnergyPath::kMeteredAnnualEnergy;
      r.annual_kwh = rz.base;
      r.pue = 1.0;
      r.it_kw = lane::metered_it_kw(rz.base);
      break;
    case Path::kReported:
    case Path::kRollup:
    case Path::kCores:
      r.path = rz.path == Path::kReported ? EnergyPath::kReportedPower
               : rz.path == Path::kRollup ? EnergyPath::kComponentRollup
                                          : EnergyPath::kCoreCountEstimate;
      r.it_kw = rz.path == Path::kReported
                    ? rz.base
                    : lane::overhead_scaled_kw(rz.base,
                                               options.node_overhead_fraction);
      r.pue = options.pue_override.value_or(grid::default_pue(
          grid::infer_facility_class(r.it_kw, rz.year), rz.year));
      r.annual_kwh = lane::facility_annual_kwh(r.it_kw, util, r.pue);
      break;
  }

  if (codes != 0) return CellOutcome<OperationalResult>::failure(codes);

  r.aci_g_kwh = *aci;
  r.aci_region_refined = aci_region_refined;
  r.mt_co2e = lane::operational_mt(r.annual_kwh, r.aci_g_kwh);
  return CellOutcome<OperationalResult>::success(r);
}

std::vector<std::string> operational_reason_text(uint8_t codes,
                                                 const Inputs& in) {
  std::vector<std::string> text;
  if (codes & reason::kNoGridIntensity) {
    text.push_back("no grid carbon intensity for country '" + in.country +
                   "'");
  }
  if (codes & reason::kNoEnergyPath) {
    text.push_back(
        "no energy path: power not reported and component counts "
        "insufficient for a roll-up");
  }
  return text;
}

CellOutcome<OperationalResult> assess_operational_cell(
    const Inputs& in, const OperationalOptions& options) {
  EASYC_REQUIRE(options.aci != nullptr, "options.aci must not be null");
  EASYC_REQUIRE(options.default_utilization > 0.0 &&
                    options.default_utilization <= 1.0,
                "default utilization must be in (0,1]");
  const OperationalResolution rz = resolve_operational(in);
  const bool aci_overridden = options.aci_override_g_kwh.has_value();
  const auto aci = aci_overridden
                       ? options.aci_override_g_kwh
                       : options.aci->best_aci(in.country, in.region);
  const bool region_refined =
      !aci_overridden &&
      options.aci->region_aci(in.country, in.region).has_value();
  return finish_operational(rz, aci, region_refined, options);
}

Outcome<OperationalResult> assess_operational_prevalidated(
    const Inputs& in, const OperationalOptions& options) {
  const auto cell = assess_operational_cell(in, options);
  return cell.render(operational_reason_text(cell.codes, in));
}

Outcome<OperationalResult> assess_operational(
    const Inputs& in, const OperationalOptions& options) {
  in.validate();
  return assess_operational_prevalidated(in, options);
}

}  // namespace easyc::model
