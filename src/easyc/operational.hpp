// EasyC operational-carbon model.
//
//   operational MT CO2e / year =
//       annual energy (kWh) x PUE x grid carbon intensity (g/kWh) / 1e9
//
// Annual energy is resolved through a "gentle slope" of estimation
// paths, from best data to least (the paper's design requirement: use
// the few metrics available, allow more when present):
//
//   1. metered annual energy            (optional metric 9)
//   2. Top500-reported HPL power  x utilization x 8760h
//   3. component power roll-up: nodes x (CPU TDP + GPU TDP + DRAM + fan/
//      VRM overhead) x utilization     (needs node/CPU/GPU counts)
//   4. core-count power estimate       (CPU-only systems)
//
// If none of the paths has its inputs, the model reports no estimate —
// that is the uncovered population of paper Figs. 4-5.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "easyc/inputs.hpp"
#include "easyc/outcome.hpp"
#include "grid/aci.hpp"
#include "util/units.hpp"

namespace easyc::model {

/// Shared per-lane arithmetic of the operational model. Both the scalar
/// path (finish_operational) and the SoA batch kernel's vector loops
/// call these exact functions, so the two paths are bit-identical by
/// construction: the same IEEE-754 expression trees, evaluated per
/// lane, whatever the loop structure around them.
namespace lane {

/// Path 2/3/4: component or core watts -> average IT kW including the
/// node overhead share.
constexpr double overhead_scaled_kw(double watts, double overhead_fraction) {
  return watts * (1.0 + overhead_fraction) / 1000.0;
}

/// Path 1: metered facility energy back to average IT power.
constexpr double metered_it_kw(double annual_kwh) {
  return annual_kwh / util::kHoursPerYear;
}

/// Non-metered paths: IT power x utilization over a year, facility-side.
constexpr double facility_annual_kwh(double it_kw, double utilization,
                                     double pue) {
  return util::kw_year_to_kwh(it_kw * utilization) * pue;
}

/// Facility energy at a grid intensity -> MT CO2e per year.
constexpr double operational_mt(double annual_kwh, double aci_g_kwh) {
  return util::kwh_to_mtco2e(annual_kwh, aci_g_kwh);
}

}  // namespace lane

/// Which estimation path produced the energy figure.
enum class EnergyPath {
  kMeteredAnnualEnergy,
  kReportedPower,
  kComponentRollup,
  kCoreCountEstimate,
};

std::string energy_path_name(EnergyPath path);

struct OperationalResult {
  double mt_co2e = 0.0;        ///< annual operational carbon
  double annual_kwh = 0.0;     ///< facility energy (post-PUE)
  double it_kw = 0.0;          ///< average IT power draw
  double pue = 1.0;
  double aci_g_kwh = 0.0;      ///< grid intensity used
  bool aci_region_refined = false;  ///< true when a sub-national ACI hit
  EnergyPath path = EnergyPath::kReportedPower;
  double utilization = 0.0;    ///< utilization actually applied
};

struct OperationalOptions {
  /// Prior for average utilization when the optional metric is absent.
  /// Leadership HPC systems run 70-90% busy; 0.75 is the default prior
  /// (annual average draw relative to the HPL power figure).
  double default_utilization = 0.75;
  /// Grid intensity database (defaults to the builtin snapshot).
  const grid::AciDatabase* aci = &grid::AciDatabase::builtin();
  /// Power drawn by node components other than CPU/GPU/DRAM (VRM loss,
  /// fans, NIC), as a fraction of compute power.
  double node_overhead_fraction = 0.18;
  /// What-if override: force this grid intensity (gCO2e/kWh) for every
  /// system instead of the database lookup (e.g. a renewables-heavy
  /// fleet-siting scenario). Also rescues systems whose country has no
  /// database entry.
  std::optional<double> aci_override_g_kwh;
  /// What-if override: force this PUE instead of the facility-class
  /// prior. Not applied on the metered-energy path, which is already
  /// facility-side.
  std::optional<double> pue_override;
};

/// Operational failure-reason codes (CellOutcome<OperationalResult>
/// bits), in the order their text is reported.
namespace reason {
inline constexpr uint8_t kNoGridIntensity = 1u << 0;
inline constexpr uint8_t kNoEnergyPath = 1u << 1;
inline constexpr uint8_t kOperationalCodes = kNoGridIntensity | kNoEnergyPath;
}  // namespace reason

/// The text of operational failure `codes` for a system, in the order
/// the codes are declared (empty for 0).
std::vector<std::string> operational_reason_text(uint8_t codes,
                                                 const Inputs& inputs);

/// The options-independent half of one operational assessment: energy
/// path selected, catalog strings matched, era priors applied — every
/// branchy, allocation-heavy step that depends only on the inputs. A
/// resolution is computed once per distinct input record and reused
/// across scenarios (the batch kernel's main win); finish_operational
/// applies the per-scenario knobs on top.
struct OperationalResolution {
  /// Which estimation path the inputs support (kNone = the uncovered
  /// population). Path choice never depends on options.
  enum class Path { kNone, kMetered, kReported, kRollup, kCores };
  Path path = Path::kNone;

  /// Path payload: metered annual kWh, reported kW, roll-up component
  /// watts (pre-overhead), or core-count watts (pre-overhead).
  double base = 0.0;

  int year = 2020;                ///< operation year (2020 prior applied)
  bool has_utilization = false;   ///< metric 8 reported
  double utilization = 0.0;       ///< meaningful when has_utilization

};

/// Resolve the options-independent half. `inputs` must already be
/// validated (callers: assess_operational after validate(), the batch
/// kernel once per distinct record profile).
OperationalResolution resolve_operational(const Inputs& inputs);

/// Apply scenario knobs to a resolution. `aci`/`aci_region_refined`
/// must be exactly what the scalar lookup would produce: the override
/// when set, else AciDatabase::best_aci / region_aci — the batch kernel
/// serves them from a per-batch table instead.
CellOutcome<OperationalResult> finish_operational(
    const OperationalResolution& resolution, std::optional<double> aci,
    bool aci_region_refined, const OperationalOptions& options);

/// The compact form of assess_operational_prevalidated: the same
/// numbers, failure reasons as codes.
CellOutcome<OperationalResult> assess_operational_cell(
    const Inputs& inputs, const OperationalOptions& options);

/// Assess one system. `inputs.validate()` is called; invalid inputs
/// throw ValidationError, *missing* inputs yield a failure Outcome.
Outcome<OperationalResult> assess_operational(
    const Inputs& inputs, const OperationalOptions& options = {});

/// assess_operational for inputs already validated this batch (the
/// engine validates once per distinct record, not once per scenario).
Outcome<OperationalResult> assess_operational_prevalidated(
    const Inputs& inputs, const OperationalOptions& options);

}  // namespace easyc::model
