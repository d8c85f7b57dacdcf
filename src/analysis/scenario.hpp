// Declarative scenario engine: what-if configurations of the EasyC
// assessment, run side by side over one record list.
//
// The paper evaluates exactly two data scenarios — Top500.org-only
// ("baseline") and Baseline+PublicInfo ("enhanced") — which earlier
// revisions hardcoded as a closed enum. A scenario is now a ScenarioSpec
// value: a data-visibility policy (which disclosure mask the model may
// read) plus model-side policy knobs (accelerator fallback, grid/PUE/ACI
// overrides, fab intensity, utilization prior, amortization lifetime).
// A ScenarioSet registry carries the paper's pair as built-ins and lets
// examples, benches, and tools register arbitrary what-ifs; run_pipeline
// assesses every registered scenario concurrently.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "easyc/amortization.hpp"
#include "easyc/model.hpp"
#include "top500/record.hpp"

namespace easyc::par {
class ThreadPool;
}

namespace easyc::analysis {

/// One scenario, declaratively: everything run_pipeline needs to assess
/// the list under a data/policy configuration. Value type; copy freely.
struct ScenarioSpec {
  std::string name;         ///< registry key; must be unique and non-empty
  std::string description;  ///< one line for reports

  /// Which record fields the model may see (the paper's experimental
  /// variable).
  top500::DataVisibility visibility = top500::DataVisibility::kTop500Org;

  /// Fallback for accelerators the hardware catalog cannot identify.
  model::AcceleratorPolicy accelerator_policy =
      model::AcceleratorPolicy::kStrict;

  // --- what-if overrides; nullopt = model defaults ---
  std::optional<double> aci_override_g_kwh;  ///< force grid intensity
  std::optional<double> pue_override;        ///< force facility PUE
  std::optional<double> fab_aci_kg_kwh;      ///< fab electricity intensity
  std::optional<double> default_utilization; ///< utilization prior

  /// Amortization lifetime for annualized totals (defaults to the
  /// model-layer service-life prior).
  double service_years = model::AmortizationOptions{}.service_years;

  /// Materialize the model options this spec describes.
  model::EasyCOptions to_options() const;

  /// Stable cache key over the spec's *assessment identity*: the
  /// visibility plus every knob that reaches to_options(). Two specs
  /// with equal fingerprints produce bit-identical per-record
  /// assessments, so the engine's memo table may serve one's
  /// results to the other. name/description (presentation) and
  /// service_years (applied after assessment, in annualized totals)
  /// are deliberately excluded.
  uint64_t fingerprint() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// The value checks ScenarioSet::add runs (service years, ACI, PUE,
/// fab intensity, utilization prior): nullptr when `spec`'s values are
/// valid, else what is wrong. The name is not read, so a sweep's
/// unnamed cells are checked by the same rules.
const char* spec_value_complaint(const ScenarioSpec& spec);

/// Built-in specs. `baseline` and `enhanced` are the paper's two
/// scenarios; the rest are ready-made what-ifs for the knobs procurement
/// studies keep reaching for.
namespace scenarios {

inline constexpr std::string_view kBaselineName = "baseline";
inline constexpr std::string_view kEnhancedName = "enhanced";

ScenarioSpec baseline();             ///< Top500.org data, strict policy
ScenarioSpec enhanced();             ///< + public info, GPU approximation
ScenarioSpec full_knowledge();       ///< ground truth upper bound
ScenarioSpec renewables_grid();      ///< whole fleet on a ~25 g/kWh grid
ScenarioSpec extended_lifetime();    ///< 8-year service life amortization
ScenarioSpec strict_accelerators();  ///< enhanced data, no GPU proxying

}  // namespace scenarios

/// Ordered, name-keyed registry of scenarios. Registration order is
/// preserved and becomes the order of PipelineResult::scenarios.
class ScenarioSet {
 public:
  /// Empty set; add() scenarios or start from paper().
  ScenarioSet() = default;

  /// The paper's two scenarios, in figure order (baseline, enhanced).
  static ScenarioSet paper();

  /// paper() plus the stock what-if trio (renewables grid, extended
  /// lifetime, strict accelerators) — the default set the example,
  /// bench, and CLI share.
  static ScenarioSet paper_with_whatifs();

  /// Register a scenario. Throws util::Error on an empty or duplicate
  /// name, or when spec_value_complaint finds a value out of range.
  /// Returns *this for chaining.
  ScenarioSet& add(ScenarioSpec spec);

  bool contains(std::string_view name) const { return find(name) != nullptr; }
  /// nullptr when no scenario has this name.
  const ScenarioSpec* find(std::string_view name) const;
  /// Throws util::Error when no scenario has this name.
  const ScenarioSpec& at(std::string_view name) const;

  const std::vector<ScenarioSpec>& specs() const { return specs_; }
  std::vector<std::string> names() const;
  size_t size() const { return specs_.size(); }
  bool empty() const { return specs_.empty(); }

 private:
  std::vector<ScenarioSpec> specs_;
};

/// Compatibility shim for the pre-engine API: options for the paper
/// scenario that reads this visibility level (baseline for kTop500Org,
/// enhanced otherwise). New code uses ScenarioSpec::to_options().
model::EasyCOptions options_for(top500::DataVisibility visibility);

/// Assess every record under a scenario (visibility projection + model,
/// parallel over `pool`, or the process-global pool when null).
std::vector<model::CellValue> assess_scenario(
    const std::vector<top500::SystemRecord>& records,
    const ScenarioSpec& spec, par::ThreadPool* pool = nullptr);

/// Compatibility shim: assess under the paper scenario for a visibility.
std::vector<model::CellValue> assess_scenario(
    const std::vector<top500::SystemRecord>& records,
    top500::DataVisibility visibility);

}  // namespace easyc::analysis
