#include "analysis/scenario.hpp"

#include "parallel/algorithms.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"

namespace easyc::analysis {

model::EasyCOptions ScenarioSpec::to_options() const {
  model::EasyCOptions opt;
  opt.embodied.accelerator_policy = accelerator_policy;
  if (fab_aci_kg_kwh) opt.embodied.fab_aci_kg_kwh = *fab_aci_kg_kwh;
  if (default_utilization) {
    opt.operational.default_utilization = *default_utilization;
  }
  opt.operational.aci_override_g_kwh = aci_override_g_kwh;
  opt.operational.pue_override = pue_override;
  return opt;
}

uint64_t ScenarioSpec::fingerprint() const {
  util::Fingerprint fp;
  fp.mix(static_cast<int>(visibility))
      .mix(static_cast<int>(accelerator_policy))
      .mix(aci_override_g_kwh)
      .mix(pue_override)
      .mix(fab_aci_kg_kwh)
      .mix(default_utilization);
  return fp.value();
}

const char* spec_value_complaint(const ScenarioSpec& spec) {
  if (!(spec.service_years > 0.0)) return "service_years must be positive";
  if (spec.aci_override_g_kwh && *spec.aci_override_g_kwh < 0.0) {
    return "aci_override_g_kwh must be non-negative";
  }
  if (spec.pue_override && *spec.pue_override < 1.0) {
    return "pue_override must be >= 1 (facility uses at least IT power)";
  }
  if (spec.fab_aci_kg_kwh && *spec.fab_aci_kg_kwh < 0.0) {
    return "fab_aci_kg_kwh must be non-negative";
  }
  if (spec.default_utilization && (*spec.default_utilization <= 0.0 ||
                                   *spec.default_utilization > 1.0)) {
    return "default_utilization must be in (0,1]";
  }
  return nullptr;
}

namespace scenarios {

ScenarioSpec baseline() {
  ScenarioSpec s;
  s.name = std::string(kBaselineName);
  s.description = "Top500.org data only; unidentifiable accelerators "
                  "yield no estimate";
  s.visibility = top500::DataVisibility::kTop500Org;
  s.accelerator_policy = model::AcceleratorPolicy::kStrict;
  return s;
}

ScenarioSpec enhanced() {
  ScenarioSpec s;
  s.name = std::string(kEnhancedName);
  s.description = "Top500.org + public info; unknown accelerators "
                  "approximated with mainstream GPUs";
  s.visibility = top500::DataVisibility::kTop500PlusPublic;
  s.accelerator_policy = model::AcceleratorPolicy::kApproximateWithMainstreamGpu;
  return s;
}

ScenarioSpec full_knowledge() {
  ScenarioSpec s;
  s.name = "full-knowledge";
  s.description = "ground-truth upper bound (every field disclosed)";
  s.visibility = top500::DataVisibility::kFullKnowledge;
  s.accelerator_policy = model::AcceleratorPolicy::kApproximateWithMainstreamGpu;
  return s;
}

ScenarioSpec renewables_grid() {
  ScenarioSpec s = enhanced();
  s.name = "whatif/renewables-grid";
  s.description = "enhanced data with the whole fleet sited on a "
                  "renewables-heavy ~25 g/kWh grid";
  s.aci_override_g_kwh = 25.0;
  return s;
}

ScenarioSpec extended_lifetime() {
  ScenarioSpec s = enhanced();
  s.name = "whatif/extended-lifetime";
  s.description = "enhanced data with embodied carbon amortized over an "
                  "8-year service life";
  s.service_years = 8.0;
  return s;
}

ScenarioSpec strict_accelerators() {
  ScenarioSpec s = enhanced();
  s.name = "whatif/no-accelerator-approximation";
  s.description = "enhanced data but unknown accelerators decline an "
                  "estimate instead of proxying";
  s.accelerator_policy = model::AcceleratorPolicy::kStrict;
  return s;
}

}  // namespace scenarios

ScenarioSet ScenarioSet::paper() {
  ScenarioSet set;
  set.add(scenarios::baseline()).add(scenarios::enhanced());
  return set;
}

ScenarioSet ScenarioSet::paper_with_whatifs() {
  ScenarioSet set = paper();
  set.add(scenarios::renewables_grid())
      .add(scenarios::extended_lifetime())
      .add(scenarios::strict_accelerators());
  return set;
}

ScenarioSet& ScenarioSet::add(ScenarioSpec spec) {
  if (spec.name.empty()) {
    throw util::Error("scenario name must not be empty");
  }
  if (contains(spec.name)) {
    throw util::Error("scenario '" + spec.name + "' already registered");
  }
  if (const char* complaint = spec_value_complaint(spec)) {
    throw util::Error("scenario '" + spec.name + "': " + complaint);
  }
  specs_.push_back(std::move(spec));
  return *this;
}

const ScenarioSpec* ScenarioSet::find(std::string_view name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const ScenarioSpec& ScenarioSet::at(std::string_view name) const {
  if (const ScenarioSpec* s = find(name)) return *s;
  throw util::Error("no scenario named '" + std::string(name) + "'");
}

std::vector<std::string> ScenarioSet::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& s : specs_) out.push_back(s.name);
  return out;
}

namespace {

// The paper scenario that reads a visibility level: baseline policy for
// Top500.org-only data, enhanced policy (GPU approximation) otherwise.
ScenarioSpec paper_spec_for(top500::DataVisibility visibility) {
  ScenarioSpec s = visibility == top500::DataVisibility::kTop500Org
                       ? scenarios::baseline()
                       : scenarios::enhanced();
  s.visibility = visibility;
  return s;
}

}  // namespace

model::EasyCOptions options_for(top500::DataVisibility visibility) {
  return paper_spec_for(visibility).to_options();
}

std::vector<model::CellValue> assess_scenario(
    const std::vector<top500::SystemRecord>& records,
    const ScenarioSpec& spec, par::ThreadPool* pool) {
  const model::EasyCModel model(spec.to_options());
  std::vector<model::CellValue> out(records.size());
  par::parallel_for(pool ? *pool : par::ThreadPool::global(), 0,
                    records.size(), [&](size_t i) {
                      out[i] = model.assess_cell(
                          to_inputs(records[i], spec.visibility));
                    });
  return out;
}

std::vector<model::CellValue> assess_scenario(
    const std::vector<top500::SystemRecord>& records,
    top500::DataVisibility visibility) {
  return assess_scenario(records, paper_spec_for(visibility));
}

}  // namespace easyc::analysis
