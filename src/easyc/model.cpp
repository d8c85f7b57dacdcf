#include "easyc/model.hpp"

#include "parallel/algorithms.hpp"

namespace easyc::model {

SystemAssessment EasyCModel::assess(const Inputs& inputs) const {
  // One validate() covers both sub-models (they used to re-validate
  // independently; the batch kernel validates once per distinct record).
  inputs.validate();
  return SystemAssessment(
      inputs.name,
      assess_operational_prevalidated(inputs, options_.operational),
      assess_embodied_prevalidated(inputs, options_.embodied));
}

CellValue EasyCModel::assess_cell(const Inputs& inputs) const {
  inputs.validate();
  return {assess_operational_cell(inputs, options_.operational),
          assess_embodied_cell(inputs, options_.embodied)};
}

SystemAssessment render_assessment(const CellValue& cell,
                                   const Inputs& inputs) {
  return SystemAssessment(
      inputs.name,
      cell.operational.render(
          operational_reason_text(cell.operational.codes, inputs)),
      cell.embodied.render(embodied_reason_text(cell.embodied.codes, inputs)));
}

std::vector<SystemAssessment> EasyCModel::assess_all(
    const std::vector<Inputs>& inputs, par::ThreadPool* pool) const {
  // Fill the compact cells in parallel, then render each in input
  // order: no placeholder SystemAssessment is built to be overwritten.
  std::vector<CellValue> cells(inputs.size());
  par::parallel_for(pool ? *pool : par::ThreadPool::global(), 0,
                    inputs.size(),
                    [&](size_t i) { cells[i] = assess_cell(inputs[i]); });
  std::vector<SystemAssessment> out;
  out.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    out.push_back(render_assessment(cells[i], inputs[i]));
  }
  return out;
}

}  // namespace easyc::model
