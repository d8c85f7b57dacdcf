// EasyCModel: the tool facade (paper Fig. 1).
//
// Bundles the operational and embodied models behind one call with one
// options block, and reports per-system assessments that the analysis
// layer aggregates into the paper's figures.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "easyc/embodied.hpp"
#include "easyc/inputs.hpp"
#include "easyc/operational.hpp"

namespace easyc::par {
class ThreadPool;
}

namespace easyc::model {

struct EasyCOptions {
  OperationalOptions operational;
  EmbodiedOptions embodied;
};

/// Per-system assessment: either side may independently fail for lack
/// of data (the paper's operational and embodied coverages differ:
/// 391 vs 283 of 500 on Top500.org data).
struct SystemAssessment {
  std::string name;
  Outcome<OperationalResult> operational;
  Outcome<EmbodiedBreakdown> embodied;

  SystemAssessment()
      : operational(Outcome<OperationalResult>::failure("not assessed")),
        embodied(Outcome<EmbodiedBreakdown>::failure("not assessed")) {}
  SystemAssessment(std::string system_name,
                   Outcome<OperationalResult> operational_side,
                   Outcome<EmbodiedBreakdown> embodied_side)
      : name(std::move(system_name)),
        operational(std::move(operational_side)),
        embodied(std::move(embodied_side)) {}
};

/// The compact per-system assessment the engine memoizes and reports:
/// both sides' numbers with failure reasons as codes. It carries no
/// name and no reason text, so it is fixed-size and trivially
/// copyable; render_assessment() produces the full SystemAssessment
/// from it and the system's inputs when a caller asks for one.
struct CellValue {
  CellOutcome<OperationalResult> operational;
  CellOutcome<EmbodiedBreakdown> embodied;
};
static_assert(std::is_trivially_copyable_v<CellValue>);

/// Name and reason text rendered on demand: for `inputs` the cell was
/// assessed from, render_assessment(model.assess_cell(inputs), inputs)
/// equals model.assess(inputs).
SystemAssessment render_assessment(const CellValue& cell,
                                   const Inputs& inputs);

class EasyCModel {
 public:
  explicit EasyCModel(EasyCOptions options = {})
      : options_(std::move(options)) {}

  const EasyCOptions& options() const { return options_; }

  /// Assess one system.
  SystemAssessment assess(const Inputs& inputs) const;

  /// Assess one system into the compact cell form (no name, reasons as
  /// codes); validates like assess().
  CellValue assess_cell(const Inputs& inputs) const;

  /// Assess a fleet. When `pool` is non-null the sweep is parallelized
  /// across it (otherwise across the process-global pool); results are
  /// index-stable and bit-identical either way.
  std::vector<SystemAssessment> assess_all(
      const std::vector<Inputs>& inputs,
      par::ThreadPool* pool = nullptr) const;

 private:
  EasyCOptions options_;
};

}  // namespace easyc::model
