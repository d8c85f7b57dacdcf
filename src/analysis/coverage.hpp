// Coverage analysis: which systems can be assessed under which data
// scenario (paper Figs. 4-6) and which metrics are missing from which
// source (Table I, Fig. 2).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "easyc/model.hpp"
#include "top500/record.hpp"

namespace easyc::analysis {

/// The paper's rank buckets (Figs. 5/6), plus the 1-500 aggregate.
struct RankRange {
  int lo = 1;
  int hi = 500;
  std::string label() const;
};
const std::vector<RankRange>& rank_ranges();

struct CoverageCounts {
  int operational = 0;  ///< systems with an operational estimate
  int embodied = 0;
  int total = 0;
};

/// Overall coverage under a set of assessments.
CoverageCounts count_coverage(const std::vector<model::CellValue>& assessments);

/// Per-rank-range coverage percentage for one model side.
struct RangeCoverage {
  RankRange range;
  double covered_pct = 0.0;
};
std::vector<RangeCoverage> coverage_by_range(
    const std::vector<top500::SystemRecord>& records,
    const std::vector<model::CellValue>& assessments, bool operational_side);

/// Table I: per-metric incompleteness counts for a data-visibility
/// level, using each record's disclosure mask.
struct MetricGap {
  model::Metric metric;
  int systems_incomplete = 0;
};
std::vector<MetricGap> table1_gaps(
    const std::vector<top500::SystemRecord>& records,
    top500::DataVisibility visibility);

/// Fig. 2: histogram of systems by number of missing Top500.org data
/// items. Index 0 is the 'None' (complete) bucket; index k>0 counts
/// systems missing exactly k items.
std::array<int, top500::kNumTop500DataItems + 1> fig2_histogram(
    const std::vector<top500::SystemRecord>& records);

/// GHG-protocol coverage over the list: how many systems publish the
/// full inventory the protocol requires. (The paper: operational "few",
/// embodied none. We model the handful of sites with public CSR-style
/// energy disclosures as protocol-assessable for scope 2 only.)
struct GhgCoverage {
  int operational = 0;
  int embodied = 0;
};
GhgCoverage ghg_protocol_coverage(
    const std::vector<top500::SystemRecord>& records);

}  // namespace easyc::analysis
