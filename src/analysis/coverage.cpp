#include "analysis/coverage.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace easyc::analysis {

std::string RankRange::label() const {
  return std::to_string(lo) + "-" + std::to_string(hi);
}

const std::vector<RankRange>& rank_ranges() {
  static const std::vector<RankRange> kRanges = {
      {1, 10},    {11, 25},   {26, 50},   {51, 75},   {76, 100},
      {101, 150}, {151, 200}, {201, 250}, {251, 300}, {301, 350},
      {351, 400}, {401, 450}, {451, 500}, {1, 500},
  };
  return kRanges;
}

CoverageCounts count_coverage(
    const std::vector<model::CellValue>& assessments) {
  CoverageCounts c;
  c.total = static_cast<int>(assessments.size());
  for (const auto& a : assessments) {
    if (a.operational.ok()) ++c.operational;
    if (a.embodied.ok()) ++c.embodied;
  }
  return c;
}

std::vector<RangeCoverage> coverage_by_range(
    const std::vector<top500::SystemRecord>& records,
    const std::vector<model::CellValue>& assessments, bool operational_side) {
  EASYC_REQUIRE(records.size() == assessments.size(),
                "records/assessments size mismatch");
  std::vector<RangeCoverage> out;
  for (const auto& range : rank_ranges()) {
    int in_range = 0;
    int covered = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const int rank = records[i].rank;
      if (rank < range.lo || rank > range.hi) continue;
      ++in_range;
      const bool ok = operational_side ? assessments[i].operational.ok()
                                       : assessments[i].embodied.ok();
      if (ok) ++covered;
    }
    RangeCoverage rc;
    rc.range = range;
    rc.covered_pct =
        in_range == 0 ? 0.0 : 100.0 * covered / static_cast<double>(in_range);
    out.push_back(rc);
  }
  return out;
}

std::vector<MetricGap> table1_gaps(
    const std::vector<top500::SystemRecord>& records,
    top500::DataVisibility visibility) {
  using model::Metric;
  std::vector<MetricGap> out;
  for (Metric m : model::all_metrics()) {
    MetricGap gap;
    gap.metric = m;
    for (const auto& r : records) {
      const top500::Disclosure& d = top500::disclosure_for(r, visibility);
      bool present = true;
      switch (m) {
        case Metric::kOperationYear: present = true; break;
        case Metric::kNumComputeNodes: present = d.nodes; break;
        case Metric::kNumGpus: present = d.gpus; break;
        // Package counts are always derivable from total cores, for
        // every system on the list (paper Table I reports 0 missing).
        case Metric::kNumCpus: present = true; break;
        case Metric::kMemoryCapacity: present = d.memory; break;
        case Metric::kMemoryType: present = d.memory_type; break;
        case Metric::kSsdCapacity: present = d.ssd; break;
        case Metric::kSystemUtilization: present = d.utilization; break;
        case Metric::kAnnualPowerConsumed: present = d.annual_energy; break;
      }
      if (!present) ++gap.systems_incomplete;
    }
    out.push_back(gap);
  }
  return out;
}

std::array<int, top500::kNumTop500DataItems + 1> fig2_histogram(
    const std::vector<top500::SystemRecord>& records) {
  std::array<int, top500::kNumTop500DataItems + 1> hist{};
  for (const auto& r : records) {
    const int missing =
        std::clamp(r.num_items_missing(), 0, top500::kNumTop500DataItems);
    ++hist[static_cast<size_t>(missing)];
  }
  return hist;
}

GhgCoverage ghg_protocol_coverage(
    const std::vector<top500::SystemRecord>& records) {
  GhgCoverage c;
  for (const auto& r : records) {
    // A protocol-grade operational report needs metered facility energy
    // plus the site's fuel/refrigerant logs. Only the handful of sites
    // with public metered-energy disclosures even approach this.
    if (r.with_public.annual_energy) ++c.operational;
    // A protocol-grade embodied report needs the full per-component
    // inventory; no Top500 system publishes one (paper: "NONE report
    // embodied").
  }
  return c;
}

}  // namespace easyc::analysis
