// Multi-edition list history with turnover.
//
// The paper derives its projection growth rates from list dynamics: "An
// average of 48 systems was added to each new list in each cycle, over
// the past two years. With this turnover comes a 5% increase in
// operational carbon, and 1% increase in embodied." This module
// simulates that process: starting from the November-2024 list, each
// subsequent edition admits ~48 new systems (newer hardware, higher
// performance at better efficiency), displacing the bottom of the list.
// `analysis::turnover` then *measures* the per-cycle carbon growth from
// the simulated editions — the reproduction of how the paper obtained
// 10.3%/yr operational and 2%/yr embodied.
#pragma once

#include <string>
#include <vector>

#include "easyc/inputs.hpp"
#include "top500/generator.hpp"

namespace easyc::top500 {

/// Year of edition 0 (Nov 2024). Edition i is dated
/// kFirstEditionYear + (i + 1) / 2, and its entrants are no newer.
inline constexpr int kFirstEditionYear = 2024;

/// Longest history whose entrants all pass Inputs::validate: the last
/// edition's year must not pass model::kMaxOperationYear.
inline constexpr int kMaxHistoryEditions =
    2 * (model::kMaxOperationYear - kFirstEditionYear) + 1;

struct HistoryConfig {
  GeneratorConfig base;          ///< the first edition (Nov 2024)
  int editions = 5;              ///< total editions including the first
  int entrants_per_cycle = 48;   ///< paper: ~48 new systems per list
  /// Performance growth of the typical entrant per cycle (half-year):
  /// newcomers at a given rank outperform the systems they displace.
  double entrant_perf_growth = 0.10;
  /// Efficiency improvement of entrants per cycle (GFlops/W trend);
  /// applied as a power discount on top of the era efficiency.
  double entrant_efficiency_gain = 0.05;
};

struct ListEdition {
  std::string label;             ///< "Nov 2024", "Jun 2025", ...
  std::vector<SystemRecord> records;      ///< re-ranked, 500 entries
  std::vector<AccessCategory> categories; ///< parallel to records
  int num_new = 0;               ///< systems that entered this cycle
};

/// Simulate `editions` successive lists. Deterministic per config.
std::vector<ListEdition> generate_history(const HistoryConfig& config = {});

}  // namespace easyc::top500
