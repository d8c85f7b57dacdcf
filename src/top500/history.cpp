#include "top500/history.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace easyc::top500 {

namespace {

std::string edition_label(int index) {
  // Editions alternate June/November starting from November 2024.
  const int year = kFirstEditionYear + (index + 1) / 2;
  const bool november = (index % 2) == 0;
  return (november ? "Nov " : "Jun ") + std::to_string(year);
}

// Entrant category mix: matches the accelerated/CPU split of the base
// quotas, with industry AI clusters (the main growth driver) overweight.
AccessCategory sample_entrant_category(util::Rng& rng) {
  static const AccessCategory kCats[] = {
      AccessCategory::kAccOpen,
      AccessCategory::kAccPublicCountsPower,
      AccessCategory::kAccPublicCountsDark,
      AccessCategory::kAccPowerOnly,
      AccessCategory::kAccDark,
      AccessCategory::kCpuOpen,
  };
  static const std::vector<double> kWeights = {0.10, 0.08, 0.25,
                                               0.12, 0.05, 0.40};
  return kCats[rng.weighted_index(kWeights)];
}

}  // namespace

std::vector<ListEdition> generate_history(const HistoryConfig& cfg) {
  EASYC_REQUIRE(cfg.editions >= 1, "history needs at least one edition");
  EASYC_REQUIRE(cfg.entrants_per_cycle >= 0 &&
                    cfg.entrants_per_cycle < cfg.base.list_size,
                "entrants per cycle must leave survivors");

  std::vector<ListEdition> history;
  util::Rng rng(cfg.base.seed ^ 0x815701133ULL);

  // Edition 0: the calibrated November-2024 list.
  {
    auto base = generate_list(cfg.base);
    ListEdition e;
    e.label = edition_label(0);
    e.records = std::move(base.records);
    e.categories = std::move(base.categories);
    e.num_new = 0;
    history.push_back(std::move(e));
  }

  struct Entry {
    SystemRecord record;
    AccessCategory category;
  };

  for (int cycle = 1; cycle < cfg.editions; ++cycle) {
    const auto& prev = history.back();

    std::vector<Entry> pool;
    pool.reserve(prev.records.size() + cfg.entrants_per_cycle);
    for (size_t i = 0; i < prev.records.size(); ++i) {
      pool.push_back({prev.records[i], prev.categories[i]});
    }

    const double perf_scale =
        std::pow(1.0 + cfg.entrant_perf_growth, cycle);
    const double power_discount =
        std::pow(1.0 + cfg.entrant_efficiency_gain, cycle);
    for (int k = 0; k < cfg.entrants_per_cycle; ++k) {
      const auto cat = sample_entrant_category(rng);
      // Entrants land mostly in the lower half of the list (they enter
      // just above the displacement threshold); a rare flagship appears.
      const int nominal_rank = static_cast<int>(
          rng.bernoulli(0.04) ? rng.uniform_int(4, 30)
                              : rng.uniform_int(100, 460));
      SystemRecord rec = synthesize_entrant(
          rng, nominal_rank, cat, /*year_offset=*/(cycle + 1) / 2,
          perf_scale, cfg.base);
      rec.year = std::min(rec.year, kFirstEditionYear + (cycle + 1) / 2);
      rec.truth.power_kw /= power_discount;
      rec.name = "Entrant-" + std::to_string(cycle) + "-" +
                 std::to_string(k);
      pool.push_back({std::move(rec), cat});
    }

    // Re-rank by Rmax and keep the top list_size.
    std::stable_sort(pool.begin(), pool.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.record.rmax_tflops > b.record.rmax_tflops;
                     });
    pool.resize(static_cast<size_t>(cfg.base.list_size));

    ListEdition e;
    e.label = edition_label(cycle);
    e.records.reserve(pool.size());
    e.categories.reserve(pool.size());
    const std::string cycle_prefix =
        "Entrant-" + std::to_string(cycle) + "-";
    int num_new = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      pool[i].record.rank = static_cast<int>(i) + 1;
      if (pool[i].record.name.rfind(cycle_prefix, 0) == 0) ++num_new;
      e.records.push_back(std::move(pool[i].record));
      e.categories.push_back(pool[i].category);
    }
    e.num_new = num_new;
    history.push_back(std::move(e));
  }
  return history;
}

}  // namespace easyc::top500
