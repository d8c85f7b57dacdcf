// Heap-allocation budget of the engine's memo path. This binary
// replaces the global operator new with a counting one, so every
// allocation any thread makes is seen.
//
// A cold SoA block of 64 scenarios x 500 records must average under
// one allocation per (scenario, record) cell: the cells are fixed-size
// values written straight into the result vectors and copied into the
// cache slab, so what allocates is per block, per scenario or per
// distinct record (projection, profile resolution), never per cell. A
// warm re-run of the same block is pure lookups and must allocate
// O(scenarios).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "analysis/assessment_engine.hpp"
#include "parallel/thread_pool.hpp"
#include "top500/generator.hpp"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace easyc::analysis {
namespace {

namespace sc = scenarios;

constexpr size_t kScenarios = 64;

// A sweep block over the enhanced visibility: every scenario a distinct
// assessment identity, no ACI override (lanes read the ACI table).
ScenarioSet block() {
  ScenarioSet set;
  for (size_t n = 0; n < kScenarios; ++n) {
    ScenarioSpec spec = sc::enhanced();
    spec.name = "block/" + std::to_string(n);
    spec.pue_override = 1.1 + 0.01 * static_cast<double>(n);
    spec.default_utilization = n % 2 == 0 ? 0.6 : 0.9;
    set.add(spec);
  }
  return set;
}

uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocationBudget, SoABlockIsUnderOneAllocationPerCellColdAndWarm) {
  const auto records = top500::generate_records();
  ASSERT_EQ(records.size(), 500u);
  const ScenarioSet set = block();
  const uint64_t cell_records = kScenarios * records.size();
  par::ThreadPool pool(2);
  AssessmentEngine engine({.pool = &pool});

  uint64_t before = allocations();
  {
    const EditionAssessment cold = engine.assess(records, set);
    ASSERT_EQ(cold.scenarios.size(), kScenarios);
  }
  const uint64_t cold = allocations() - before;
  // Every cell was a miss filled by the SoA kernel.
  ASSERT_EQ(engine.cache_stats().misses, cell_records);
  ASSERT_EQ(engine.batch_stats().lanes, cell_records);

  before = allocations();
  {
    const EditionAssessment warm = engine.assess(records, set);
    ASSERT_EQ(warm.scenarios.size(), kScenarios);
  }
  const uint64_t warm = allocations() - before;
  ASSERT_EQ(engine.cache_stats().hits, cell_records);

  std::printf("cold: %llu allocations for %llu cell-records; warm: %llu\n",
              static_cast<unsigned long long>(cold),
              static_cast<unsigned long long>(cell_records),
              static_cast<unsigned long long>(warm));
  EXPECT_LT(cold, cell_records);
  // O(scenarios): the result vectors and spec copies of each scenario
  // plus a fixed cost per pool pass — a handful per scenario, against
  // the 500 per scenario a per-record allocation would cost.
  EXPECT_LT(warm, 16 * kScenarios);
}

}  // namespace
}  // namespace easyc::analysis
