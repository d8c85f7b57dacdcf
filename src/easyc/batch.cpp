#include "easyc/batch.hpp"

#include <algorithm>
#include <exception>

#include "grid/pue.hpp"
#include "hw/memory.hpp"
#include "hw/process.hpp"
#include "parallel/algorithms.hpp"
#include "util/error.hpp"

namespace easyc::model {

namespace {

// Lanes per chunk: big enough that the vector loops amortize their
// setup, small enough that one chunk's SoA workspace stays cache-hot.
constexpr size_t kLanesPerChunk = 256;

EnergyPath to_energy_path(OperationalResolution::Path p) {
  using Path = OperationalResolution::Path;
  switch (p) {
    case Path::kMetered: return EnergyPath::kMeteredAnnualEnergy;
    case Path::kReported: return EnergyPath::kReportedPower;
    case Path::kRollup: return EnergyPath::kComponentRollup;
    case Path::kCores: return EnergyPath::kCoreCountEstimate;
    case Path::kNone: break;
  }
  return EnergyPath::kReportedPower;
}

// One chunk's structure-of-arrays workspace. Plain contiguous doubles
// and masks: the vector-core loops below index these linearly so the
// compiler can auto-vectorize them (verified with -fopt-info-vec).
// Masks the vector core blends on (metered/reported/gpu_active/
// ssd_default) are stored as 0.0/1.0 doubles: a uint8 mask in a double
// loop leaves GCC without a vector type for the mixed widths and the
// blend stays scalar. Select stays exact (compare + ternary), so the
// widening changes no bytes.
struct Workspace {
  // operational
  std::vector<uint8_t> op_codes, refined;
  std::vector<double> metered, reported;
  std::vector<double> base, util, aci, it_kw, pue, annual, op_mt;
  std::vector<int> year;
  // embodied
  std::vector<uint8_t> emb_codes, mem_default, used_proxy;
  std::vector<double> gpu_active, ssd_default;
  std::vector<double> cpu_area, cpu_epa, cpu_gpa, cpu_mpa, cpu_yield, cpus_d;
  std::vector<double> gpu_area, gpu_epa, gpu_gpa, gpu_mpa, gpu_yield, gpu_hbm,
      gpus_d;
  std::vector<double> mem_gb, mem_kg, ssd_tb, nodes_d, cores_pn, gpus_pn;
  std::vector<double> cpu_mt, gpu_mt, mem_mt, sto_mt, plat_mt, ic_mt, tot_mt;

  explicit Workspace(size_t n)
      : op_codes(n), refined(n), metered(n), reported(n), base(n), util(n),
        aci(n), it_kw(n), pue(n), annual(n), op_mt(n), year(n), emb_codes(n),
        mem_default(n), used_proxy(n), gpu_active(n), ssd_default(n),
        cpu_area(n), cpu_epa(n), cpu_gpa(n), cpu_mpa(n), cpu_yield(n),
        cpus_d(n), gpu_area(n), gpu_epa(n), gpu_gpa(n), gpu_mpa(n),
        gpu_yield(n), gpu_hbm(n), gpus_d(n), mem_gb(n), mem_kg(n), ssd_tb(n),
        nodes_d(n), cores_pn(n), gpus_pn(n), cpu_mt(n), gpu_mt(n), mem_mt(n),
        sto_mt(n), plat_mt(n), ic_mt(n), tot_mt(n) {}

  /// Benign accelerator inputs for a lane without one.
  void clear_gpu(size_t l) {
    gpu_active[l] = 0.0;
    gpu_area[l] = gpu_epa[l] = gpu_gpa[l] = gpu_mpa[l] = 0.0;
    gpu_hbm[l] = gpus_d[l] = 0.0;
    gpu_yield[l] = 1.0;
  }

  /// Benign embodied inputs for a failed lane, so the vector loops stay
  /// exception- and NaN-free (the lane's results are never read).
  void clear_embodied(size_t l) {
    clear_gpu(l);
    mem_default[l] = used_proxy[l] = 0;
    ssd_default[l] = 0.0;
    cpu_area[l] = cpu_epa[l] = cpu_gpa[l] = cpu_mpa[l] = cpus_d[l] = 0.0;
    cpu_yield[l] = 1.0;
    mem_gb[l] = mem_kg[l] = ssd_tb[l] = cores_pn[l] = gpus_pn[l] = 0.0;
    nodes_d[l] = 1.0;
  }
};

// Each pool thread keeps one chunk-sized workspace for the life of the
// thread: a chunk overwrites every lane it reads, so reuse is exact
// and the kernel allocates nothing per chunk.
Workspace& chunk_workspace() {
  thread_local Workspace w(kLanesPerChunk);
  return w;
}

}  // namespace

size_t BatchAssessor::add_profiles(
    size_t count, const std::function<Inputs(size_t)>& project,
    par::ThreadPool* pool) {
  const size_t begin = profiles_.size();
  const size_t end = begin + count;
  if (count == 0) return begin;
  profiles_.resize(end);
  // Interleaved tasks of a few dozen profiles, so a daemon's interactive
  // requests do not queue behind a bulk block's whole resolve pass. Each
  // task keeps its own first failure; the lowest task's is rethrown, so
  // the error is the lowest failing profile's for every pool size.
  constexpr size_t kProfilesPerTask = 32;
  const size_t ntasks = (end - begin + kProfilesPerTask - 1) / kProfilesPerTask;
  std::vector<std::exception_ptr> errors(ntasks);
  par::parallel_for_interleaved(
      pool ? *pool : par::ThreadPool::global(), 0, ntasks, [&](size_t t) {
        const size_t lo = begin + t * kProfilesPerTask;
        const size_t hi = std::min(end, lo + kProfilesPerTask);
        try {
          for (size_t i = lo; i < hi; ++i) {
            Profile& p = profiles_[i];
            p.inputs = project(i - begin);
            p.inputs.validate();
            p.op = resolve_operational(p.inputs);
            p.emb = resolve_embodied(p.inputs);
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
  for (const auto& e : errors) {
    if (!e) continue;
    profiles_.resize(begin);
    std::rethrow_exception(e);
  }
  // Distinct (country, region) pairs share one ACI table slot, keyed in
  // profile order; 0x1f is a field separator no real country/region
  // string contains.
  std::string key;
  for (size_t i = begin; i < end; ++i) {
    Profile& p = profiles_[i];
    key.assign(p.inputs.country);
    key += '\x1f';
    key += p.inputs.region;
    auto it = aci_key_by_pair_.find(key);
    if (it == aci_key_by_pair_.end()) {
      it = aci_key_by_pair_
               .emplace(key, static_cast<uint32_t>(aci_pairs_.size()))
               .first;
      aci_pairs_.emplace_back(p.inputs.country, p.inputs.region);
    }
    p.aci_key = it->second;
  }
  stats_.aci_keys = aci_pairs_.size();
  stats_.profiles += end - begin;
  stats_.validations += end - begin;
  return begin;
}

size_t BatchAssessor::ensure_aci_table(const grid::AciDatabase* db) {
  size_t t = 0;
  while (t < aci_tables_.size() && aci_tables_[t].db != db) ++t;
  if (t == aci_tables_.size()) aci_tables_.push_back({db, {}});
  std::vector<AciEntry>& table = aci_tables_[t].entries;
  for (size_t k = table.size(); k < aci_pairs_.size(); ++k) {
    const auto& [country, region] = aci_pairs_[k];
    AciEntry e;
    const auto best = db->best_aci(country, region);
    e.valid = best.has_value();
    e.aci_g_kwh = best.value_or(0.0);
    e.region_refined = db->region_aci(country, region).has_value();
    table.push_back(e);
    stats_.aci_db_queries += 2;
  }
  return t;
}

void BatchAssessor::assess(const std::vector<Job>& jobs,
                           par::ThreadPool* pool, const Publish& publish) {
  // Once per job, not once per cell — same REQUIREs, same messages, as
  // the scalar path would raise on its first cell — and all before any
  // lane runs. The ACI tables fill here too, serially.
  constexpr size_t kOverridden = static_cast<size_t>(-1);
  std::vector<size_t> table_of(jobs.size(), kOverridden);
  struct Task {
    size_t job, begin, end;
  };
  std::vector<Task> tasks;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    if (job.count == 0) continue;
    const auto& oo = job.options->operational;
    EASYC_REQUIRE(oo.aci != nullptr, "options.aci must not be null");
    EASYC_REQUIRE(oo.default_utilization > 0.0 &&
                      oo.default_utilization <= 1.0,
                  "default utilization must be in (0,1]");
    stats_.lanes += job.count;
    if (!oo.aci_override_g_kwh) {
      table_of[j] = ensure_aci_table(oo.aci);
      stats_.aci_hoisted += job.count;
    }
    for (size_t lo = 0; lo < job.count; lo += kLanesPerChunk) {
      tasks.push_back({j, lo, std::min(job.count, lo + kLanesPerChunk)});
    }
  }
  // A block's pass can be long; interleaving keeps other callers of a
  // shared pool (a daemon's interactive requests) from queueing behind
  // all of it.
  par::parallel_for_interleaved(
      pool ? *pool : par::ThreadPool::global(), 0, tasks.size(),
      [&](size_t t) {
        const Task& task = tasks[t];
        const Job& job = jobs[task.job];
        const size_t table = table_of[task.job];
        assess_chunk(*job.options, job.cells, task.begin, task.end,
                     table == kOverridden
                         ? nullptr
                         : aci_tables_[table].entries.data());
        if (publish) publish(task.job, task.begin, task.end);
      });
}

void BatchAssessor::assess_chunk(const EasyCOptions& options,
                                 const Cell* cells, size_t begin, size_t end,
                                 const AciEntry* aci_table) const {
  const size_t n = end - begin;
  Workspace& w = chunk_workspace();
  const auto& oo = options.operational;
  const auto& eo = options.embodied;
  const double aci_override = oo.aci_override_g_kwh.value_or(0.0);
  using Path = OperationalResolution::Path;

  // ---- gather: branchy per-lane resolution into the SoA buffers ----
  for (size_t l = 0; l < n; ++l) {
    const Profile& p = profiles_[cells[begin + l].profile];

    // operational
    w.metered[l] = p.op.path == Path::kMetered;
    w.reported[l] = p.op.path == Path::kReported;
    w.base[l] = p.op.base;
    w.year[l] = p.op.year;
    w.util[l] =
        p.op.has_utilization ? p.op.utilization : oo.default_utilization;
    bool aci_valid = true;
    if (aci_table == nullptr) {
      w.aci[l] = aci_override;
      w.refined[l] = 0;
    } else {
      const AciEntry& e = aci_table[p.aci_key];
      aci_valid = e.valid;
      w.aci[l] = e.aci_g_kwh;
      w.refined[l] = e.region_refined;
    }
    w.op_codes[l] =
        static_cast<uint8_t>((aci_valid ? 0 : reason::kNoGridIntensity) |
                             (p.op.path == Path::kNone ? reason::kNoEnergyPath
                                                       : 0));

    // embodied: failure codes + coefficients (benign values in failed
    // lanes so the vector loops stay exception- and NaN-free).
    const EmbodiedResolution& e = p.emb;
    w.emb_codes[l] = embodied_failure_codes(e, eo.accelerator_policy);
    if (w.emb_codes[l] == 0) {
      // REQUIRE parity with ProcessNode::carbon_per_cm2, which the
      // scalar path calls per success lane.
      EASYC_REQUIRE(eo.fab_aci_kg_kwh >= 0.0, "fab ACI must be non-negative");
      EASYC_REQUIRE(e.cpu_node.yield > 0.0 && e.cpu_node.yield <= 1.0,
                    "yield must be in (0,1]");
      w.used_proxy[l] = e.accelerated && !e.acc_in_catalog;
      w.cpu_area[l] = e.cpu_die_area_cm2;
      w.cpu_epa[l] = e.cpu_node.epa_kwh_cm2;
      w.cpu_gpa[l] = e.cpu_node.gpa_kg_cm2;
      w.cpu_mpa[l] = e.cpu_node.mpa_kg_cm2;
      w.cpu_yield[l] = e.cpu_node.yield;
      w.cpus_d[l] = static_cast<double>(e.cpus);
      if (e.accelerated && e.gpu_count > 0) {
        const hw::ProcessNode& gn = e.acc_in_catalog ? e.acc_node
                                                     : e.proxy_node;
        EASYC_REQUIRE(gn.yield > 0.0 && gn.yield <= 1.0,
                      "yield must be in (0,1]");
        w.gpu_active[l] = 1.0;
        w.gpu_area[l] =
            e.acc_in_catalog ? e.acc_die_area_cm2 : e.proxy_die_area_cm2;
        w.gpu_epa[l] = gn.epa_kwh_cm2;
        w.gpu_gpa[l] = gn.gpa_kg_cm2;
        w.gpu_mpa[l] = gn.mpa_kg_cm2;
        w.gpu_yield[l] = gn.yield;
        w.gpu_hbm[l] = e.acc_in_catalog ? e.acc_hbm_kg : e.proxy_hbm_kg;
        w.gpus_d[l] = static_cast<double>(e.gpu_count);
      } else {
        w.clear_gpu(l);
      }
      w.mem_default[l] = !e.has_memory_gb;
      w.mem_gb[l] = e.has_memory_gb ? e.memory_gb : e.default_memory_gb;
      w.mem_kg[l] = e.mem_kg_per_gb;
      w.ssd_default[l] = !e.has_ssd_tb;
      w.ssd_tb[l] = e.ssd_tb;
      w.nodes_d[l] = e.nodes_d;
      w.cores_pn[l] = e.cpu_cores_per_node;
      w.gpus_pn[l] = e.gpus_per_node;
    } else {
      w.clear_embodied(l);
    }
  }

  // ---- vector core: contiguous arithmetic over the lanes ----
  const double ov = oo.node_overhead_fraction;
  for (size_t l = 0; l < n; ++l) {
    w.it_kw[l] = w.metered[l] != 0.0  ? lane::metered_it_kw(w.base[l])
                 : w.reported[l] != 0.0 ? w.base[l]
                                 : lane::overhead_scaled_kw(w.base[l], ov);
  }
  // PUE: the facility-class inference is a branchy lookup, so it stays
  // lane-at-a-time; with a scenario override it collapses to a blend.
  if (oo.pue_override) {
    const double po = *oo.pue_override;
    for (size_t l = 0; l < n; ++l) {
      w.pue[l] = w.metered[l] != 0.0 ? 1.0 : po;
    }
  } else {
    for (size_t l = 0; l < n; ++l) {
      w.pue[l] = w.metered[l] != 0.0
                     ? 1.0
                     : grid::default_pue(
                           grid::infer_facility_class(w.it_kw[l], w.year[l]),
                           w.year[l]);
    }
  }
  for (size_t l = 0; l < n; ++l) {
    w.annual[l] = w.metered[l] != 0.0
                      ? w.base[l]
                      : lane::facility_annual_kwh(w.it_kw[l], w.util[l],
                                                  w.pue[l]);
  }
  for (size_t l = 0; l < n; ++l) {
    w.op_mt[l] = lane::operational_mt(w.annual[l], w.aci[l]);
  }

  const double fab = eo.fab_aci_kg_kwh;
  for (size_t l = 0; l < n; ++l) {
    const double cpa = hw::carbon_per_cm2_unchecked(
        w.cpu_epa[l], w.cpu_gpa[l], w.cpu_mpa[l], w.cpu_yield[l], fab);
    w.cpu_mt[l] = lane::component_mt(
        lane::cpu_package_kg(w.cpu_area[l], cpa, eo.cpu_packaging_kg),
        w.cpus_d[l]);
  }
  for (size_t l = 0; l < n; ++l) {
    const double cpa = hw::carbon_per_cm2_unchecked(
        w.gpu_epa[l], w.gpu_gpa[l], w.gpu_mpa[l], w.gpu_yield[l], fab);
    const double mt = lane::component_mt(
        lane::gpu_package_kg(w.gpu_area[l], cpa, w.gpu_hbm[l],
                             eo.gpu_packaging_kg),
        w.gpus_d[l]);
    w.gpu_mt[l] = w.gpu_active[l] != 0.0 ? mt : 0.0;
  }
  for (size_t l = 0; l < n; ++l) {
    w.mem_mt[l] = lane::component_mt(w.mem_gb[l], w.mem_kg[l]);
  }
  const double ssd_kg_per_tb =
      hw::storage_spec(hw::StorageClass::kNvmeSsd).embodied_kg_per_tb;
  const double ssd_tb_per_node = eo.default_ssd_tb_per_node;
  const double ssd_cap_tb = eo.default_ssd_cap_tb;
  for (size_t l = 0; l < n; ++l) {
    const double tb =
        w.ssd_default[l] != 0.0
            ? lane::default_ssd_tb(ssd_tb_per_node, w.nodes_d[l], ssd_cap_tb)
            : w.ssd_tb[l];
    w.sto_mt[l] = lane::component_mt(tb, ssd_kg_per_tb);
  }
  for (size_t l = 0; l < n; ++l) {
    w.plat_mt[l] = lane::component_mt(
        lane::node_overhead_kg(eo.platform_base_kg,
                               eo.platform_per_cpu_core_kg, w.cores_pn[l],
                               eo.platform_per_gpu_kg, w.gpus_pn[l],
                               eo.platform_cap_kg),
        w.nodes_d[l]);
    w.ic_mt[l] = lane::component_mt(
        lane::node_overhead_kg(eo.interconnect_base_kg,
                               eo.interconnect_per_cpu_core_kg, w.cores_pn[l],
                               eo.interconnect_per_gpu_kg, w.gpus_pn[l],
                               eo.interconnect_cap_kg),
        w.nodes_d[l]);
  }
  for (size_t l = 0; l < n; ++l) {
    w.tot_mt[l] =
        lane::embodied_total_mt(w.cpu_mt[l], w.gpu_mt[l], w.mem_mt[l],
                                w.sto_mt[l], w.plat_mt[l], w.ic_mt[l]);
  }

  // ---- scatter: failed lanes carry their reason codes; success lanes
  // copy the vector-core doubles ----
  for (size_t l = 0; l < n; ++l) {
    const Profile& p = profiles_[cells[begin + l].profile];
    CellValue& out = *cells[begin + l].out;

    if (w.op_codes[l] == 0) {
      OperationalResult r;
      r.mt_co2e = w.op_mt[l];
      r.annual_kwh = w.annual[l];
      r.it_kw = w.it_kw[l];
      r.pue = w.pue[l];
      r.aci_g_kwh = w.aci[l];
      r.aci_region_refined = w.refined[l];
      r.path = to_energy_path(p.op.path);
      r.utilization = w.util[l];
      out.operational = CellOutcome<OperationalResult>::success(r);
    } else {
      out.operational = CellOutcome<OperationalResult>::failure(w.op_codes[l]);
    }

    if (w.emb_codes[l] == 0) {
      EmbodiedBreakdown b;
      b.cpu_mt = w.cpu_mt[l];
      b.gpu_mt = w.gpu_mt[l];
      b.memory_mt = w.mem_mt[l];
      b.storage_mt = w.sto_mt[l];
      b.platform_mt = w.plat_mt[l];
      b.interconnect_mt = w.ic_mt[l];
      b.total_mt = w.tot_mt[l];
      b.used_gpu_proxy = w.used_proxy[l];
      b.used_memory_default = w.mem_default[l];
      b.used_storage_default = w.ssd_default[l] != 0.0;
      out.embodied = CellOutcome<EmbodiedBreakdown>::success(b);
    } else {
      out.embodied = CellOutcome<EmbodiedBreakdown>::failure(w.emb_codes[l]);
    }
  }
}

void BatchAssessor::clear() {
  profiles_.clear();
  aci_key_by_pair_.clear();
  aci_pairs_.clear();
  aci_tables_.clear();
}

}  // namespace easyc::model
