#include "easyc/embodied.hpp"

#include <algorithm>
#include <cmath>

#include "hw/accelerator.hpp"
#include "hw/cpu.hpp"
#include "hw/memory.hpp"
#include "hw/process.hpp"
#include "util/units.hpp"

namespace easyc::model {

namespace {

// DRAM provisioning prior: GB per CPU core (a dual-64-core node of the
// 2020s typically carries 512 GB; dense many-core blades like Fugaku's
// carry proportionally less per node).
double default_memory_gb_per_core(int year) {
  if (year >= 2019) return 4.0;
  if (year >= 2016) return 2.5;
  return 1.5;
}

// Derive node and CPU counts from what is available. Top500 always has
// total cores; with a recognized CPU model the package count follows,
// and nodes from a dual-socket prior. This is why the paper finds
// CPU-only systems (ranks 151-500) assessable from Top500.org alone.
struct Counts {
  long long nodes = 0;
  long long cpus = 0;
};

std::optional<Counts> resolve_counts(const Inputs& in,
                                     const std::optional<hw::CpuSpec>& cpu) {
  Counts c;
  if (in.num_nodes && in.num_cpus) {
    c.nodes = *in.num_nodes;
    c.cpus = *in.num_cpus;
    return c;
  }
  if (in.num_nodes && !in.num_cpus) {
    c.nodes = *in.num_nodes;
    c.cpus = 2 * c.nodes;  // dual-socket prior
    return c;
  }
  if (!in.total_cores || !cpu || cpu->cores <= 0) return std::nullopt;
  c.cpus = std::max<long long>(
      1, (*in.total_cores + cpu->cores - 1) / cpu->cores);
  if (in.num_cpus) c.cpus = *in.num_cpus;
  // Sockets per node prior: accelerated nodes typically single-socket
  // hosts; CPU-only nodes dual-socket.
  const long long sockets_per_node = in.has_accelerator() ? 1 : 2;
  c.nodes = std::max<long long>(1, c.cpus / sockets_per_node);
  return c;
}

}  // namespace

EmbodiedResolution resolve_embodied(const Inputs& in) {
  EmbodiedResolution rz;
  rz.year = in.operation_year.value_or(2020);

  // --- CPU identity ---
  // The era-generic silicon model stands in for unlisted parts only
  // when the part is a mainstream server family; unique devices
  // (SW26010-class) are unmodelable without disclosure — the paper's
  // reason Sunway TaihuLight has no embodied estimate.
  std::optional<hw::CpuSpec> cpu = hw::find_cpu(in.processor);
  if (!cpu && hw::is_mainstream_server_cpu(in.processor) &&
      in.total_cores && (in.num_cpus || in.num_nodes)) {
    long long packages = in.num_cpus.value_or(
        in.num_nodes ? *in.num_nodes * 2 : 0);
    if (packages > 0) {
      const int cores_per_pkg = static_cast<int>(std::max<long long>(
          1, *in.total_cores / packages));
      cpu = hw::generic_server_cpu(rz.year, cores_per_pkg);
    }
  }
  rz.has_cpu = cpu.has_value();
  if (rz.has_cpu) {
    rz.cpu_die_area_cm2 = cpu->die_area_cm2;
    rz.cpu_node = hw::find_process_node(cpu->process_nm);
  }

  // --- node / package counts ---
  const auto counts = resolve_counts(in, cpu);
  rz.has_counts = counts.has_value();
  if (rz.has_counts) {
    rz.nodes = counts->nodes;
    rz.cpus = counts->cpus;
  }

  // --- accelerator identity & count ---
  rz.accelerated = in.has_accelerator();
  if (rz.accelerated) {
    if (auto acc = hw::find_accelerator(in.accelerator)) {
      rz.acc_in_catalog = true;
      rz.acc_die_area_cm2 = acc->die_area_cm2;
      rz.acc_node = hw::find_process_node(acc->process_nm);
      rz.acc_hbm_kg =
          acc->hbm_gb * hw::memory_spec(acc->hbm_type).embodied_kg_per_gb;
    } else {
      // Whether the proxy is used is the scenario's policy, so both the
      // proxy coefficients and the strict-policy reason are resolved.
      const auto proxy = hw::mainstream_gpu_proxy(rz.year);
      rz.proxy_die_area_cm2 = proxy.die_area_cm2;
      rz.proxy_node = hw::find_process_node(proxy.process_nm);
      rz.proxy_hbm_kg =
          proxy.hbm_gb * hw::memory_spec(proxy.hbm_type).embodied_kg_per_gb;
    }
    rz.has_gpu_count = in.num_gpus.has_value();
    if (rz.has_gpu_count) rz.gpu_count = *in.num_gpus;
  }

  // --- DRAM / storage metrics ---
  rz.has_memory_gb = in.memory_gb.has_value();
  if (rz.has_memory_gb) rz.memory_gb = *in.memory_gb;
  const auto mem_type = in.memory_type
                            ? hw::parse_memory_type(*in.memory_type)
                            : hw::MemoryType::kUnknown;
  rz.mem_kg_per_gb = hw::memory_spec(mem_type).embodied_kg_per_gb;
  rz.has_ssd_tb = in.ssd_tb.has_value();
  if (rz.has_ssd_tb) rz.ssd_tb = *in.ssd_tb;

  // --- composition-derived doubles (success lanes only use these) ---
  if (rz.has_counts) {
    rz.nodes_d = static_cast<double>(counts->nodes);
    if (rz.has_cpu) {
      rz.default_memory_gb = default_memory_gb_per_core(rz.year) *
                             static_cast<double>(counts->cpus) * cpu->cores;
      rz.cpu_cores_per_node =
          static_cast<double>(counts->cpus) * cpu->cores / rz.nodes_d;
    }
    rz.gpus_per_node = static_cast<double>(rz.gpu_count) / rz.nodes_d;
  }
  return rz;
}

uint8_t embodied_failure_codes(const EmbodiedResolution& rz,
                               AcceleratorPolicy policy) {
  uint8_t codes = 0;
  if (!rz.has_cpu) codes |= reason::kUnknownCpu;
  if (!rz.has_counts) codes |= reason::kNoCounts;
  if (rz.accelerated) {
    if (!rz.acc_in_catalog &&
        policy != AcceleratorPolicy::kApproximateWithMainstreamGpu) {
      codes |= reason::kUnknownAccelerator;
    }
    if (!rz.has_gpu_count) codes |= reason::kNoGpuCount;
  }
  return codes;
}

std::vector<std::string> embodied_reason_text(uint8_t codes,
                                              const Inputs& in) {
  std::vector<std::string> text;
  if (codes & reason::kUnknownCpu) {
    text.push_back("processor '" + in.processor +
                   "' not in catalog and not a mainstream family "
                   "derivable from counts");
  }
  if (codes & reason::kNoCounts) {
    text.push_back(
        "cannot resolve node/CPU counts (need # nodes, or total cores + "
        "known CPU model)");
  }
  if (codes & reason::kUnknownAccelerator) {
    text.push_back("accelerator '" + in.accelerator +
                   "' not in catalog (strict policy declines)");
  }
  if (codes & reason::kNoGpuCount) {
    text.push_back(
        "accelerated system without a GPU count: embodied carbon not "
        "estimable");
  }
  return text;
}

CellOutcome<EmbodiedBreakdown> finish_embodied(const EmbodiedResolution& rz,
                                               const EmbodiedOptions& opt) {
  const uint8_t codes = embodied_failure_codes(rz, opt.accelerator_policy);
  if (codes != 0) return CellOutcome<EmbodiedBreakdown>::failure(codes);
  const bool used_proxy = rz.accelerated && !rz.acc_in_catalog;

  EmbodiedBreakdown b;
  b.used_gpu_proxy = used_proxy;

  // --- CPUs ---
  b.cpu_mt = lane::component_mt(
      lane::cpu_package_kg(rz.cpu_die_area_cm2,
                           rz.cpu_node.carbon_per_cm2(opt.fab_aci_kg_kwh),
                           opt.cpu_packaging_kg),
      static_cast<double>(rz.cpus));

  // --- GPUs ---
  if (rz.accelerated && rz.gpu_count > 0) {
    const bool cat = rz.acc_in_catalog;
    const auto& node = cat ? rz.acc_node : rz.proxy_node;
    b.gpu_mt = lane::component_mt(
        lane::gpu_package_kg(cat ? rz.acc_die_area_cm2 : rz.proxy_die_area_cm2,
                             node.carbon_per_cm2(opt.fab_aci_kg_kwh),
                             cat ? rz.acc_hbm_kg : rz.proxy_hbm_kg,
                             opt.gpu_packaging_kg),
        static_cast<double>(rz.gpu_count));
  }

  // --- system DRAM ---
  {
    double mem_gb;
    if (rz.has_memory_gb) {
      mem_gb = rz.memory_gb;
    } else {
      mem_gb = rz.default_memory_gb;
      b.used_memory_default = true;
    }
    b.memory_mt = lane::component_mt(mem_gb, rz.mem_kg_per_gb);
  }

  // --- storage ---
  {
    double ssd_tb;
    if (rz.has_ssd_tb) {
      ssd_tb = rz.ssd_tb;
    } else {
      ssd_tb = lane::default_ssd_tb(opt.default_ssd_tb_per_node, rz.nodes_d,
                                    opt.default_ssd_cap_tb);
      b.used_storage_default = true;
    }
    b.storage_mt = lane::component_mt(
        ssd_tb,
        hw::storage_spec(hw::StorageClass::kNvmeSsd).embodied_kg_per_tb);
  }

  // --- platform & interconnect (composition-scaled per node) ---
  b.platform_mt = lane::component_mt(
      lane::node_overhead_kg(opt.platform_base_kg, opt.platform_per_cpu_core_kg,
                             rz.cpu_cores_per_node, opt.platform_per_gpu_kg,
                             rz.gpus_per_node, opt.platform_cap_kg),
      rz.nodes_d);
  b.interconnect_mt = lane::component_mt(
      lane::node_overhead_kg(opt.interconnect_base_kg,
                             opt.interconnect_per_cpu_core_kg,
                             rz.cpu_cores_per_node, opt.interconnect_per_gpu_kg,
                             rz.gpus_per_node, opt.interconnect_cap_kg),
      rz.nodes_d);

  b.total_mt = lane::embodied_total_mt(b.cpu_mt, b.gpu_mt, b.memory_mt,
                                       b.storage_mt, b.platform_mt,
                                       b.interconnect_mt);
  return CellOutcome<EmbodiedBreakdown>::success(b);
}

CellOutcome<EmbodiedBreakdown> assess_embodied_cell(
    const Inputs& in, const EmbodiedOptions& opt) {
  return finish_embodied(resolve_embodied(in), opt);
}

Outcome<EmbodiedBreakdown> assess_embodied_prevalidated(
    const Inputs& in, const EmbodiedOptions& opt) {
  const auto cell = assess_embodied_cell(in, opt);
  return cell.render(embodied_reason_text(cell.codes, in));
}

Outcome<EmbodiedBreakdown> assess_embodied(const Inputs& in,
                                           const EmbodiedOptions& opt) {
  in.validate();
  return assess_embodied_prevalidated(in, opt);
}

}  // namespace easyc::model
