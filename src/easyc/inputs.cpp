#include "easyc/inputs.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace easyc::model {

const std::vector<Metric>& all_metrics() {
  static const std::vector<Metric> kAll = {
      Metric::kOperationYear,      Metric::kNumComputeNodes,
      Metric::kNumGpus,            Metric::kNumCpus,
      Metric::kMemoryCapacity,     Metric::kMemoryType,
      Metric::kSsdCapacity,        Metric::kSystemUtilization,
      Metric::kAnnualPowerConsumed,
  };
  return kAll;
}

std::string metric_name(Metric m) {
  switch (m) {
    case Metric::kOperationYear: return "Operation Year";
    case Metric::kNumComputeNodes: return "# of Compute Nodes";
    case Metric::kNumGpus: return "# of GPUs";
    case Metric::kNumCpus: return "# of CPUs";
    case Metric::kMemoryCapacity: return "Memory Capacity";
    case Metric::kMemoryType: return "Memory Type";
    case Metric::kSsdCapacity: return "SSD Capacity";
    case Metric::kSystemUtilization: return "System Util (opt.)";
    case Metric::kAnnualPowerConsumed: return "Annual Power Consumed (opt.)";
  }
  return "unknown";
}

bool metric_is_optional(Metric m) {
  return m == Metric::kSystemUtilization ||
         m == Metric::kAnnualPowerConsumed;
}

std::vector<Metric> Inputs::missing_metrics(bool include_optional) const {
  std::vector<Metric> out;
  auto check = [&](Metric m, bool present) {
    if (!present && (include_optional || !metric_is_optional(m))) {
      out.push_back(m);
    }
  };
  check(Metric::kOperationYear, operation_year.has_value());
  check(Metric::kNumComputeNodes, num_nodes.has_value());
  check(Metric::kNumGpus, num_gpus.has_value());
  check(Metric::kNumCpus, num_cpus.has_value());
  check(Metric::kMemoryCapacity, memory_gb.has_value());
  check(Metric::kMemoryType, memory_type.has_value());
  check(Metric::kSsdCapacity, ssd_tb.has_value());
  check(Metric::kSystemUtilization, utilization.has_value());
  check(Metric::kAnnualPowerConsumed, annual_energy_kwh.has_value());
  return out;
}

int Inputs::num_missing(bool include_optional) const {
  return static_cast<int>(missing_metrics(include_optional).size());
}

void Inputs::validate() const {
  using util::ValidationError;
  if (rmax_tflops < 0 || rpeak_tflops < 0) {
    throw ValidationError(name + ": performance must be non-negative");
  }
  if (power_kw && *power_kw <= 0) {
    throw ValidationError(name + ": reported power must be positive");
  }
  if (total_cores && *total_cores <= 0) {
    throw ValidationError(name + ": total cores must be positive");
  }
  if (operation_year &&
      (*operation_year < 1993 || *operation_year > kMaxOperationYear)) {
    // 1993 is the first Top500 list; reject obviously bogus years.
    throw ValidationError(name + ": operation year out of range");
  }
  auto positive = [&](const auto& opt, const char* what) {
    if (opt && *opt <= 0) {
      throw ValidationError(name + std::string(": ") + what +
                            " must be positive");
    }
  };
  positive(num_nodes, "# compute nodes");
  positive(num_gpus, "# GPUs");  // 0 GPUs is expressed as accelerator==""
  positive(num_cpus, "# CPUs");
  positive(memory_gb, "memory capacity");
  positive(ssd_tb, "SSD capacity");
  if (utilization && (*utilization <= 0.0 || *utilization > 1.0)) {
    throw ValidationError(name + ": utilization must be in (0,1]");
  }
  if (annual_energy_kwh && *annual_energy_kwh <= 0.0) {
    throw ValidationError(name + ": annual energy must be positive");
  }
}

bool Inputs::has_accelerator() const {
  const auto a = util::to_lower(util::trim(accelerator));
  return !a.empty() && a != "none" && a != "n/a";
}

}  // namespace easyc::model
