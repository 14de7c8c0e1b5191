#include "engine/policy.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "lint/diagnostic.h"

namespace hape::engine {

const char* ConfigName(EngineConfig c) {
  switch (c) {
    case EngineConfig::kDbmsC:
      return "DBMS C";
    case EngineConfig::kProteusCpu:
      return "Proteus CPUs";
    case EngineConfig::kProteusHybrid:
      return "Proteus Hybrid";
    case EngineConfig::kProteusGpu:
      return "Proteus GPUs";
    case EngineConfig::kDbmsG:
      return "DBMS G";
  }
  return "?";
}

const char* SchedulingPolicyName(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kFairShare:
      return "fair-share";
    case SchedulingPolicy::kSlaTiered:
      return "sla-tiered";
  }
  return "?";
}

const char* ExecutionModelName(ExecutionModel m) {
  switch (m) {
    case ExecutionModel::kJitFused:
      return "jit-fused";
    case ExecutionModel::kVectorAtATime:
      return "vector-at-a-time";
    case ExecutionModel::kOperatorAtATime:
      return "operator-at-a-time";
  }
  return "?";
}

ExecutionPolicy ExecutionPolicy::ForConfig(const sim::Topology& topo,
                                           EngineConfig config) {
  ExecutionPolicy p;
  const std::vector<int> cpus = topo.CpuDeviceIds();
  const std::vector<int> gpus = topo.GpuDeviceIds();
  p.build_devices = cpus;
  switch (config) {
    case EngineConfig::kDbmsC:
      p.devices = cpus;
      p.model = ExecutionModel::kVectorAtATime;
      break;
    case EngineConfig::kProteusCpu:
      p.devices = cpus;
      break;
    case EngineConfig::kProteusHybrid:
      p.devices = cpus;
      p.devices.insert(p.devices.end(), gpus.begin(), gpus.end());
      break;
    case EngineConfig::kProteusGpu:
      p.devices = gpus;
      break;
    case EngineConfig::kDbmsG:
      p.devices = gpus;
      p.model = ExecutionModel::kOperatorAtATime;
      break;
  }
  return p;
}

Status ExecutionPolicy::Validate(const sim::Topology& topo,
                                 const char** rule) const {
  const auto reject = [rule](const char* code, const std::string& what) {
    if (rule != nullptr) *rule = code;
    return Status::InvalidArgument(what);
  };
  if (devices.empty()) {
    return reject(lint::kRuleInfeasiblePlacement,
                  "execution policy has no devices");
  }
  const int n = static_cast<int>(topo.devices().size());
  for (int d : devices) {
    if (d < 0 || d >= n) {
      return reject(lint::kRuleInfeasiblePlacement,
                    "unknown device id " + std::to_string(d));
    }
  }
  for (int d : build_devices) {
    if (d < 0 || d >= n) {
      return reject(lint::kRuleInfeasiblePlacement,
                    "unknown build device id " + std::to_string(d));
    }
    if (topo.device(d).type != sim::DeviceType::kCpu) {
      return reject(lint::kRuleInfeasiblePlacement,
                    "build device " + std::to_string(d) +
                        " is not a CPU (build sides are host-resident)");
    }
  }
  if (async.prefetch_depth < 0) {
    return reject(lint::kRuleInvalidParameter,
                  "async prefetch_depth must be >= 0 (got " +
                      std::to_string(async.prefetch_depth) + ")");
  }
  // NaN fails every comparison, so the range is written to accept.
  if (!(std::isfinite(expected_device_share) && expected_device_share > 0)) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", expected_device_share);
    return reject(lint::kRuleInvalidParameter,
                  std::string("expected_device_share must be a finite value "
                              "> 0 (got ") +
                      got + ")");
  }
  return Status::OK();
}

bool ExecutionPolicy::UsesGpu(const sim::Topology& topo) const {
  for (int d : devices) {
    if (topo.device(d).type == sim::DeviceType::kGpu) return true;
  }
  return false;
}

uint64_t ExecutionPolicy::GpuBudget(const sim::Topology& topo) const {
  uint64_t budget = std::numeric_limits<uint64_t>::max();
  for (int d : devices) {
    const sim::Device& dev = topo.device(d);
    if (dev.type != sim::DeviceType::kGpu) continue;
    const uint64_t cap = topo.mem_node(dev.mem_node).capacity();
    budget = std::min(budget, cap - std::min(cap, device_reserved_bytes));
  }
  return budget;
}

bool ExecutionPolicy::UsesCpu(const sim::Topology& topo) const {
  for (int d : devices) {
    if (topo.device(d).type == sim::DeviceType::kCpu) return true;
  }
  return false;
}

}  // namespace hape::engine
