#ifndef HAPE_CODEGEN_BACKEND_H_
#define HAPE_CODEGEN_BACKEND_H_

#include <memory>
#include <string>

#include "sim/spec.h"
#include "sim/topology.h"
#include "sim/traffic.h"

namespace hape::codegen {

/// A device provider (§3, "HAPE extensibility"): the per-device back-end of
/// the code generator. In the real system a backend lowers codegen
/// directives to LLVM IR / PTX and specializes primitives (worker-scoped
/// atomics, barriers) to its device. Here a backend binds the fused
/// pipeline to its device's cost model: the generated code is the fused
/// stage chain, and PacketTime() is the simulated execution of one packet.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual sim::DeviceType device_type() const = 0;
  virtual const std::string& name() const = 0;
  /// Simulated seconds for one worker of this backend to execute a fused
  /// pipeline invocation with the given (nominal-scale) traffic.
  virtual sim::SimTime PacketTime(const sim::TrafficStats& t) const = 0;
};

/// CPU backend: one worker == one core. Each worker gets an equal share of
/// its socket's DRAM bandwidth (the all-cores-active operating point of the
/// paper's experiments); single-threaded workers optimize worker-scoped
/// atomics into plain load-apply-store (§4.2), so Backend users need not
/// charge atomics for per-worker state.
class CpuBackend final : public Backend {
 public:
  explicit CpuBackend(const sim::CpuSpec& socket);
  sim::DeviceType device_type() const override {
    return sim::DeviceType::kCpu;
  }
  const std::string& name() const override { return name_; }
  sim::SimTime PacketTime(const sim::TrafficStats& t) const override;

 private:
  sim::CpuSpec per_worker_;  // 1 core, 1/cores of the socket bandwidth
  std::string name_ = "cpu";
};

/// GPU backend: one worker == one GPU; each packet is one fused kernel
/// launch over the whole device.
class GpuBackend final : public Backend {
 public:
  explicit GpuBackend(const sim::GpuSpec& spec);
  sim::DeviceType device_type() const override {
    return sim::DeviceType::kGpu;
  }
  const std::string& name() const override { return name_; }
  sim::SimTime PacketTime(const sim::TrafficStats& t) const override;
  const sim::GpuSpec& spec() const { return spec_; }

 private:
  sim::GpuSpec spec_;
  std::string name_ = "gpu";
};

/// Multiply all counts of `t` by `scale` (nominal/actual data ratio).
sim::TrafficStats Scaled(const sim::TrafficStats& t, double scale);

}  // namespace hape::codegen

#endif  // HAPE_CODEGEN_BACKEND_H_
