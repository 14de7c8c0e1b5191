#ifndef HAPE_SIM_TOPOLOGY_H_
#define HAPE_SIM_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/copy_engine.h"
#include "sim/interconnect.h"
#include "sim/spec.h"

namespace hape::sim {

enum class DeviceType { kCpu, kGpu };

/// A physical memory node: a socket's DRAM or one GPU's device memory.
/// Its capacity is in *nominal* bytes, so paper-scale capacity decisions
/// (e.g. "co-partition must fit in 8 GB") are made even when the benchmark
/// runs on scaled-down data. The node keeps no allocation ledger:
/// placement and admission size tables against the policy's GPU budget
/// (ExecutionPolicy::GpuBudget, StagedBytes).
class MemNode {
 public:
  MemNode(int id, std::string name, uint64_t capacity)
      : id_(id), name_(std::move(name)), capacity_(capacity) {}

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  uint64_t capacity() const { return capacity_; }

 private:
  int id_;
  std::string name_;
  uint64_t capacity_;
};

/// One compute device: a CPU socket (12 cores in the paper's server) or one
/// GPU. Each device is attached to exactly one memory node.
struct Device {
  int id;
  DeviceType type;
  int mem_node;
  std::string name;
  CpuSpec cpu;  // valid when type == kCpu
  GpuSpec gpu;  // valid when type == kGpu
};

/// The simulated server: devices, memory nodes, and the links between them.
/// Default topology mirrors the paper's testbed (§6.1): two 12-core Xeon
/// E5-2650L v3 sockets with 128 GB DRAM each, joined by QPI, and one
/// GTX 1080 behind a dedicated PCIe 3.0 x16 link on each socket.
class Topology {
 public:
  static Topology PaperServer();
  /// Same server with `gpus` GPUs (0, 1 or 2); used by benchmarks comparing
  /// 1-GPU vs 2-GPU co-processing.
  static Topology PaperServerWithGpus(int gpus);

  const std::vector<Device>& devices() const { return devices_; }
  const Device& device(int id) const { return devices_[id]; }
  MemNode& mem_node(int id) { return *mem_nodes_[id]; }
  const MemNode& mem_node(int id) const { return *mem_nodes_[id]; }
  int num_mem_nodes() const { return static_cast<int>(mem_nodes_.size()); }
  Link& link(int id) { return *links_[id]; }
  int num_links() const { return static_cast<int>(links_.size()); }
  /// The DMA engine carrying out async mem-moves that originate at
  /// `mem_node` (one per memory node; see CopyEngine).
  CopyEngine& copy_engine(int mem_node) { return *copy_engines_[mem_node]; }

  std::vector<int> CpuDeviceIds() const;
  std::vector<int> GpuDeviceIds() const;

  /// Link ids along the route between two memory nodes (empty if same node).
  /// A socket0 -> GPU1 transfer traverses QPI then GPU1's PCIe link.
  const std::vector<int>& Route(int from_node, int to_node) const;

  /// Total time to move `bytes` from `from_node` to `to_node` starting at
  /// `earliest`, reserving every link on the route. Returns the finish time
  /// (== earliest for node-local "transfers").
  SimTime TransferFinish(int from_node, int to_node, SimTime earliest,
                         uint64_t bytes);

  /// Asynchronous DMA mem-move: issues on the source node's copy engine
  /// (serializing against its other in-flight copies), then reserves every
  /// link on the route with gap-filling semantics — the transfer may use
  /// link idle time before the tail, so it never delays reservations that
  /// already exist. Hops pipeline store-and-forward (hop i+1 starts when
  /// hop i finishes). Returns the finish time. Compute workers are not
  /// involved: this is the decoupled transfer timeline of the async
  /// executor. Synchronous execution never calls this.
  /// `stream` / `lane_quota` forward to CopyEngine::Issue: the multi-query
  /// scheduler tags each query's transfers and caps the copy-engine
  /// channels one query may occupy at once.
  /// `info`, when non-null, receives the copy-engine lane attribution for
  /// tracing; it never feeds back into any timing decision.
  SimTime DmaTransferFinish(int from_node, int to_node, SimTime earliest,
                            uint64_t bytes, int stream = 0,
                            int lane_quota = 0,
                            CopyEngine::IssueInfo* info = nullptr);

  /// Reset all link and copy-engine reservations. Memory nodes hold no
  /// usage to reset.
  void Reset();

 private:
  int AddMemNode(std::string name, uint64_t capacity);
  int AddLink(LinkSpec spec, int node_a, int node_b);
  void BuildRoutes();

  std::vector<Device> devices_;
  std::vector<std::unique_ptr<MemNode>> mem_nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<CopyEngine>> copy_engines_;  // per mem node
  // routes_[from][to] = link ids.
  std::vector<std::vector<std::vector<int>>> routes_;
  // adjacency: (node_a, node_b) per link id.
  std::vector<std::pair<int, int>> link_ends_;
};

}  // namespace hape::sim

#endif  // HAPE_SIM_TOPOLOGY_H_
