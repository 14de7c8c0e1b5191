#include "sim/topology.h"

#include <algorithm>

#include "common/logging.h"

namespace hape::sim {

int Topology::AddMemNode(std::string name, uint64_t capacity) {
  const int id = static_cast<int>(mem_nodes_.size());
  mem_nodes_.push_back(std::make_unique<MemNode>(id, std::move(name),
                                                 capacity));
  copy_engines_.push_back(std::make_unique<CopyEngine>());
  return id;
}

int Topology::AddLink(LinkSpec spec, int node_a, int node_b) {
  const int id = static_cast<int>(links_.size());
  links_.push_back(std::make_unique<Link>(spec));
  link_ends_.emplace_back(node_a, node_b);
  return id;
}

Topology Topology::PaperServer() { return PaperServerWithGpus(2); }

Topology Topology::PaperServerWithGpus(int gpus) {
  HAPE_CHECK(gpus >= 0 && gpus <= 2) << "paper server has at most 2 GPUs";
  Topology t;
  const int s0 = t.AddMemNode("socket0-dram", 128 * kGiB);
  const int s1 = t.AddMemNode("socket1-dram", 128 * kGiB);

  CpuSpec cpu;
  t.devices_.push_back(Device{0, DeviceType::kCpu, s0, "cpu0", cpu, {}});
  t.devices_.push_back(Device{1, DeviceType::kCpu, s1, "cpu1", cpu, {}});

  // QPI between the sockets (9.6 GT/s x2 links ~ 38.4 GB/s usable).
  LinkSpec qpi;
  qpi.bandwidth_gbps = 38.4;
  qpi.latency_s = 0.5 * kUs;
  t.AddLink(qpi, s0, s1);

  GpuSpec gpu;
  for (int g = 0; g < gpus; ++g) {
    const int node = t.AddMemNode("gpu" + std::to_string(g) + "-dram",
                                  gpu.mem_bytes);
    const int dev = static_cast<int>(t.devices_.size());
    t.devices_.push_back(Device{dev, DeviceType::kGpu, node,
                                "gpu" + std::to_string(g), {}, gpu});
    // Dedicated PCIe 3.0 x16 per GPU; GPU g hangs off socket g (paper §6.1:
    // each GPU has a dedicated x16 interconnect).
    t.AddLink(LinkSpec{}, g == 0 ? s0 : s1, node);
  }
  t.BuildRoutes();
  return t;
}

void Topology::BuildRoutes() {
  const int n = num_mem_nodes();
  routes_.assign(n, std::vector<std::vector<int>>(n));
  // BFS over the link graph per source; topology is tiny so this is cheap.
  for (int src = 0; src < n; ++src) {
    std::vector<int> prev_link(n, -1), prev_node(n, -1);
    std::vector<bool> seen(n, false);
    std::vector<int> queue{src};
    seen[src] = true;
    for (size_t qi = 0; qi < queue.size(); ++qi) {
      const int u = queue[qi];
      for (int l = 0; l < static_cast<int>(link_ends_.size()); ++l) {
        const auto [a, b] = link_ends_[l];
        int v = -1;
        if (a == u) v = b;
        if (b == u) v = a;
        if (v < 0 || seen[v]) continue;
        seen[v] = true;
        prev_link[v] = l;
        prev_node[v] = u;
        queue.push_back(v);
      }
    }
    for (int dst = 0; dst < n; ++dst) {
      if (dst == src || !seen[dst]) continue;
      std::vector<int> path;
      for (int v = dst; v != src; v = prev_node[v]) path.push_back(prev_link[v]);
      std::reverse(path.begin(), path.end());
      routes_[src][dst] = std::move(path);
    }
  }
}

std::vector<int> Topology::CpuDeviceIds() const {
  std::vector<int> ids;
  for (const auto& d : devices_) {
    if (d.type == DeviceType::kCpu) ids.push_back(d.id);
  }
  return ids;
}

std::vector<int> Topology::GpuDeviceIds() const {
  std::vector<int> ids;
  for (const auto& d : devices_) {
    if (d.type == DeviceType::kGpu) ids.push_back(d.id);
  }
  return ids;
}

const std::vector<int>& Topology::Route(int from_node, int to_node) const {
  return routes_[from_node][to_node];
}

SimTime Topology::TransferFinish(int from_node, int to_node, SimTime earliest,
                                 uint64_t bytes) {
  if (from_node == to_node) return earliest;
  SimTime t = earliest;
  for (int l : Route(from_node, to_node)) {
    t = links_[l]->Transfer(t, bytes).finish;
  }
  return t;
}

SimTime Topology::DmaTransferFinish(int from_node, int to_node,
                                    SimTime earliest, uint64_t bytes,
                                    int stream, int lane_quota,
                                    CopyEngine::IssueInfo* info) {
  if (from_node == to_node) return earliest;
  const std::vector<int>& route = Route(from_node, to_node);
  HAPE_CHECK(!route.empty()) << "no route between memory nodes";
  // The copy engine serializes the issue against the node's other
  // in-flight copies for the first hop's duration (draining the source).
  const SimTime first_dur = links_[route.front()]->Duration(bytes);
  SimTime t = copy_engines_[from_node]->Issue(earliest, first_dur, bytes,
                                              stream, lane_quota, info);
  for (int l : route) {
    t = links_[l]->TransferInGap(t, bytes).finish;
  }
  return t;
}

void Topology::Reset() {
  for (auto& l : links_) l->Reset();
  for (auto& c : copy_engines_) c->Reset();
}

}  // namespace hape::sim
