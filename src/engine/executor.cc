#include "engine/executor.h"

#include <algorithm>
#include <deque>
#include <map>
#include <queue>
#include <set>
#include <utility>

#include "codegen/kernels.h"
#include "common/logging.h"

namespace hape::engine {

const char* RoutingPolicyName(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kLoadAware:
      return "load-aware";
    case RoutingPolicy::kLocalityAware:
      return "locality-aware";
    case RoutingPolicy::kHashBased:
      return "hash-based";
  }
  return "?";
}

namespace {

/// The *transform* half of the data path: run the fused stage chain over
/// the packet, accumulating its traffic. Pure with respect to engine state
/// — it touches only the packet, read-only shared structures (hash tables,
/// payload columns) and `t` — and its only worker-dependence is the
/// backend's device type (probe traffic taxonomy), so independent packets
/// can transform on worker threads when the pipeline's workers are
/// device-type homogeneous.
void TransformPacket(Pipeline* p, memory::Batch* b,
                     const codegen::Backend& backend, sim::TrafficStats* t) {
  for (auto& stage : p->stages) {
    stage(b, t, backend);
    if (p->vector_at_a_time) {
      // Materialize one vector per live column per stage: a load+store
      // through the cache hierarchy plus interpretation dispatch — the
      // "multiple in-L1 passes" §6.4 credits for DBMS C's Q1 overhead.
      t->tuple_ops += b->rows * 4 * b->num_columns();
    }
    if (p->operator_at_a_time) {
      t->dram_seq_write_bytes += b->byte_size();
      t->dram_seq_read_bytes += b->byte_size();
    }
    if (b->rows == 0) break;
  }
}

/// One admitted packet: the (possibly pre-transformed) batch, its stage
/// traffic so far, and the routing metadata captured before any transform.
struct PreparedPacket {
  memory::Batch batch;
  sim::TrafficStats traffic;
  PacketMeta meta;
  uint64_t rows_in = 0;
  bool transformed = false;
};

/// The *commit* half: always sequential, in admission order. Finishes the
/// transform inline when the packet was not pre-transformed, feeds the
/// sink, and returns the packet's processing cost on `worker`'s backend.
/// Transform + commit is byte-for-byte the historical ProcessPacket order
/// of operations, so both timing models — and both the sequential and the
/// parallel transform paths — produce identical results and traffic.
sim::SimTime CommitPacket(Pipeline* p, PreparedPacket* pp, int worker_index,
                          const Worker& worker, ExecStats* stats) {
  if (!pp->transformed) {
    TransformPacket(p, &pp->batch, *worker.backend, &pp->traffic);
  }
  stats->rows_out += pp->batch.rows;
  if (p->sink != nullptr) {
    p->sink->Consume(worker_index, std::move(pp->batch), &pp->traffic,
                     *worker.backend);
  }
  const sim::TrafficStats scaled = codegen::Scaled(pp->traffic, p->scale);
  stats->traffic += scaled;
  return worker.backend->PacketTime(scaled);
}

/// Parallel transforms require every worker to charge the same traffic for
/// the same packet; the only backend-dependence in the stages is the
/// device type, so homogeneity of that is the gate. Hybrid (CPU+GPU)
/// pipelines fall back to sequential transform-at-commit.
bool HomogeneousDeviceType(const std::vector<Worker>& workers) {
  for (size_t w = 1; w < workers.size(); ++w) {
    if (workers[w].backend->device_type() !=
        workers[0].backend->device_type()) {
      return false;
    }
  }
  return true;
}

/// Drain `p->inputs` into PreparedPackets, capturing each packet's routing
/// metadata first. When the data plane asks for packet threads and the
/// worker set is device-type homogeneous, transform every packet up front
/// across the thread pool — commit order (and with it every result byte
/// and every simulated cost sequence) is unchanged because routing reads
/// only the captured metadata and commits stay sequential in admission
/// order.
std::vector<PreparedPacket> PrepareInputs(Pipeline* p,
                                          const std::vector<Worker>& workers) {
  std::vector<PreparedPacket> prep(p->inputs.size());
  for (size_t i = 0; i < p->inputs.size(); ++i) {
    PreparedPacket& pp = prep[i];
    pp.batch = std::move(p->inputs[i]);
    pp.rows_in = pp.batch.rows;
    pp.meta = PacketMeta{pp.batch.byte_size(), pp.batch.mem_node};
  }
  const int threads = codegen::DataPlane().packet_threads;
  if (threads > 1 && prep.size() > 1 && HomogeneousDeviceType(workers)) {
    const codegen::Backend& backend = *workers[0].backend;
    codegen::kernels::ParallelFor(prep.size(), threads, [&](size_t i) {
      TransformPacket(p, &prep[i].batch, backend, &prep[i].traffic);
      prep[i].transformed = true;
    });
    codegen::BumpParallelPackets(prep.size());
  }
  return prep;
}

/// Worker-instance index within its device (MakeWorkers order) for each
/// worker — the tid key of the trace's compute tracks and the key into the
/// scheduler's shared WorkerClocks.
std::vector<int> WorkerInstances(const std::vector<Worker>& workers) {
  std::vector<int> instance(workers.size(), 0);
  std::map<int, int> seen;
  for (size_t w = 0; w < workers.size(); ++w) {
    instance[w] = seen[workers[w].device_id]++;
  }
  return instance;
}

/// Per-device compute-time accounting (the scheduler's fairness currency).
void AccountDeviceBusy(const std::vector<Worker>& workers, ExecStats* stats) {
  for (const Worker& w : workers) {
    if (w.busy > 0) stats->device_busy_s[w.device_id] += w.busy;
  }
}

/// Charge the sink's single-worker merge after every packet finished.
void FinishSink(Pipeline* p, const std::vector<Worker>& workers,
                ExecStats* stats) {
  if (p->sink == nullptr) return;
  sim::TrafficStats t;
  p->sink->Finish(&t);
  const sim::TrafficStats scaled = codegen::Scaled(t, p->scale);
  stats->traffic += scaled;
  // The merge runs on one worker of the first device after all finish.
  stats->finish += workers[0].backend->PacketTime(scaled);
}

}  // namespace

Executor::Executor(sim::Topology* topo) : topo_(topo) {
  for (const auto& d : topo->devices()) {
    if (d.type == sim::DeviceType::kCpu) {
      backends_[d.id] = std::make_unique<codegen::CpuBackend>(d.cpu);
    } else {
      backends_[d.id] = std::make_unique<codegen::GpuBackend>(d.gpu);
    }
  }
}

std::vector<Worker> Executor::MakeWorkers(const std::vector<int>& devices,
                                          sim::SimTime start) const {
  std::vector<Worker> workers;
  for (int id : devices) {
    const sim::Device& d = topo_->device(id);
    const int instances = d.type == sim::DeviceType::kCpu ? d.cpu.cores : 1;
    for (int i = 0; i < instances; ++i) {
      workers.push_back(Worker{id, d.mem_node, backends_.at(id).get(),
                               start, 0, 0});
    }
  }
  HAPE_CHECK(!workers.empty()) << "pipeline needs at least one device";
  return workers;
}

sim::SimTime Executor::RouteDuration(int from_node, int to_node,
                                     uint64_t bytes) const {
  sim::SimTime d = 0;
  for (int l : topo_->Route(from_node, to_node)) {
    d += topo_->link(l).Duration(bytes);
  }
  return d;
}

int Executor::Route(const Pipeline& p, const PacketMeta& m,
                    const std::vector<Worker>& workers, size_t packet_index,
                    const LinkAvailFn& link_avail) const {
  switch (p.policy) {
    case RoutingPolicy::kHashBased:
      // A fixed packet-to-worker map that reads no packet contents.
      return static_cast<int>(packet_index % workers.size());
    case RoutingPolicy::kLocalityAware: {
      // Prefer the least-loaded worker co-located with the packet; ship to
      // the globally least-loaded worker only when it finishes earlier
      // even after paying the packet's transfer to its node. (The old
      // rule compared absolute free_at timestamps against a 2x threshold,
      // which degenerates at sim-time 0 — everything looks "local
      // enough" — and at late start times never leaves the local node.)
      int best_local = -1, best_any = 0;
      for (int w = 0; w < static_cast<int>(workers.size()); ++w) {
        if (workers[w].free_at < workers[best_any].free_at) best_any = w;
        if (workers[w].mem_node == m.mem_node &&
            (best_local < 0 ||
             workers[w].free_at < workers[best_local].free_at)) {
          best_local = w;
        }
      }
      if (best_local < 0) return best_any;
      if (workers[best_any].mem_node == m.mem_node) return best_local;
      const uint64_t wire_bytes = static_cast<uint64_t>(
          m.bytes * p.scale * p.wire_amplification);
      const sim::SimTime ship =
          RouteDuration(m.mem_node, workers[best_any].mem_node, wire_bytes);
      return workers[best_local].free_at <= workers[best_any].free_at + ship
                 ? best_local
                 : best_any;
    }
    case RoutingPolicy::kLoadAware:
    default: {
      // Earliest projected completion, counting the transfer the packet
      // would need to reach each candidate (the router sees only metadata:
      // size and location).
      int best = 0;
      sim::SimTime best_t = -1;
      for (int w = 0; w < static_cast<int>(workers.size()); ++w) {
        sim::SimTime est = workers[w].free_at;
        if (workers[w].mem_node != m.mem_node) {
          sim::SimTime link_free = 0;
          for (int l : topo_->Route(m.mem_node, workers[w].mem_node)) {
            link_free = std::max(link_free, link_avail(l));
          }
          est = std::max(est, link_free);
        }
        if (best_t < 0 || est < best_t) {
          best_t = est;
          best = w;
        }
      }
      return best;
    }
  }
}

ExecStats Executor::Run(Pipeline* p, const std::vector<int>& devices,
                        const RunOptions& opts) {
  if (opts.async.enabled()) {
    // Admission routing runs on a relative timeline (workers at 0), so
    // packet->worker assignment is independent of absolute start times
    // and of the prefetch depth — results stay byte-identical across
    // depths.
    std::vector<Worker> workers = MakeWorkers(devices, 0);
    return RunAsync(p, &workers, opts);
  }
  std::vector<Worker> workers = MakeWorkers(devices, opts.start);
  return RunSync(p, &workers, opts);
}

ExecStats Executor::RunSync(Pipeline* p, std::vector<Worker>* workers_ptr,
                            const RunOptions& opts) {
  std::vector<Worker>& workers = *workers_ptr;
  const sim::SimTime start = opts.start;
  ExecStats stats;
  stats.start = start;
  stats.finish = start;
  const LinkAvailFn live_links = [this](int l) {
    return topo_->link(l).available_at();
  };
  const bool trace = tracing();
  const std::vector<int> instance =
      trace ? WorkerInstances(workers) : std::vector<int>{};

  std::vector<PreparedPacket> prep = PrepareInputs(p, workers);
  for (size_t i = 0; i < prep.size(); ++i) {
    PreparedPacket& pp = prep[i];
    stats.rows_in += pp.rows_in;
    ++stats.packets;

    const int w = Route(*p, pp.meta, workers, i, live_links);
    Worker& worker = workers[w];

    // mem-move: ship the packet to the consumer's memory node, reserving
    // every link on the route (device crossing for CPU->GPU hops). The
    // synchronous model serializes this with the worker below. Wire size
    // is the packet's *admission* size (pp.meta), never the transformed
    // body's — the transform is a host-side artifact.
    sim::SimTime ready = start;
    uint64_t wire_bytes = 0;
    const int from_node = pp.meta.mem_node;
    if (pp.meta.mem_node != worker.mem_node) {
      wire_bytes = static_cast<uint64_t>(
          pp.meta.bytes * p->scale * p->wire_amplification);
      ready = topo_->TransferFinish(pp.meta.mem_node, worker.mem_node, start,
                                    wire_bytes);
    }
    pp.batch.mem_node = worker.mem_node;

    const sim::SimTime cost = CommitPacket(p, &pp, w, worker, &stats);
    if (wire_bytes > 0) {
      ++stats.mem_moves;
      stats.moved_bytes += wire_bytes;
      stats.transfer_busy_s += ready - start;
      stats.transfer_exposed_s += std::max(0.0, ready - worker.free_at);
    }
    const sim::SimTime begin = std::max(worker.free_at, ready);
    worker.free_at = begin + cost;
    worker.busy += cost;
    ++worker.packets;
    stats.finish = std::max(stats.finish, worker.free_at);
    if (trace) {
      if (wire_bytes > 0) {
        tracer_->Span(from_node, obs::kSyncTransferTid, start, ready,
                      "transfer", "transfer",
                      obs::TraceAttr{opts.trace_query, opts.dma_stream,
                                     worker.device_id, -1, -1, wire_bytes,
                                     p->name, {}});
      }
      tracer_->Span(worker.mem_node,
                    obs::WorkerTid(worker.device_id, instance[w]), begin,
                    worker.free_at, p->name, "compute",
                    obs::TraceAttr{opts.trace_query, opts.dma_stream,
                                   worker.device_id, -1, -1, 0, p->name, {}});
    }
  }

  AccountDeviceBusy(workers, &stats);
  FinishSink(p, workers, &stats);
  return stats;
}

ExecStats Executor::RunAsync(Pipeline* p, std::vector<Worker>* workers_ptr,
                             const RunOptions& opts) {
  std::vector<Worker>& workers = *workers_ptr;
  ExecStats stats;
  stats.start = opts.start;
  stats.finish = opts.start;

  // ---- pass 1: admission. Route packets (relative shadow timeline) and
  // run the data path, recording each packet's cost and transfer need.
  struct Rec {
    int worker;
    sim::SimTime cost;
    uint64_t wire_bytes;
    int from_node;
  };
  std::vector<Rec> recs;
  recs.reserve(p->inputs.size());
  std::vector<sim::SimTime> shadow_link(topo_->num_links(), 0.0);
  const LinkAvailFn shadow_links = [&shadow_link](int l) {
    return shadow_link[l];
  };
  std::vector<PreparedPacket> prep = PrepareInputs(p, workers);
  for (size_t i = 0; i < prep.size(); ++i) {
    PreparedPacket& pp = prep[i];
    stats.rows_in += pp.rows_in;
    ++stats.packets;
    const int w = Route(*p, pp.meta, workers, i, shadow_links);
    Worker& worker = workers[w];
    uint64_t wire_bytes = 0;
    const int from_node = pp.meta.mem_node;
    sim::SimTime est_ready = 0;
    if (pp.meta.mem_node != worker.mem_node) {
      wire_bytes = static_cast<uint64_t>(
          pp.meta.bytes * p->scale * p->wire_amplification);
      // Shadow reservation mirroring TransferFinish, so the router sees
      // the same projected contention the synchronous model would.
      sim::SimTime t = 0;
      for (int l : topo_->Route(from_node, worker.mem_node)) {
        t = std::max(t, shadow_link[l]);
        t += topo_->link(l).Duration(wire_bytes);
        shadow_link[l] = t;
      }
      est_ready = t;
    }
    pp.batch.mem_node = worker.mem_node;
    const sim::SimTime cost = CommitPacket(p, &pp, w, worker, &stats);
    worker.free_at = std::max(worker.free_at, est_ready) + cost;
    recs.push_back(Rec{w, cost, wire_bytes, from_node});
  }

  // ---- pass 2: event-driven timing against the real topology. Each
  // worker consumes its packets in admission order; up to `depth`
  // transfers are staged ahead of the packet being computed (the staging
  // buffers), issued through the copy engines, never the workers.
  const int depth = opts.async.prefetch_depth;
  const size_t n_workers = workers.size();
  std::vector<std::vector<int>> queue(n_workers);
  for (size_t i = 0; i < recs.size(); ++i) {
    queue[recs[i].worker].push_back(static_cast<int>(i));
  }
  std::vector<sim::SimTime> gate(n_workers);
  std::vector<std::vector<sim::SimTime>> fin(n_workers);
  // Instance index of each worker within its device (MakeWorkers order) —
  // the key into the scheduler's shared WorkerClocks.
  const std::vector<int> instance = WorkerInstances(workers);
  for (size_t w = 0; w < n_workers; ++w) {
    const bool gpu =
        topo_->device(workers[w].device_id).type == sim::DeviceType::kGpu;
    gate[w] = gpu ? opts.compute_ready : opts.compute_ready_host;
    if (opts.clocks != nullptr) {
      // Cross-query sharing: the worker may still be computing another
      // query's packets; staging is unaffected (copy engines, not workers).
      gate[w] = std::max(
          gate[w], opts.clocks->OthersGate(opts.dma_stream,
                                           workers[w].device_id,
                                           instance[w]));
    }
    workers[w].free_at = gate[w];
    workers[w].busy = 0;
    workers[w].packets = 0;
    fin[w].assign(queue[w].size(), 0);
  }

  // Staging events on the shared (time, seq) event queue: FIFO among
  // simultaneous events keeps the schedule deterministic.
  struct Staged {
    int worker;
    int slot;
  };
  EventQueue<Staged> events;
  // Prefill slot-major (slot 0 of every worker, then slot 1, ...): the
  // initial staging issues in packet order across workers, so no worker's
  // whole prefetch window reserves the links ahead of the others' first
  // packets. Slots past the longest queue stage nothing, so the prefill
  // stops there whatever the depth.
  size_t longest = 0;
  for (const std::vector<int>& q : queue) longest = std::max(longest, q.size());
  const int prefill =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(depth), longest));
  for (int k = 0; k < prefill; ++k) {
    for (size_t w = 0; w < n_workers; ++w) {
      if (k < static_cast<int>(queue[w].size())) {
        events.Push(opts.start, Staged{static_cast<int>(w), k});
      }
    }
  }
  // Staged-byte accounting per worker, for peak_staged_bytes: (compute-
  // begin, wire bytes) of every issued-but-not-yet-computing transfer.
  // Compute begins are monotonic per worker, so releases pop from the
  // front.
  std::vector<std::deque<std::pair<sim::SimTime, uint64_t>>> inflight(
      n_workers);
  std::vector<uint64_t> staged(n_workers, 0);
  const bool trace = tracing();
  while (!events.empty()) {
    const auto [issue_t, ev] = events.Pop();
    const int w = ev.worker;
    const int k = ev.slot;
    const Rec& r = recs[queue[w][k]];
    // Issue the staged mem-move now: a buffer just became available.
    sim::SimTime ready = issue_t;
    if (r.wire_bytes > 0) {
      auto& q = inflight[w];
      while (!q.empty() && q.front().first <= issue_t) {
        staged[w] -= q.front().second;
        q.pop_front();
      }
      sim::CopyEngine::IssueInfo dma;
      ready = topo_->DmaTransferFinish(r.from_node, workers[w].mem_node,
                                       issue_t, r.wire_bytes,
                                       opts.dma_stream, opts.dma_lane_quota,
                                       trace ? &dma : nullptr);
      if (trace) {
        // The lane track shows the copy engine's first-hop occupancy; the
        // span's `dur` covers the reserved lane window, while `ready`
        // (all hops landed) gates the compute span below.
        tracer_->Span(r.from_node, obs::LaneTid(dma.lane), dma.start,
                      dma.finish, "dma", "transfer",
                      obs::TraceAttr{opts.trace_query, opts.dma_stream,
                                     workers[w].device_id, dma.lane, -1,
                                     r.wire_bytes, p->name, {}});
      }
    }
    const sim::SimTime prev = k == 0 ? gate[w] : fin[w][k - 1];
    const sim::SimTime begin = std::max(std::max(gate[w], prev), ready);
    fin[w][k] = begin + r.cost;
    if (trace) {
      tracer_->Span(workers[w].mem_node,
                    obs::WorkerTid(workers[w].device_id, instance[w]), begin,
                    fin[w][k], p->name, "compute",
                    obs::TraceAttr{opts.trace_query, opts.dma_stream,
                                   workers[w].device_id, -1, -1, 0, p->name, {}});
    }
    workers[w].free_at = fin[w][k];
    workers[w].busy += r.cost;
    ++workers[w].packets;
    stats.finish = std::max(stats.finish, fin[w][k]);
    if (r.wire_bytes > 0) {
      staged[w] += r.wire_bytes;
      inflight[w].emplace_back(begin, r.wire_bytes);
      stats.peak_staged_bytes = std::max(stats.peak_staged_bytes, staged[w]);
      ++stats.mem_moves;
      stats.moved_bytes += r.wire_bytes;
      stats.transfer_busy_s += ready - issue_t;
      stats.transfer_exposed_s +=
          std::max(0.0, ready - std::max(prev, gate[w]));
    }
    // Computing slot k frees a staging buffer: issue slot k + depth (in
    // 64 bits, since the depth may be as large as INT_MAX).
    const int64_t next = int64_t{k} + depth;
    if (next < static_cast<int64_t>(queue[w].size())) {
      events.Push(begin, Staged{w, static_cast<int>(next)});
    }
  }

  if (opts.clocks != nullptr) {
    // Publish each used worker's final free time back into the shared
    // clocks under this query's stream (idle workers stay untouched).
    for (size_t w = 0; w < n_workers; ++w) {
      if (workers[w].packets == 0) continue;
      opts.clocks->Update(opts.dma_stream, workers[w].device_id,
                          instance[w], workers[w].free_at);
    }
  }
  AccountDeviceBusy(workers, &stats);
  FinishSink(p, workers, &stats);
  return stats;
}

sim::SimTime Executor::Broadcast(uint64_t bytes, int from_node,
                                 const std::vector<int>& to_nodes,
                                 sim::SimTime start) {
  // Minimal-copy multicast: collect the union of links used by all route
  // trees and send the payload once per link (§4.2's broadcast variant of
  // the mem-move operator).
  std::set<int> links;
  for (int dst : to_nodes) {
    if (dst == from_node) continue;
    for (int l : topo_->Route(from_node, dst)) links.insert(l);
  }
  sim::SimTime finish = start;
  for (int l : links) {
    finish = std::max(finish, topo_->link(l).Transfer(start, bytes).finish);
  }
  return finish;
}

sim::SimTime Executor::BroadcastAsync(uint64_t bytes, int from_node,
                                      const std::vector<int>& to_nodes,
                                      sim::SimTime start, int trace_query) {
  std::vector<int> dsts;
  for (int d : to_nodes) {
    if (d != from_node) dsts.push_back(d);
  }
  if (dsts.empty() || bytes == 0) return start;
  const uint64_t chunk = std::min(kBroadcastChunkBytes, bytes);

  sim::SimTime finish = start;
  uint64_t off = 0;
  while (off < bytes) {
    const uint64_t csize = std::min(chunk, bytes - off);
    off += csize;
    // The broadcast drains straight out of the source memory at link
    // speed; unlike packet staging it does not occupy copy-engine lanes
    // (the first-hop link fully serializes its chunks already, and lane
    // reservations would starve concurrent packet staging at small
    // prefetch depths).
    const sim::SimTime issued = start;
    // Store-and-forward pipeline over the multicast tree: each link
    // carries the chunk once; a downstream hop starts when its upstream
    // hop finishes, so chunk c+1 occupies the first hop while chunk c
    // rides the second — the double-buffering that lets probing-side
    // staging begin before the last chunk lands.
    std::map<int, sim::SimTime> done;  // link -> this chunk's finish there
    sim::SimTime chunk_finish = issued;
    for (int dst : dsts) {
      sim::SimTime t = issued;
      for (int l : topo_->Route(from_node, dst)) {
        auto it = done.find(l);
        if (it != done.end()) {
          t = std::max(t, it->second);
          continue;
        }
        t = topo_->link(l).TransferInGap(t, csize).finish;
        done[l] = t;
      }
      chunk_finish = std::max(chunk_finish, t);
    }
    finish = std::max(finish, chunk_finish);
    if (tracing()) {
      tracer_->Span(from_node, obs::kBroadcastTid, issued, chunk_finish,
                    "broadcast_chunk", "broadcast",
                    obs::TraceAttr{trace_query, -1, -1, -1, -1, csize, {}, {}});
    }
  }
  return finish;
}

}  // namespace hape::engine
