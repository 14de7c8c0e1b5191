#ifndef HAPE_ENGINE_EXECUTOR_H_
#define HAPE_ENGINE_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "engine/pipeline.h"
#include "engine/policy.h"
#include "obs/trace.h"
#include "sim/topology.h"

namespace hape::engine {

/// Deterministic discrete-event queue: a binary min-heap over
/// (time, sequence), where the sequence number is the push order — FIFO
/// among simultaneous events, so event schedules are reproducible without
/// any tie-break policy at the call sites. O(log n) push/pop, replacing
/// linear next-event scans. The async executor's staging loop runs on one;
/// the multi-query serving loop replays arrival events through another.
template <typename Payload>
class EventQueue {
 public:
  void Push(sim::SimTime t, Payload p) {
    heap_.push_back(Entry{t, seq_++, std::move(p)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  /// Time of the earliest event; heap must be non-empty.
  sim::SimTime next_time() const { return heap_.front().t; }
  std::pair<sim::SimTime, Payload> Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    return {e.t, std::move(e.payload)};
  }

 private:
  struct Entry {
    sim::SimTime t;
    uint64_t seq;
    Payload payload;
  };
  /// Heap "less": a sorts after b (std::push_heap keeps the max on top, so
  /// ordering by "later" surfaces the earliest event).
  static bool Later(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
  std::vector<Entry> heap_;
  uint64_t seq_ = 0;
};

/// Routing-visible packet metadata, captured from the input batch *before*
/// any stage transform runs. The router only ever sees size and location —
/// never contents — so routing (and with it every downstream timing
/// decision) is identical whether the packet body was already transformed
/// by a worker thread or is still raw.
struct PacketMeta {
  uint64_t bytes = 0;  ///< byte_size() of the untransformed packet
  int mem_node = 0;    ///< node holding the packet at admission
};

/// One logical consumer instance of a pipeline: a CPU core or a whole GPU.
/// Instantiated per pipeline run by the executor from the device list —
/// this is HetExchange's producer/consumer instantiation (§4.2).
struct Worker {
  int device_id;
  int mem_node;
  const codegen::Backend* backend;
  sim::SimTime free_at = 0;
  uint64_t packets = 0;
  sim::SimTime busy = 0;
};

/// Cross-query worker availability, keyed by stream (query id), then
/// device id, with one entry per worker instance (a CPU core or a whole
/// GPU, in MakeWorkers order). The multi-query scheduler threads one
/// WorkerClocks through every pipeline of a schedule: a worker's compute
/// gate is raised to the *other* queries' clocks on it, and the running
/// query's final free time is written back under its own stream.
///
/// Gating on other streams only is deliberate: a single Engine::Run gives
/// every pipeline a fresh worker set, so pipelines of one query overlap
/// freely (the historical intra-query semantic, kept bit-exact). The
/// clocks add exactly the *cross-query* serialization a shared machine
/// imposes, without making a scheduled query's own pipelines stricter
/// than a standalone run's. Only the async executor honors clocks — the
/// synchronous legacy path stays untouched.
struct WorkerClocks {
  static constexpr int kNoStream = std::numeric_limits<int>::min();

  /// One worker instance's cross-stream clock, summarized as the two
  /// latest busy-until values over *distinct* streams. The gate excluding
  /// any one stream is then O(1): the global maximum when the asking
  /// stream is not the one holding it, the runner-up otherwise. The
  /// summary is exact because updates are monotone (Update takes the max,
  /// so a stream's clock only ever grows): whenever a stream loses the
  /// top spot its value is captured into max2, and every later value of a
  /// non-top stream folds into max2 too — a displaced value can never
  /// resurface above the cached pair. This replaces the per-stream map a
  /// linear scan needed, which grew with every query a long-running
  /// serving engine had ever admitted.
  struct Slot {
    int max_stream = kNoStream;
    sim::SimTime max1 = 0;  ///< latest busy-until over all streams
    sim::SimTime max2 = 0;  ///< latest over streams other than max_stream

    void Update(int stream, sim::SimTime t) {
      if (stream == max_stream) {
        max1 = std::max(max1, t);
      } else if (t > max1) {
        max2 = max1;
        max_stream = stream;
        max1 = t;
      } else {
        max2 = std::max(max2, t);
      }
    }
    sim::SimTime Gate(int stream) const {
      return stream == max_stream ? max2 : max1;
    }
  };

  /// Device id -> per-instance slots (MakeWorkers order).
  std::map<int, std::vector<Slot>> slots;

  /// Latest busy-until of `dev`/`inst` over every stream except `stream`.
  sim::SimTime OthersGate(int stream, int dev, int inst) const {
    auto it = slots.find(dev);
    if (it == slots.end() ||
        inst >= static_cast<int>(it->second.size())) {
      return 0;
    }
    return it->second[inst].Gate(stream);
  }

  void Update(int stream, int dev, int inst, sim::SimTime t) {
    auto& v = slots[dev];
    if (v.size() <= static_cast<size_t>(inst)) v.resize(inst + 1);
    v[inst].Update(stream, t);
  }
};

/// Per-run knobs of Executor::Run. The synchronous legacy call sites use
/// the (pipeline, devices, start) overload, which sets every gate to
/// `start` and leaves async off — bit-identical to the historical model.
struct RunOptions {
  /// Earliest time packet mem-moves may be issued (staging start).
  sim::SimTime start = 0;
  /// Earliest time a GPU worker may start computing (e.g. its probed hash
  /// tables became device-resident). >= start.
  sim::SimTime compute_ready = 0;
  /// Earliest time a CPU worker may start computing (host-resident build
  /// sides are ready when their build pipelines finish — before any
  /// broadcast lands). >= start.
  sim::SimTime compute_ready_host = 0;
  /// Async executor knob; depth 0 reproduces the synchronous timing.
  AsyncOptions async;
  /// Shared worker availability across pipelines (multi-query scheduling);
  /// null = workers are free at their gates, the single-query model.
  WorkerClocks* clocks = nullptr;
  /// Copy-engine stream tag and per-stream channel quota of this run's DMA
  /// transfers (0/0 = untagged, all channels — every single-query path).
  int dma_stream = 0;
  int dma_lane_quota = 0;
  /// Query id stamped onto trace events emitted during this run
  /// (observability only — never read by any scheduling decision).
  int trace_query = 0;
};

/// Deterministic discrete-event pipeline executor. Packets are routed to
/// workers by the router policy; device crossings reserve interconnect
/// links (mem-move); each packet's processing cost comes from the worker's
/// backend and the traffic the fused stages record. Host execution is
/// sequential and deterministic, simulated time is parallel.
///
/// Two timing models share the data path:
///   - synchronous (async depth 0): every packet's transfer serializes
///     with the consuming worker (`free_at = max(free_at, ready) + cost`),
///     the legacy Fig. 8/9 model, kept bit-exact;
///   - event-driven async (depth N >= 1): transfers run on the device copy
///     engines, decoupled from compute. Up to N packet transfers per
///     worker are staged ahead of the one being computed, so mem-moves
///     hide behind compute, and staging may begin before the worker is
///     allowed to compute (RunOptions::start < compute_ready) — probe-side
///     staging overlaps build pipelines and hash-table broadcasts.
class Executor {
 public:
  explicit Executor(sim::Topology* topo);

  /// Execute `p` on all workers of `devices` under `opts`. Hybrid runs
  /// pass both CPU and GPU device ids — the router does not differentiate;
  /// device-crossings (transfers + backend switches) are handled per
  /// packet.
  ExecStats Run(Pipeline* p, const std::vector<int>& devices,
                const RunOptions& opts);

  /// Legacy synchronous entry point: staging and compute both gated at
  /// `start`, async off.
  ExecStats Run(Pipeline* p, const std::vector<int>& devices,
                sim::SimTime start = 0) {
    RunOptions opts;
    opts.start = opts.compute_ready = opts.compute_ready_host = start;
    return Run(p, devices, opts);
  }

  /// Topology-aware broadcast (§4.2 mem-move): replicate `bytes` from
  /// `from_node` to each node in `to_nodes`, sharing the payload across
  /// links so each link carries it once (multicast). Returns finish time.
  sim::SimTime Broadcast(uint64_t bytes, int from_node,
                         const std::vector<int>& to_nodes,
                         sim::SimTime start = 0);

  /// Chunked, double-buffered broadcast used by the async engine: the
  /// payload is split into kBroadcastChunkBytes chunks that pipeline
  /// store-and-forward across the multicast tree (chunk c+1 occupies the
  /// first hop while chunk c rides the second), issued through the source
  /// node's copy engine with gap-filling link reservations. Returns the
  /// time the last chunk reaches the last destination.
  sim::SimTime BroadcastAsync(uint64_t bytes, int from_node,
                              const std::vector<int>& to_nodes,
                              sim::SimTime start, int trace_query = 0);
  /// Chunk size of BroadcastAsync. Every chunk is a link reservation, so a
  /// table as large as a GPU's memory (8 GiB) goes out in 128 of them.
  static constexpr uint64_t kBroadcastChunkBytes = 64 * sim::kMiB;

  /// Observation-only span recorder (owned by the Engine); null or
  /// disabled tracers make every emission site a dead branch.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  sim::Topology* topology() { return topo_; }

 private:
  /// Callback yielding a link's next-available time; lets the router run
  /// against the live topology (sync) or a relative shadow timeline
  /// (async admission).
  using LinkAvailFn = std::function<sim::SimTime(int)>;

  std::vector<Worker> MakeWorkers(const std::vector<int>& devices,
                                  sim::SimTime start) const;
  /// Router: choose the worker for the packet described by `m` under
  /// `policy`; returns worker index. Takes metadata rather than the batch
  /// so pre-transformed packets route exactly like raw ones.
  int Route(const Pipeline& p, const PacketMeta& m,
            const std::vector<Worker>& workers, size_t packet_index,
            const LinkAvailFn& link_avail) const;

  ExecStats RunSync(Pipeline* p, std::vector<Worker>* workers,
                    const RunOptions& opts);
  ExecStats RunAsync(Pipeline* p, std::vector<Worker>* workers,
                     const RunOptions& opts);

  /// Pure transfer duration of `bytes` along the route between two nodes
  /// (no contention) — the router's estimate of what shipping a packet
  /// remotely costs.
  sim::SimTime RouteDuration(int from_node, int to_node,
                             uint64_t bytes) const;

  /// True when trace events should be recorded this run.
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }

  sim::Topology* topo_;
  std::map<int, std::unique_ptr<codegen::Backend>> backends_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_EXECUTOR_H_
