#ifndef HAPE_ENGINE_PIPELINE_H_
#define HAPE_ENGINE_PIPELINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/backend.h"
#include "memory/batch.h"

namespace hape::engine {

/// One fused pipeline stage produced by code generation: transforms a
/// packet in place (filter compacts, probe expands, project rewrites) and
/// records the *logical* traffic the generated code would cause on the
/// executing backend. Intermediate results stay "in registers": only
/// operator-specific structure accesses and pipeline endpoints touch memory
/// — the JIT property that distinguishes the engine from the vector-at-a-
/// time baseline.
using Stage = std::function<void(memory::Batch* batch,
                                 sim::TrafficStats* traffic,
                                 const codegen::Backend& backend)>;

/// Packet routing policies of the HetExchange router (§4.2).
enum class RoutingPolicy {
  kLoadAware,      // earliest-finishing consumer, transfer-aware
  kLocalityAware,  // prefer consumers local to the packet's memory node
  kHashBased,      // packet index modulo consumer count
};

const char* RoutingPolicyName(RoutingPolicy p);

/// Pipeline breaker at the end of a pipeline. Consume() runs per packet on
/// the worker that produced it; Finish() merges worker-local state once.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void Consume(int worker, memory::Batch&& batch,
                       sim::TrafficStats* traffic,
                       const codegen::Backend& backend) = 0;
  virtual void Finish(sim::TrafficStats* traffic) { (void)traffic; }
};

/// One pipeline of a broken-down heterogeneity-aware plan (§3): a packet
/// source, a chain of fused stages, and a sink, executed at some degree of
/// parallelism on one or more devices. The pipeline owns its sink, and a
/// run consumes its input packets. Engine::BeginPlan compiles one per plan
/// node for every run of a QueryPlan.
struct Pipeline {
  std::string name;
  std::vector<memory::Batch> inputs;
  /// nominal/actual data ratio: all recorded traffic is multiplied by this
  /// before costing, so paper-scale experiments can run on sampled data.
  double scale = 1.0;
  std::vector<Stage> stages;
  std::unique_ptr<Sink> sink;
  RoutingPolicy policy = RoutingPolicy::kLoadAware;
  /// Interconnect amplification for packets that cross devices. Plans whose
  /// build sides are hash-partitioned across multiple GPUs (instead of
  /// co-partitioned up front by the hardware-conscious co-processing join)
  /// must shuffle each probe packet between the devices at every join —
  /// §6.4 attributes Q5's hybrid efficiency loss to exactly this shuffle.
  double wire_amplification = 1.0;
  /// DBMS C execution model: vector-at-a-time — every stage boundary
  /// materializes a (cache-resident) vector, adding per-tuple load/store
  /// and interpretation work (§2.2, §6.4's Q1 discussion).
  bool vector_at_a_time = false;
  /// DBMS G execution model: operator-at-a-time — every stage boundary
  /// materializes its full output in device memory and re-reads it.
  bool operator_at_a_time = false;
};

/// Execution record of one pipeline run.
struct ExecStats {
  sim::SimTime start = 0;
  sim::SimTime finish = 0;
  uint64_t packets = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  sim::TrafficStats traffic;  // nominal-scale aggregate

  // ---- mem-move overlap accounting (both execution modes fill these) ----
  /// Packets that crossed memory nodes to reach their worker.
  uint64_t mem_moves = 0;
  /// Wire bytes those crossings moved (nominal scale, amplification
  /// included).
  uint64_t moved_bytes = 0;
  /// Total per-packet transfer wall time (issue to arrival, queueing
  /// included).
  sim::SimTime transfer_busy_s = 0;
  /// Portion of transfer_busy_s the consuming worker actually waited on
  /// (the packet arrived after the worker went idle). The rest was hidden
  /// behind compute or other transfers.
  sim::SimTime transfer_exposed_s = 0;
  /// Compute seconds consumed per device id — the currency the multi-query
  /// scheduler accounts fairness in (a query's "device share" is its busy
  /// seconds over the schedule's total).
  std::map<int, sim::SimTime> device_busy_s;
  /// Largest number of staged-but-unconsumed transfer bytes any worker
  /// held at once (async mode; the prefetch depth bounds it in packets).
  uint64_t peak_staged_bytes = 0;

  sim::SimTime transfer_hidden_s() const {
    return transfer_busy_s - transfer_exposed_s;
  }
  sim::SimTime seconds() const { return finish - start; }
};

}  // namespace hape::engine

#endif  // HAPE_ENGINE_PIPELINE_H_
