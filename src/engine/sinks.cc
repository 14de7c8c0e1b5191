#include "engine/sinks.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "expr/eval.h"
#include "memory/gather.h"

namespace hape::engine {

// ---- CollectSink ------------------------------------------------------------

void CollectSink::Consume(int worker, memory::Batch&& batch,
                          sim::TrafficStats* traffic,
                          const codegen::Backend& backend) {
  (void)worker;
  (void)backend;
  traffic->dram_seq_write_bytes += batch.byte_size();
  // Result packets are stored dense: gather each selected column once.
  for (int c = 0; c < batch.num_columns(); ++c) {
    if (const memory::Selection* sel = batch.selection(c)) {
      batch.columns[c] = memory::Take(*batch.columns[c], *sel);
    }
  }
  batch.selections.clear();
  batches_->push_back(std::move(batch));
}

uint64_t TotalRows(const std::vector<memory::Batch>& batches) {
  uint64_t n = 0;
  for (const auto& b : batches) n += b.rows;
  return n;
}

// ---- BuildSink --------------------------------------------------------------

BuildSink::BuildSink(JoinStatePtr state, expr::ExprPtr key_expr,
                     std::vector<int> payload_cols)
    : state_(std::move(state)),
      key_expr_(std::move(key_expr)),
      payload_cols_(std::move(payload_cols)) {}

void BuildSink::Consume(int worker, memory::Batch&& batch,
                        sim::TrafficStats* traffic,
                        const codegen::Backend& backend) {
  (void)worker;
  // An emptied packet may have left its stage chain before later stages
  // appended the columns the key/payload reference — and contributes no
  // tuples or traffic anyway.
  if (batch.rows == 0) return;
  if (!payload_initialized_) {
    for (int c : payload_cols_) {
      state_->payload.columns.push_back(
          std::make_shared<storage::Column>(batch.columns[c]->type()));
    }
    payload_initialized_ = true;
  }
  std::vector<int64_t> scratch;
  const std::span<const int64_t> keys =
      expr::Eval::IntsInPlace(*key_expr_, batch, &scratch);
  keys_.insert(keys_.end(), keys.begin(), keys.end());
  if (codegen::VectorizedPlane()) {
    for (size_t c = 0; c < payload_cols_.size(); ++c) {
      state_->payload.columns[c]->AppendColumn(
          *batch.columns[payload_cols_[c]], batch.selection(payload_cols_[c]));
    }
  } else {
    for (size_t c = 0; c < payload_cols_.size(); ++c) {
      const storage::Column& src = *batch.columns[payload_cols_[c]];
      const memory::Selection* sel = batch.selection(payload_cols_[c]);
      storage::Column& dst = *state_->payload.columns[c];
      for (size_t i = 0; i < batch.rows; ++i) {
        if (src.type() == storage::DataType::kFloat64) {
          dst.AppendDouble(src.GetDouble(memory::Row(sel, i)));
        } else {
          dst.AppendInt(src.GetInt(memory::Row(sel, i)));
        }
      }
    }
  }
  state_->payload.rows += batch.rows;

  // Shared-table build: node write + chain-head CAS per tuple; random when
  // the table exceeds the caches (HyPer-style parallel build, §2.2).
  traffic->tuple_ops += batch.rows * (key_expr_->OpCount() + 4);
  traffic->atomics += batch.rows;
  if (backend.device_type() == sim::DeviceType::kGpu ||
      state_->NominalBytes() > sim::CpuSpec{}.l3_bytes / 2) {
    traffic->dram_rand_accesses += batch.rows * 2;
  }
}

void BuildSink::Finish(sim::TrafficStats* traffic) {
  (void)traffic;
  const size_t buckets = state_->ht.num_buckets();
  if (codegen::VectorizedPlane()) {
    const size_t n = keys_.size();
    const auto hashes = std::make_unique_for_overwrite<uint64_t[]>(n);
    codegen::kernels::HashKeys(keys_.data(), n, hashes.get());
    state_->ht =
        codegen::kernels::BuildBulk(buckets, keys_.data(), hashes.get(), n);
  } else {
    state_->ht = ops::ChainedHashTable(buckets, keys_);
  }
  keys_ = {};
}

// ---- HashAggSink ------------------------------------------------------------

HashAggSink::HashAggSink(expr::ExprPtr key_expr, std::vector<AggDef> aggs,
                         std::shared_ptr<AggGroups> result)
    : key_expr_(std::move(key_expr)),
      aggs_(std::move(aggs)),
      result_(std::move(result)) {
  HAPE_CHECK(!aggs_.empty());
}

void HashAggSink::Consume(int worker, memory::Batch&& batch,
                          sim::TrafficStats* traffic,
                          const codegen::Backend& backend) {
  (void)backend;
  // Empty for the single global group (and for an empty packet).
  std::vector<int64_t> scratch;
  std::span<const int64_t> keys;
  if (key_expr_ != nullptr && batch.rows > 0) {
    keys = expr::Eval::IntsInPlace(*key_expr_, batch, &scratch);
  }
  // Evaluate aggregate arguments vectorized once per packet.
  std::vector<std::vector<double>> args(aggs_.size());
  uint64_t ops = key_expr_ ? key_expr_->OpCount() + 2 : 1;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].arg != nullptr) {
      args[a] = expr::Eval::Doubles(*aggs_[a].arg, batch);
      ops += aggs_[a].arg->OpCount() + 1;
    } else {
      ops += 1;
    }
  }
  traffic->tuple_ops += batch.rows * ops;

  if (codegen::VectorizedPlane()) {
    AccumulateVectorized(worker, batch.rows,
                         keys.empty() ? nullptr : keys.data(), args);
    return;
  }

  auto& local = partials_[worker];
  for (size_t i = 0; i < batch.rows; ++i) {
    const int64_t k = keys.empty() ? 0 : keys[i];
    auto [it, inserted] = local.try_emplace(k);
    if (inserted) {
      it->second.assign(aggs_.size(), 0.0);
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].op == AggOp::kMin) {
          it->second[a] = std::numeric_limits<double>::infinity();
        } else if (aggs_[a].op == AggOp::kMax) {
          it->second[a] = -std::numeric_limits<double>::infinity();
        }
      }
    }
    auto& acc = it->second;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].op) {
        case AggOp::kSum:
          acc[a] += args[a][i];
          break;
        case AggOp::kCount:
          acc[a] += 1;
          break;
        case AggOp::kMin:
          acc[a] = std::min(acc[a], args[a][i]);
          break;
        case AggOp::kMax:
          acc[a] = std::max(acc[a], args[a][i]);
          break;
      }
    }
  }
}

void HashAggSink::AccumulateVectorized(
    int worker, size_t rows, const int64_t* keys,
    const std::vector<std::vector<double>>& args) {
  if (rows == 0) return;
  const size_t stride = aggs_.size();
  auto it = vec_partials_.find(worker);
  if (it == vec_partials_.end()) {
    it = vec_partials_.try_emplace(worker).first;
  }
  VecPartial& p = it->second;

  // Pass 1: resolve every row to a dense group slot (first-seen order),
  // appending initialized accumulator cells for fresh groups.
  std::vector<uint32_t> slots(rows);
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t slot = p.index.SlotOf(keys != nullptr ? keys[i] : 0);
    if (static_cast<size_t>(slot) * stride == p.accs.size()) {
      for (size_t a = 0; a < stride; ++a) {
        double init = 0.0;
        if (aggs_[a].op == AggOp::kMin) {
          init = std::numeric_limits<double>::infinity();
        } else if (aggs_[a].op == AggOp::kMax) {
          init = -std::numeric_limits<double>::infinity();
        }
        p.accs.push_back(init);
      }
    }
    slots[i] = slot;
  }

  // Pass 2: one tight loop per aggregate. For a fixed (group, agg) cell
  // updates arrive in ascending row order — exactly the order the scalar
  // per-row loop applies them — so the resulting doubles are bit-identical.
  for (size_t a = 0; a < stride; ++a) {
    double* accs = p.accs.data();
    switch (aggs_[a].op) {
      case AggOp::kSum: {
        const double* v = args[a].data();
        for (size_t i = 0; i < rows; ++i) {
          accs[slots[i] * stride + a] += v[i];
        }
        break;
      }
      case AggOp::kCount:
        for (size_t i = 0; i < rows; ++i) {
          accs[slots[i] * stride + a] += 1;
        }
        break;
      case AggOp::kMin: {
        const double* v = args[a].data();
        for (size_t i = 0; i < rows; ++i) {
          double& acc = accs[slots[i] * stride + a];
          acc = std::min(acc, v[i]);
        }
        break;
      }
      case AggOp::kMax: {
        const double* v = args[a].data();
        for (size_t i = 0; i < rows; ++i) {
          double& acc = accs[slots[i] * stride + a];
          acc = std::max(acc, v[i]);
        }
        break;
      }
    }
  }
}

void HashAggSink::Finish(sim::TrafficStats* traffic) {
  uint64_t merged = 0;
  // Merge one worker's partial group into the result. Each worker contributes
  // a key at most once, so per-(key, agg) the merge applies one update per
  // worker in ascending-worker order on both planes — the iteration order
  // of groups *within* a worker cannot affect any merged double.
  auto merge_group = [&](int64_t k, const double* acc) {
    ++merged;
    auto [it, inserted] = result_->try_emplace(k);
    if (inserted) {
      it->second.assign(acc, acc + aggs_.size());
      return;
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].op) {
        case AggOp::kSum:
        case AggOp::kCount:
          it->second[a] += acc[a];
          break;
        case AggOp::kMin:
          it->second[a] = std::min(it->second[a], acc[a]);
          break;
        case AggOp::kMax:
          it->second[a] = std::max(it->second[a], acc[a]);
          break;
      }
    }
  };
  for (auto& [worker, local] : partials_) {
    (void)worker;
    for (auto& [k, acc] : local) merge_group(k, acc.data());
  }
  for (auto& [worker, p] : vec_partials_) {
    (void)worker;
    const std::vector<int64_t>& group_keys = p.index.keys();
    for (size_t s = 0; s < group_keys.size(); ++s) {
      merge_group(group_keys[s], p.accs.data() + s * aggs_.size());
    }
  }
  traffic->tuple_ops += merged * aggs_.size() * 2;
  partials_.clear();
  vec_partials_.clear();
}

}  // namespace hape::engine
