#ifndef HAPE_OBS_METRICS_H_
#define HAPE_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hape {

class JsonWriter;

namespace obs {

/// Monotone accumulator (bytes moved, cache hits, admission waves...).
struct Counter {
  double value = 0.0;
  void Add(double v) { value += v; }
  void Increment() { value += 1.0; }
};

/// Last-written value plus its high-water mark (queue depths, staged
/// bytes, resident-set estimates).
struct Gauge {
  double value = 0.0;
  double high_water = 0.0;
  bool written = false;
  void Set(double v) {
    value = v;
    if (!written || v > high_water) high_water = v;
    written = true;
  }
};

/// Fixed-bound histogram: caller supplies upper bucket bounds at
/// registration; an implicit +inf bucket catches the tail. Tracks
/// count/sum/min/max alongside the bucket counts, enough to snapshot
/// queue-depth and latency distributions without storing samples.
struct Histogram {
  std::vector<double> bounds;    // ascending upper bounds
  std::vector<uint64_t> counts;  // bounds.size() + 1 buckets
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void Observe(double v);
};

/// Engine-wide registry of named counters/gauges/histograms. Components
/// (executor, scheduler, plan cache, query service) register or fetch
/// instruments by dotted name ("plan_cache.hits",
/// "interconnect.link0.bytes"); std::map storage keeps snapshots in a
/// deterministic name order. Accessors are get-or-create so callers
/// never need a registration phase.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  /// Creates the histogram with `bounds` on first use; later calls with
  /// the same name return the existing instrument unchanged.
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;

  void Clear();
  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Snapshot as a JSON object with "counters"/"gauges"/"histograms"
  /// members, written into an in-progress document.
  void WriteJson(JsonWriter* w) const;
  /// Snapshot as a standalone JSON document.
  std::string ToJson() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace obs
}  // namespace hape

#endif  // HAPE_OBS_METRICS_H_
