#include "obs/metrics.h"

#include "common/json.h"

namespace hape {
namespace obs {

void Histogram::Observe(double v) {
  if (counts.size() != bounds.size() + 1) counts.resize(bounds.size() + 1, 0);
  size_t b = 0;
  while (b < bounds.size() && v > bounds[b]) ++b;
  ++counts[b];
  if (count == 0 || v < min) min = v;
  if (count == 0 || v > max) max = v;
  ++count;
  sum += v;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  auto [it, inserted] = histograms_.try_emplace(name);
  if (inserted) {
    it->second.bounds = bounds;
    it->second.counts.assign(bounds.size() + 1, 0);
  }
  return &it->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("counters");
  w->BeginObject();
  for (const auto& [name, c] : counters_) {
    w->Key(name);
    w->Double(c.value);
  }
  w->EndObject();
  w->Key("gauges");
  w->BeginObject();
  for (const auto& [name, g] : gauges_) {
    w->Key(name);
    w->BeginObject();
    w->Key("value");
    w->Double(g.value);
    w->Key("high_water");
    w->Double(g.high_water);
    w->EndObject();
  }
  w->EndObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [name, h] : histograms_) {
    w->Key(name);
    w->BeginObject();
    w->Key("count");
    w->Uint(h.count);
    w->Key("sum");
    w->Double(h.sum);
    w->Key("min");
    w->Double(h.min);
    w->Key("max");
    w->Double(h.max);
    w->Key("bounds");
    w->BeginArray();
    for (double b : h.bounds) w->Double(b);
    w->EndArray();
    w->Key("buckets");
    w->BeginArray();
    for (uint64_t c : h.counts) w->Uint(c);
    w->EndArray();
    w->EndObject();
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  WriteJson(&w);
  return w.str();
}

}  // namespace obs
}  // namespace hape
