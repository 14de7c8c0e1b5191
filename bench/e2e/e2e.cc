// hape_e2e: one workload of the end-to-end benchmark per process.
//
//   hape_e2e --workload <serve_steady|serve_nocache|serve_long|tpch_olap>
//            [--seed N] [--seconds S] [--trace 0|1] [--spans-out PATH]
//
// Prints progress to stderr and one JSON object on the last line of
// stdout: the result keys (correct, attempted, failed, metrics) plus
// `detail` and `env`. Exits 1 when any correctness check failed, 2 on a
// usage error. bench/e2e/run.py builds this binary and drives it.

#include "e2e.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "codegen/kernels.h"
#include "common/hash.h"
#include "common/json.h"

namespace hape::e2e {
namespace {

/// Host timings are reported at the reference machine's speed (see
/// MachineSpeed): a host time is divided by the run's slowdown, a host
/// rate multiplied by it. Counts and simulated values are left alone.
enum Scaling { kOther, kHostTime, kHostRate };

struct MetricDef {
  const char* name;
  const char* unit;
  Scaling scaling;
};

/// The metric sections of BENCHMARK.json, with their units; run.py checks
/// that the two agree. Every workload reports every end-to-end metric.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", kHostTime},
    {"host_qps", "1/s", kHostRate},
    {"submit_us_p50", "us", kHostTime},
    {"peak_rss_mb", "MB", kOther},
    {"sim_latency_p95_s", "s", kOther},
    {"deadline_met_rate", "fraction", kOther},
};

/// Per-layer metrics of the traced run. A layer a workload never calls
/// (the plan cache under tpch_olap, say) reports 0.
constexpr MetricDef kPerLayer[] = {
    {"setup.prepare_tpch_s", "s", kHostTime},
    {"setup.generate_workload_s", "s", kHostTime},
    {"setup.warmup_s", "s", kHostTime},
    {"queries.build_plan_s", "s", kHostTime},
    {"serve.submit_s", "s", kHostTime},
    {"serve.cache_lookup_s", "s", kHostTime},
    {"serve.cache_hit_rate", "fraction", kOther},
    {"serve.cache_evictions", "count", kOther},
    {"serve.submit_us_p99", "us", kHostTime},
    {"plan_json.fingerprint_s", "s", kHostTime},
    {"plan_json.load_s", "s", kHostTime},
    {"plan_json.load_calls", "count", kOther},
    {"plan_json.load_bytes", "bytes", kOther},
    {"plan_json.dump_s", "s", kHostTime},
    {"opt.optimize_s", "s", kHostTime},
    {"opt.optimize_calls", "count", kOther},
    {"lint.lint_s", "s", kHostTime},
    {"lint.findings", "count", kOther},
    {"engine.submit_s", "s", kHostTime},
    {"engine.run_s", "s", kHostTime},
    {"engine.pipelines", "count", kOther},
    {"engine.packets", "count", kOther},
    {"engine.run_us_per_pipeline", "us", kHostTime},
    {"scheduler.admissions", "count", kOther},
    {"scheduler.preemptions", "count", kOther},
    {"scheduler.shed", "count", kOther},
    {"scheduler.aging_promotions", "count", kOther},
    {"kernels.filter_rows", "count", kOther},
    {"kernels.hashed_keys", "count", kOther},
    {"kernels.probed_keys", "count", kOther},
    {"kernels.bulk_inserts", "count", kOther},
    {"kernels.hash_cache_hit_rate", "fraction", kOther},
    {"kernels.rows_per_host_s", "1/s", kHostRate},
    {"sim.moved_bytes", "bytes", kOther},
    {"sim.transfer_busy_s", "s", kOther},
    {"sim.transfer_exposed_s", "s", kOther},
    {"sim.broadcast_bytes", "bytes", kOther},
    {"sim.peak_resident_bytes", "bytes", kOther},
    {"sim.makespan_s", "s", kOther},
    {"sla.latency_p50_s", "s", kOther},
    {"sla.deadline_miss_rate", "fraction", kOther},
    {"sla.tier0_latency_p90_s", "s", kOther},
    {"sla.capacity_qps", "1/s", kOther},
    {"obs.trace_overhead_s", "s", kHostTime},
    {"obs.dump_trace_s", "s", kHostTime},
    {"obs.trace_events", "count", kOther},
};

const MetricDef* FindMetric(const std::string& name) {
  for (const MetricDef& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  for (const MetricDef& m : kPerLayer) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

/// Host seconds of one MachineSpeed::Sample() on the 4-vCPU Xeon VM the
/// baseline was measured on, in a quiet period.
constexpr double kReferenceSampleS = 0.03;
/// 64 MiB of table: far past any last-level cache.
constexpr size_t kSpeedTableWords = size_t{1} << 23;

}  // namespace

MachineSpeed::MachineSpeed() : table_(kSpeedTableWords) {
  for (size_t i = 0; i < table_.size(); ++i) table_[i] = HashMurmur64(i);
  Sample();  // faults the table in; not a measurement
  samples_s_.clear();
}

void MachineSpeed::Sample() {
  const auto t0 = HostClock::now();
  uint64_t sum = 0;
  // Independent random reads, like hash probes.
  const uint64_t mask = table_.size() - 1;
  for (uint64_t i = 0; i < 400000; ++i) sum += table_[HashMurmur64(i) & mask];
  // A sequential scan.
  for (uint64_t v : table_) sum += v;
  // Branchy compute on cache-resident data.
  std::vector<uint64_t> keys(table_.begin(), table_.begin() + 200000);
  std::sort(keys.begin(), keys.end());
  sum += keys[keys.size() / 2];
  // Many small allocations, like building and parsing plan documents.
  std::map<uint64_t, std::string> docs;
  for (uint64_t i = 0; i < 20000; ++i) {
    docs.emplace(HashMurmur64(i), std::to_string(sum + i));
  }
  sum += docs.begin()->second.size();
  samples_s_.push_back(SecondsSince(t0));
  table_[sum & mask] ^= 1;  // keeps every step observable
}

double MachineSpeed::slowdown() const {
  return samples_s_.empty() ? 1.0 : Median(samples_s_) / kReferenceSampleS;
}

void Report::Set(const std::string& name, double value) {
  HAPE_CHECK(FindMetric(name) != nullptr) << "unlisted metric " << name;
  metrics[name] = value;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool GroupsNear(const Groups& ref, const Groups& got, double tol) {
  if (ref.size() != got.size()) return false;
  for (const auto& [key, vals] : ref) {
    auto it = got.find(key);
    if (it == got.end() || it->second.size() != vals.size()) return false;
    for (size_t i = 0; i < vals.size(); ++i) {
      const double scale = std::abs(vals[i]) + 1;
      if (!(std::abs(it->second[i] / scale - vals[i] / scale) <= tol)) {
        return false;
      }
    }
  }
  return true;
}

bool GroupsIdentical(const Groups& ref, const Groups& got) {
  if (ref.size() != got.size()) return false;
  auto g = got.begin();
  for (const auto& [key, vals] : ref) {
    if (g->first != key || g->second.size() != vals.size()) return false;
    for (size_t i = 0; i < vals.size(); ++i) {
      if (std::bit_cast<uint64_t>(vals[i]) !=
          std::bit_cast<uint64_t>(g->second[i])) {
        return false;
      }
    }
    ++g;
  }
  return true;
}

void SetMedians(const std::vector<LayerSample>& samples, Report* report) {
  std::map<std::string, std::vector<double>> values;
  for (const LayerSample& s : samples) {
    for (const auto& [name, v] : s) values[name].push_back(v);
  }
  for (const auto& [name, v] : values) report->Set(name, Median(v));
}

double CounterValue(const obs::MetricsRegistry& m, const char* name) {
  const obs::Counter* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

codegen::KernelCounterSnapshot KernelDelta(
    const codegen::KernelCounterSnapshot& a,
    const codegen::KernelCounterSnapshot& b) {
  codegen::KernelCounterSnapshot d;
  d.filter_rows = b.filter_rows - a.filter_rows;
  d.hashed_keys = b.hashed_keys - a.hashed_keys;
  d.probed_keys = b.probed_keys - a.probed_keys;
  d.bulk_inserts = b.bulk_inserts - a.bulk_inserts;
  d.hash_cache_hits = b.hash_cache_hits - a.hash_cache_hits;
  d.hash_cache_misses = b.hash_cache_misses - a.hash_cache_misses;
  d.parallel_packets = b.parallel_packets - a.parallel_packets;
  return d;
}

LayerSample KernelMetrics(const codegen::KernelCounterSnapshot& k,
                          double run_s) {
  const uint64_t lookups = k.hash_cache_hits + k.hash_cache_misses;
  return {
      {"kernels.filter_rows", static_cast<double>(k.filter_rows)},
      {"kernels.hashed_keys", static_cast<double>(k.hashed_keys)},
      {"kernels.probed_keys", static_cast<double>(k.probed_keys)},
      {"kernels.bulk_inserts", static_cast<double>(k.bulk_inserts)},
      {"kernels.hash_cache_hit_rate",
       lookups == 0 ? 0
                    : static_cast<double>(k.hash_cache_hits) /
                          static_cast<double>(lookups)},
      {"kernels.rows_per_host_s",
       run_s > 0 ? static_cast<double>(k.filter_rows) / run_s : 0},
  };
}

void Report::Detail(const std::string& key, double value) {
  JsonWriter w;
  w.Double(value);
  detail.emplace_back(key, w.str());
}

void Report::Detail(const std::string& key,
                    const std::vector<double>& values) {
  JsonWriter w;
  w.BeginArray();
  for (double v : values) w.Double(v);
  w.EndArray();
  detail.emplace_back(key, w.str());
}

double SpanLog::Total(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_s - s.start_s;
  }
  return total;
}

size_t SpanLog::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.Int(0);
    w.Key("tid");
    w.Int(s.request);
    w.Key("ts");
    w.Double(s.start_s * 1e6);
    w.Key("dur");
    w.Double((s.end_s - s.start_s) * 1e6);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::ofstream out(path);
  out << w.str() << "\n";
  return static_cast<bool>(out);
}

namespace {

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

void WriteResult(const Options& opts, const Report& r, JsonWriter* w) {
  w->BeginObject();
  w->Key("correct");
  w->Bool(r.violations.empty());
  w->Key("attempted");
  w->Uint(r.attempted);
  w->Key("failed");
  w->Uint(r.failed);
  w->Key("metrics");
  w->BeginObject();
  for (const auto& [name, value] : r.metrics) {
    const MetricDef& m = *FindMetric(name);
    w->Key(name);
    w->BeginObject();
    w->Key("value");
    w->Double(m.scaling == kHostTime   ? value / r.slowdown
              : m.scaling == kHostRate ? value * r.slowdown
                                       : value);
    w->Key("unit");
    w->String(m.unit);
    w->EndObject();
  }
  w->EndObject();
  w->Key("violations");
  w->BeginArray();
  for (const std::string& v : r.violations) w->String(v);
  w->EndArray();
  w->Key("detail");
  w->BeginObject();
  for (const auto& [key, json] : r.detail) {
    w->Key(key);
    w->Raw(json);
  }
  w->EndObject();
  w->Key("env");
  w->BeginObject();
  w->Key("workload");
  w->String(opts.workload);
  w->Key("seed");
  w->Uint(opts.seed);
  w->Key("seconds");
  w->Double(opts.seconds);
  w->Key("trace");
  w->Bool(opts.trace);
  w->Key("nproc");
  w->Int(CpuCount());
  w->Key("cpu_model");
  w->String(CpuModel());
  w->Key("avx2");
  w->Bool(codegen::Avx2Available());
  w->Key("build_type");
  w->String(HAPE_E2E_BUILD_TYPE);
  w->Key("data_plane");
  w->String(codegen::VectorizedPlane() ? "vectorized" : "scalar");
  w->Key("packet_threads");
  w->Int(codegen::DataPlane().packet_threads);
  w->EndObject();
  w->EndObject();
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "hape_e2e: %s\nusage: hape_e2e --workload "
               "<serve_steady|serve_nocache|serve_long|tpch_olap> [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans-out PATH]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace hape::e2e

int main(int argc, char** argv) {
  using namespace hape::e2e;  // NOLINT
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opts.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      opts.trace = val[0] == '1';
    } else if (arg == "--spans-out") {
      opts.spans_out = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  // Pin the data plane so neither HAPE_DATA_PLANE nor HAPE_PACKET_THREADS
  // in the environment can move a number.
  hape::codegen::SetDataPlane(
      {hape::codegen::KernelMode::kVectorized, /*packet_threads=*/1});

  Report report;
  if (opts.workload == "tpch_olap") {
    RunTpchWorkload(opts, &report);
  } else if (opts.workload == "serve_steady" ||
             opts.workload == "serve_nocache" ||
             opts.workload == "serve_long") {
    RunServeWorkload(opts, &report);
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  if (opts.trace) {
    for (const MetricDef& m : kPerLayer) report.metrics.try_emplace(m.name, 0);
  } else {
    for (const MetricDef& m : kEndToEnd) {
      HAPE_CHECK(report.metrics.count(m.name) == 1)
          << opts.workload << " did not report " << m.name;
    }
  }
  for (const std::string& v : report.violations) {
    std::fprintf(stderr, "hape_e2e: CHECK FAILED: %s\n", v.c_str());
  }
  hape::JsonWriter w;
  WriteResult(opts, report, &w);
  std::printf("%s\n", w.str().c_str());
  return report.violations.empty() ? 0 : 1;
}
