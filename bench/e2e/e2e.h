#ifndef HAPE_BENCH_E2E_E2E_H_
#define HAPE_BENCH_E2E_E2E_H_

// Shared plumbing of the end-to-end benchmark program: run options, the
// result being assembled, host clocks and the order statistics every
// workload reports. The workloads live in serve_workloads.cc and
// tpch_workload.cc; e2e.cc parses the command line and prints the result.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "codegen/kernels.h"
#include "obs/metrics.h"

namespace hape::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 17;
  /// Host seconds the timed phase keeps repeating reps for (after set-up
  /// and the warm-up rep).
  double seconds = 10;
  /// false: the measured run (tracing off, end-to-end metrics).
  /// true: the traced run (per-layer metrics, spans written to spans_out).
  bool trace = false;
  std::string spans_out;
};

/// Everything one workload process reports. `metrics` ends up holding
/// exactly the names of one BENCHMARK.json section (end_to_end when
/// untraced, per_layer when traced); `detail` holds supporting numbers
/// (quartiles, sample counts, outcome totals) as preformatted JSON values.
struct Report {
  uint64_t attempted = 0;
  /// Requests that ended in a Status error or a wrong answer.
  uint64_t failed = 0;
  /// Failed correctness checks (wrong answers, non-deterministic
  /// simulated outcomes, schedule mismatches). Any entry fails the run.
  std::vector<std::string> violations;
  /// Raw values as measured; host timings are scaled by `slowdown` only
  /// when written out.
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> detail;
  /// MachineSpeed::slowdown() of the run.
  double slowdown = 1;

  /// Record a metric; `name` must be listed in e2e.cc's metric tables.
  void Set(const std::string& name, double value);
  void Detail(const std::string& key, double value);
  void Detail(const std::string& key, const std::vector<double>& values);
  void Fail(std::string what) { violations.push_back(std::move(what)); }
};

using HostClock = std::chrono::steady_clock;

inline double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/// Host-time spans recorded around calls into the program's layers, kept
/// in memory and written once at the end of the traced run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int request;  ///< query id the call served; -1 for whole-run spans
    double start_s;
    double end_s;
  };

  /// Run `fn`, recording it as span `name` of `request`.
  template <typename Fn>
  decltype(auto) Time(const char* name, int request, Fn&& fn) {
    const double start = Now();
    struct Close {
      SpanLog* log;
      const char* name;
      int request;
      double start;
      ~Close() { log->spans_.push_back({name, request, start, log->Now()}); }
    } close{this, name, request, start};
    return fn();
  }

  /// Summed duration of every span called `name`.
  double Total(const std::string& name) const;
  size_t Count(const std::string& name) const;
  /// Chrome trace-event JSON: one track per request, loadable next to the
  /// engine's simulated-time trace in Perfetto.
  bool WriteChromeJson(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(HostClock::now() - origin_).count();
  }

  HostClock::time_point origin_ = HostClock::now();
  std::vector<Span> spans_;
};

/// How fast the machine runs right now. A shared machine drifts by 20%
/// within minutes as its other tenants come and go, slowing every host
/// timing alike. Sample() times a fixed mix of the kinds of work the
/// engine does (hashing, random and sequential memory reads, sorting,
/// small allocations) in code of the benchmark's own, which no change to
/// the library can speed up. slowdown() is the run's median sample over
/// the sample's time on the machine the baseline was measured on; host
/// timings are reported divided by it, as if measured on that machine.
class MachineSpeed {
 public:
  MachineSpeed();
  void Sample();
  double slowdown() const;
  const std::vector<double>& samples_s() const { return samples_s_; }

 private:
  std::vector<uint64_t> table_;
  std::vector<double> samples_s_;
};

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// True when `got` holds the same groups as `ref` and every aggregate is
/// within relative `tol` (the rule the TPC-H query tests use).
using Groups = std::map<int64_t, std::vector<double>>;
bool GroupsNear(const Groups& ref, const Groups& got, double tol);
/// True when `got` equals `ref` bit for bit.
bool GroupsIdentical(const Groups& ref, const Groups& got);

/// Per-layer metric values of one traced rep, keyed by metric name.
using LayerSample = std::map<std::string, double>;
/// Report every metric of `samples` as its median over the reps.
void SetMedians(const std::vector<LayerSample>& samples, Report* report);

/// Value of registry counter `name`; 0 when it was never bumped.
double CounterValue(const obs::MetricsRegistry& m, const char* name);

/// Kernel counters accumulated between snapshots `a` and `b`.
codegen::KernelCounterSnapshot KernelDelta(
    const codegen::KernelCounterSnapshot& a,
    const codegen::KernelCounterSnapshot& b);
/// The kernels.* per-layer metrics of a rep whose runs took `run_s` host
/// seconds and did `k` kernel work.
LayerSample KernelMetrics(const codegen::KernelCounterSnapshot& k,
                          double run_s);

void RunServeWorkload(const Options& opts, Report* report);
void RunTpchWorkload(const Options& opts, Report* report);

}  // namespace hape::e2e

#endif  // HAPE_BENCH_E2E_E2E_H_
