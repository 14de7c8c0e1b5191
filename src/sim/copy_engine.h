#ifndef HAPE_SIM_COPY_ENGINE_H_
#define HAPE_SIM_COPY_ENGINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/spec.h"

namespace hape::sim {

/// A busy-interval timeline: disjoint, sorted reservations over simulated
/// time. Two reservation flavors:
///   - ReserveTail: legacy busy-until semantics (start no earlier than the
///     last reservation's finish) — the exact arithmetic the synchronous
///     executor has always used, kept bit-identical.
///   - Reserve: gap-filling — claim the earliest idle window of the
///     requested duration, falling back to the tail. The async executor
///     uses this so DMA traffic can use link idle time that host-order
///     tail reservations would strand (e.g. PCIe sitting idle during a
///     build phase while the broadcast is only issued afterwards).
///
/// The gap search relies on one invariant: the windows are disjoint and
/// sorted by start, with durations >= 0, so their finishes are sorted
/// too. A probe binary-searches the first window that ends after
/// `earliest` and scans forward from there until a gap fits: O(log n)
/// plus the windows it steps over, not O(n) from the first window. The
/// list grows with the link's idle gaps, not its transfer count, and
/// nothing prunes it before Reset: a 1k-request serving replay leaves
/// thousands of windows on one timeline.
class Timeline {
 public:
  struct Window {
    SimTime start = 0;
    SimTime finish = 0;
  };

  /// Tail reservation: start = max(earliest, tail()). Never fills gaps.
  Window ReserveTail(SimTime earliest, SimTime dur);

  /// Gap-filling reservation: the earliest window of length `dur` starting
  /// no earlier than `earliest` that does not overlap any existing
  /// reservation (existing reservations are never moved).
  Window Reserve(SimTime earliest, SimTime dur);

  /// Start of the earliest such window, without reserving it.
  SimTime ProbeStart(SimTime earliest, SimTime dur) const;

  /// Time after which the timeline is entirely free (busy-until).
  SimTime tail() const { return tail_; }
  SimTime busy_time() const { return busy_time_; }

  void Reset();

 private:
  void Insert(const Window& w);

  /// Disjoint, sorted by start. Touching windows coalesce on insert, so
  /// back-to-back traffic (the synchronous executor's common case) keeps
  /// a single window per busy period: the list tracks the link's idle
  /// structure, not its transfer count.
  std::vector<Window> busy_;
  SimTime tail_ = 0;
  SimTime busy_time_ = 0;
};

/// The modeled DMA engine of one memory node: the queue that carries out
/// asynchronous mem-moves *originating* at that node, decoupled from the
/// node's compute devices. A transfer occupies one of `channels` engine
/// channels for its first-hop duration (the transaction that drains the
/// source memory); with more in-flight copies than channels, issues
/// serialize — the "DMA queue" backpressure a real copy engine imposes.
/// Synchronous execution never touches copy engines (exact-compat).
///
/// Multi-query arbitration: issues carry a `stream` tag (one stream per
/// scheduled query) for per-stream accounting, and an optional `max_lanes`
/// quota. With a quota q, stream s may only use the deterministic lane
/// stripe {(s * q + k) mod channels : k < q}, so one query's DMA burst
/// cannot occupy every channel and starve another query's first copy — the
/// channel arbitration the fair-share scheduler relies on. Quota 0 (the
/// default, and every single-query path) keeps the legacy any-lane policy.
class CopyEngine {
 public:
  explicit CopyEngine(int channels = 4) : channels_(channels) {}

  /// Per-stream issue accounting.
  struct StreamStats {
    uint64_t copies = 0;
    uint64_t bytes = 0;
    SimTime busy = 0;
  };

  /// Which lane an Issue landed on and the exact window it reserved —
  /// observability only (trace attribution); no scheduling decision may
  /// read it back.
  struct IssueInfo {
    int lane = -1;
    SimTime start = 0;
    SimTime finish = 0;
  };

  /// Earliest time a copy of first-hop duration `dur` may issue at or
  /// after `earliest`, and reserve the chosen channel for it. The channel
  /// is picked gap-filling among the lanes `stream` may use under
  /// `max_lanes` (0 = all of them); earliest start wins, lowest lane
  /// breaks ties, so the schedule is deterministic. `info`, when
  /// non-null, receives the chosen lane and reserved window.
  SimTime Issue(SimTime earliest, SimTime dur, uint64_t bytes,
                int stream = 0, int max_lanes = 0,
                IssueInfo* info = nullptr);

  int channels() const { return channels_; }
  uint64_t total_bytes() const { return total_bytes_; }
  SimTime busy_time() const;
  uint64_t copies() const { return copies_; }
  /// Stats of one stream (zeroes for a stream that never issued).
  StreamStats stream_stats(int stream) const;

  void Reset();

 private:
  int channels_;
  std::vector<Timeline> lanes_;  // grown lazily up to channels_
  uint64_t total_bytes_ = 0;
  uint64_t copies_ = 0;
  std::map<int, StreamStats> streams_;
};

}  // namespace hape::sim

#endif  // HAPE_SIM_COPY_ENGINE_H_
