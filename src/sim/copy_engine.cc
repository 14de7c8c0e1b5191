#include "sim/copy_engine.h"

#include <algorithm>

#include "common/logging.h"

namespace hape::sim {

Timeline::Window Timeline::ReserveTail(SimTime earliest, SimTime dur) {
  const SimTime start = std::max(earliest, tail_);
  Window w{start, start + dur};
  Insert(w);
  return w;
}

SimTime Timeline::ProbeStart(SimTime earliest, SimTime dur) const {
  // A window that ends at or before `earliest` can neither hold the
  // candidate start nor move it, so the scan starts at the first window
  // that ends after it (finishes are sorted: see the class comment).
  auto it = std::partition_point(
      busy_.begin(), busy_.end(),
      [earliest](const Window& w) { return w.finish <= earliest; });
  SimTime candidate = earliest;
  for (; it != busy_.end(); ++it) {
    if (candidate + dur <= it->start) return candidate;
    candidate = std::max(candidate, it->finish);
  }
  return candidate;
}

Timeline::Window Timeline::Reserve(SimTime earliest, SimTime dur) {
  const SimTime start = ProbeStart(earliest, dur);
  Window w{start, start + dur};
  Insert(w);
  return w;
}

void Timeline::Insert(const Window& w) {
  busy_time_ += w.finish - w.start;
  tail_ = std::max(tail_, w.finish);
  auto it = std::lower_bound(
      busy_.begin(), busy_.end(), w,
      [](const Window& a, const Window& b) { return a.start < b.start; });
  it = busy_.insert(it, w);
  // Coalesce with touching neighbours to keep the list compact.
  if (it != busy_.begin()) {
    auto prev = it - 1;
    if (prev->finish >= it->start) {
      prev->finish = std::max(prev->finish, it->finish);
      it = busy_.erase(it) - 1;
    }
  }
  if (it + 1 != busy_.end() && it->finish >= (it + 1)->start) {
    it->finish = std::max(it->finish, (it + 1)->finish);
    busy_.erase(it + 1);
  }
}

void Timeline::Reset() {
  busy_.clear();
  tail_ = 0;
  busy_time_ = 0;
}

SimTime CopyEngine::Issue(SimTime earliest, SimTime dur, uint64_t bytes,
                          int stream, int max_lanes, IssueInfo* info) {
  HAPE_CHECK(channels_ > 0);
  if (lanes_.empty()) lanes_.resize(channels_);
  // The allowed lanes: all of them without a quota, otherwise the stream's
  // stripe. The stripe offset spreads streams over disjoint (or minimally
  // overlapping) channel sets.
  const int quota =
      max_lanes <= 0 ? channels_ : std::min(max_lanes, channels_);
  const int offset =
      max_lanes <= 0 ? 0 : (stream * quota) % channels_;
  // The allowed channel that can issue earliest wins; lowest lane index
  // breaks ties so the schedule is deterministic.
  int best = -1;
  SimTime best_start = 0;
  for (int k = 0; k < quota; ++k) {
    const int c = (offset + k) % channels_;
    const SimTime s = lanes_[c].ProbeStart(earliest, dur);
    if (best < 0 || s < best_start || (s == best_start && c < best)) {
      best_start = s;
      best = c;
    }
  }
  // best_start opens a free window on the chosen lane, so the reservation
  // lands exactly there: its probe stops at the first window it visits.
  const Timeline::Window w = lanes_[best].Reserve(best_start, dur);
  if (info != nullptr) *info = IssueInfo{best, w.start, w.finish};
  total_bytes_ += bytes;
  ++copies_;
  StreamStats& ss = streams_[stream];
  ++ss.copies;
  ss.bytes += bytes;
  ss.busy += dur;
  return best_start;
}

CopyEngine::StreamStats CopyEngine::stream_stats(int stream) const {
  auto it = streams_.find(stream);
  return it == streams_.end() ? StreamStats{} : it->second;
}

SimTime CopyEngine::busy_time() const {
  SimTime t = 0;
  for (const Timeline& l : lanes_) t += l.busy_time();
  return t;
}

void CopyEngine::Reset() {
  for (Timeline& l : lanes_) l.Reset();
  total_bytes_ = 0;
  copies_ = 0;
  streams_.clear();
}

}  // namespace hape::sim
