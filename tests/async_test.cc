// Event-driven async executor: overlap invariants, exact sync-mode compat,
// and determinism. The acceptance contract of the async engine:
//   - depth 0 reproduces the synchronous cost sequences bit-exactly;
//   - on transfer-bound hybrid topologies, depth >= 1 strictly lowers the
//     finish time of the broadcast-heavy joins (Q5/Q9) by overlapping
//     mem-moves, chunked broadcasts and probe-side staging with compute;
//   - results are byte-identical across depths and repeated runs, and
//     ExecStats are deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/stages.h"
#include "queries/tpch_queries.h"
#include "sim/copy_engine.h"
#include "storage/tpch.h"

namespace hape::queries {
namespace {

class AsyncExec : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new sim::Topology(sim::Topology::PaperServer());
    ctx_ = new TpchContext();
    ctx_->topo = topo_;
    ctx_->sf_actual = 0.01;
    ctx_->sf_nominal = 100.0;
    ASSERT_TRUE(PrepareTpch(ctx_).ok());
  }
  void SetUp() override {
    topo_->Reset();
    ctx_->partitioned_gpu_join = true;
    ctx_->plan_mode = PlanMode::kOptimized;
    ctx_->async = engine::AsyncOptions::Off();
  }

  QueryResult RunAtDepth(QueryFn fn, EngineConfig config, int depth) {
    topo_->Reset();
    ctx_->async = engine::AsyncOptions::Depth(depth);
    return fn(ctx_, config);
  }

  /// Byte-identical aggregate results (no tolerance: determinism, not
  /// accuracy, is under test).
  static void ExpectBitIdenticalGroups(const QueryResult& a,
                                       const QueryResult& b,
                                       const char* label) {
    ASSERT_EQ(a.groups.size(), b.groups.size()) << label;
    auto ita = a.groups.begin();
    auto itb = b.groups.begin();
    for (; ita != a.groups.end(); ++ita, ++itb) {
      ASSERT_EQ(ita->first, itb->first) << label;
      ASSERT_EQ(ita->second.size(), itb->second.size()) << label;
      EXPECT_EQ(0, std::memcmp(ita->second.data(), itb->second.data(),
                               ita->second.size() * sizeof(double)))
          << label << " group " << ita->first;
    }
  }

  static sim::Topology* topo_;
  static TpchContext* ctx_;
};
sim::Topology* AsyncExec::topo_ = nullptr;
TpchContext* AsyncExec::ctx_ = nullptr;

// ---- sim-layer primitives ---------------------------------------------------

TEST(Timeline, TailReservationMatchesBusyUntilSemantics) {
  sim::Timeline t;
  auto w1 = t.ReserveTail(0.0, 2.0);
  EXPECT_DOUBLE_EQ(w1.start, 0.0);
  EXPECT_DOUBLE_EQ(w1.finish, 2.0);
  auto w2 = t.ReserveTail(1.0, 3.0);  // starts at the tail, not at 1.0
  EXPECT_DOUBLE_EQ(w2.start, 2.0);
  EXPECT_DOUBLE_EQ(w2.finish, 5.0);
  EXPECT_DOUBLE_EQ(t.tail(), 5.0);
}

TEST(Timeline, GapReservationFillsIdleWindows) {
  sim::Timeline t;
  t.ReserveTail(0.0, 1.0);   // [0, 1)
  t.ReserveTail(4.0, 1.0);   // [4, 5)
  auto gap = t.Reserve(0.0, 2.0);  // fits in [1, 4)
  EXPECT_DOUBLE_EQ(gap.start, 1.0);
  EXPECT_DOUBLE_EQ(gap.finish, 3.0);
  // Tail is unchanged by a gap fill...
  EXPECT_DOUBLE_EQ(t.tail(), 5.0);
  // ...and a reservation that fits no gap lands at the tail.
  auto tail = t.Reserve(0.0, 2.0);
  EXPECT_DOUBLE_EQ(tail.start, 5.0);
}

TEST(Timeline, GapReservationRespectsEarliest) {
  sim::Timeline t;
  t.ReserveTail(2.0, 1.0);  // [2, 3)
  auto w = t.Reserve(1.5, 0.25);
  EXPECT_DOUBLE_EQ(w.start, 1.5);  // the pre-window gap is usable
  auto w2 = t.Reserve(2.5, 0.5);
  EXPECT_DOUBLE_EQ(w2.start, 3.0);  // may not start inside a reservation
}

TEST(CopyEngine, ChannelsSerializeExcessCopies) {
  sim::CopyEngine eng(2);
  EXPECT_DOUBLE_EQ(eng.Issue(0.0, 1.0, 100), 0.0);  // channel 0
  EXPECT_DOUBLE_EQ(eng.Issue(0.0, 1.0, 100), 0.0);  // channel 1
  EXPECT_DOUBLE_EQ(eng.Issue(0.0, 1.0, 100), 1.0);  // queued behind one
  EXPECT_EQ(eng.copies(), 3u);
  EXPECT_EQ(eng.total_bytes(), 300u);
  eng.Reset();
  EXPECT_DOUBLE_EQ(eng.Issue(0.0, 1.0, 1), 0.0);
}

TEST(DmaTransfer, UsesLinkIdleTimeBeforeTailReservations) {
  sim::Topology topo = sim::Topology::PaperServer();
  // A tail reservation far in the future (a broadcast issued later in host
  // order)...
  const int pcie0 = topo.Route(0, 2).front();
  topo.link(pcie0).Transfer(1.0, 64 * sim::kMiB);
  // ...must not delay an async DMA that fits entirely before it.
  const sim::SimTime done =
      topo.DmaTransferFinish(0, 2, 0.0, 1 * sim::kMiB);
  EXPECT_LT(done, 1.0);
  // The synchronous path would queue at the tail instead.
  const sim::SimTime sync_done =
      topo.TransferFinish(0, 2, 0.0, 1 * sim::kMiB);
  EXPECT_GT(sync_done, 1.0);
}

// ---- the O(log n) timeline search / event-queue / O(1) clock primitives -----

/// The front-to-back gap search Timeline::ProbeStart replaced, kept as the
/// reference of the property tests below. Insertion and coalescing are
/// Timeline's own, so the windows, tail and busy time of both must match
/// bit for bit after any sequence of reservations.
class ReferenceTimeline {
 public:
  using Window = sim::Timeline::Window;

  Window ReserveTail(sim::SimTime earliest, sim::SimTime dur) {
    const sim::SimTime start = std::max(earliest, tail_);
    return Insert(Window{start, start + dur});
  }
  Window Reserve(sim::SimTime earliest, sim::SimTime dur) {
    const sim::SimTime start = ProbeStart(earliest, dur);
    return Insert(Window{start, start + dur});
  }
  sim::SimTime ProbeStart(sim::SimTime earliest, sim::SimTime dur) const {
    sim::SimTime candidate = earliest;
    for (const Window& w : busy_) {
      if (candidate + dur <= w.start) return candidate;
      candidate = std::max(candidate, w.finish);
    }
    return candidate;
  }
  sim::SimTime tail() const { return tail_; }
  sim::SimTime busy_time() const { return busy_time_; }
  const std::vector<Window>& windows() const { return busy_; }

 private:
  Window Insert(const Window& w) {
    busy_time_ += w.finish - w.start;
    tail_ = std::max(tail_, w.finish);
    auto it = std::lower_bound(
        busy_.begin(), busy_.end(), w,
        [](const Window& a, const Window& b) { return a.start < b.start; });
    it = busy_.insert(it, w);
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
    return w;
  }

  std::vector<Window> busy_;
  sim::SimTime tail_ = 0;
  sim::SimTime busy_time_ = 0;
};

/// CopyEngine::Issue over reference timelines, as it was before the
/// search: probe every allowed lane, then Reserve(earliest, dur) on the
/// winner.
class ReferenceCopyEngine {
 public:
  explicit ReferenceCopyEngine(int channels) : lanes_(channels) {}

  sim::SimTime Issue(sim::SimTime earliest, sim::SimTime dur, int stream,
                     int max_lanes, sim::CopyEngine::IssueInfo* info) {
    const int channels = static_cast<int>(lanes_.size());
    const int quota =
        max_lanes <= 0 ? channels : std::min(max_lanes, channels);
    const int offset = max_lanes <= 0 ? 0 : (stream * quota) % channels;
    int best = -1;
    sim::SimTime best_start = 0;
    for (int k = 0; k < quota; ++k) {
      const int c = (offset + k) % channels;
      const sim::SimTime s = lanes_[c].ProbeStart(earliest, dur);
      if (best < 0 || s < best_start || (s == best_start && c < best)) {
        best_start = s;
        best = c;
      }
    }
    const ReferenceTimeline::Window w = lanes_[best].Reserve(earliest, dur);
    *info = sim::CopyEngine::IssueInfo{best, w.start, w.finish};
    return best_start;
  }
  sim::SimTime busy_time() const {
    sim::SimTime t = 0;
    for (const ReferenceTimeline& l : lanes_) t += l.busy_time();
    return t;
  }
  const ReferenceTimeline& lane(int c) const { return lanes_[c]; }

 private:
  std::vector<ReferenceTimeline> lanes_;
};

uint64_t Bits(sim::SimTime t) { return std::bit_cast<uint64_t>(t); }

/// Random reservation requests against `ref`'s current windows. Times come
/// either from a 1/8 grid (exact sums: touching windows, ties on every
/// boundary) or from a continuous draw. `earliest` lands before the first
/// window, inside a window, exactly on a window boundary, in an arbitrary
/// place, or past the tail; a tenth of the durations are zero.
class RequestGen {
 public:
  explicit RequestGen(uint64_t seed) : rng_(seed) {}

  sim::SimTime Duration() {
    switch (rng_() % 10) {
      case 0:
        return 0.0;
      case 1:
      case 2:
      case 3:
        return Uniform() * 3.0;
      default:
        return static_cast<double>(1 + rng_() % 24) / 8.0;
    }
  }

  sim::SimTime Earliest(const ReferenceTimeline& ref) {
    const std::vector<ReferenceTimeline::Window>& ws = ref.windows();
    const auto pick = [&]() -> const ReferenceTimeline::Window& {
      return ws[rng_() % ws.size()];
    };
    switch (ws.empty() ? 5 : rng_() % 6) {
      case 0:  // before the first window
        return ws.front().start - static_cast<double>(rng_() % 8) / 8.0;
      case 1: {  // inside a window
        const ReferenceTimeline::Window& w = pick();
        return w.start + (w.finish - w.start) * Uniform();
      }
      case 2:  // exactly on a boundary
        return rng_() % 2 == 0 ? pick().start : pick().finish;
      case 3:  // past the tail
        return ref.tail() + static_cast<double>(rng_() % 16) / 8.0;
      case 4:
        return Uniform() * (ref.tail() + 4.0);
      default:  // anywhere on the grid
        return static_cast<double>(
                   rng_() % (8 * static_cast<uint64_t>(ref.tail() + 2.0))) /
               8.0;
    }
  }

  uint64_t Next() { return rng_(); }

 private:
  double Uniform() {
    return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
  }
  std::mt19937_64 rng_;
};

// Starting the gap search at the first window that ends after `earliest`
// must give exactly the front-to-back scan's reservations over long mixed
// ReserveTail/Reserve sequences: every window, tail() and busy_time() bit
// for bit, and every ProbeStart in between.
TEST(Timeline, GapSearchMatchesFrontToBackScan) {
  size_t max_windows = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RequestGen gen(seed);
    sim::Timeline t;
    ReferenceTimeline ref;
    for (int op = 0; op < 3000; ++op) {
      const sim::SimTime earliest = gen.Earliest(ref);
      const sim::SimTime dur = gen.Duration();
      ASSERT_EQ(Bits(t.ProbeStart(earliest, dur)),
                Bits(ref.ProbeStart(earliest, dur)))
          << "seed " << seed << " op " << op;
      // A quarter tail reservations, some past the tail so the gaps that
      // Reserve fills keep opening.
      const bool tail = gen.Next() % 4 == 0;
      const sim::Timeline::Window got =
          tail ? t.ReserveTail(earliest, dur) : t.Reserve(earliest, dur);
      const ReferenceTimeline::Window want =
          tail ? ref.ReserveTail(earliest, dur) : ref.Reserve(earliest, dur);
      ASSERT_EQ(Bits(got.start), Bits(want.start))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(Bits(got.finish), Bits(want.finish))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(Bits(t.tail()), Bits(ref.tail()))
          << "seed " << seed << " op " << op;
      ASSERT_EQ(Bits(t.busy_time()), Bits(ref.busy_time()))
          << "seed " << seed << " op " << op;
    }
    max_windows = std::max(max_windows, ref.windows().size());
  }
  // The sequences must leave long timelines, or the search skips nothing.
  EXPECT_GE(max_windows, 200u);
}

// CopyEngine::Issue reserves the lane window its probe found instead of
// searching the lane again: every returned start and IssueInfo must match
// the reference engine, under each lane quota and across streams.
TEST(CopyEngine, IssueMatchesFrontToBackScan) {
  for (int quota : {0, 1, 2, 4}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RequestGen gen(100 * seed + quota);
      sim::CopyEngine eng(4);
      ReferenceCopyEngine ref(4);
      for (int op = 0; op < 1500; ++op) {
        const sim::SimTime earliest =
            gen.Earliest(ref.lane(static_cast<int>(gen.Next() % 4)));
        const sim::SimTime dur = gen.Duration();
        const int stream = static_cast<int>(gen.Next() % 5);
        sim::CopyEngine::IssueInfo got_info, want_info;
        const sim::SimTime got =
            eng.Issue(earliest, dur, 64, stream, quota, &got_info);
        const sim::SimTime want =
            ref.Issue(earliest, dur, stream, quota, &want_info);
        ASSERT_EQ(Bits(got), Bits(want))
            << "quota " << quota << " seed " << seed << " op " << op;
        ASSERT_EQ(got_info.lane, want_info.lane)
            << "quota " << quota << " seed " << seed << " op " << op;
        ASSERT_EQ(Bits(got_info.start), Bits(want_info.start))
            << "quota " << quota << " seed " << seed << " op " << op;
        ASSERT_EQ(Bits(got_info.finish), Bits(want_info.finish))
            << "quota " << quota << " seed " << seed << " op " << op;
      }
      EXPECT_EQ(eng.copies(), 1500u);
      EXPECT_EQ(Bits(eng.busy_time()), Bits(ref.busy_time()));
    }
  }
}


// EventQueue must pop in (time, push-order) order — the exact semantics of
// a linear next-event scan that breaks time ties by arrival, pinned here
// against a stable-sort reference over random event sets with many ties.
TEST(EventQueueTest, PopsInTimeThenFifoOrder) {
  std::mt19937_64 rng(7);
  for (int round = 0; round < 20; ++round) {
    engine::EventQueue<int> q;
    struct Ref {
      sim::SimTime t;
      int payload;
    };
    std::vector<Ref> ref;
    const int n = 1 + static_cast<int>(rng() % 200);
    for (int i = 0; i < n; ++i) {
      // Draw from a small set of distinct times so ties are common.
      const sim::SimTime t = static_cast<double>(rng() % 8) * 0.25;
      q.Push(t, i);
      ref.push_back(Ref{t, i});
    }
    // Stable sort keeps push order among equal times — the FIFO tie-break.
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Ref& a, const Ref& b) { return a.t < b.t; });
    ASSERT_EQ(q.size(), ref.size());
    for (const Ref& r : ref) {
      ASSERT_FALSE(q.empty());
      EXPECT_DOUBLE_EQ(q.next_time(), r.t);
      const auto [t, payload] = q.Pop();
      EXPECT_DOUBLE_EQ(t, r.t);
      EXPECT_EQ(payload, r.payload);
    }
    EXPECT_TRUE(q.empty());
  }
}

// Interleaved pushes and pops (the staging loop's actual access pattern):
// a popped event may enqueue a later one; ordering must still hold.
TEST(EventQueueTest, InterleavedPushPopStaysOrdered) {
  engine::EventQueue<int> q;
  q.Push(1.0, 0);
  q.Push(1.0, 1);
  q.Push(0.5, 2);
  EXPECT_EQ(q.Pop().second, 2);
  q.Push(0.75, 3);  // earlier than the remaining t=1.0 pair
  EXPECT_EQ(q.Pop().second, 3);
  EXPECT_EQ(q.Pop().second, 0);  // FIFO among the t=1.0 tie
  q.Push(1.0, 4);                // same time, pushed later: after payload 1
  EXPECT_EQ(q.Pop().second, 1);
  EXPECT_EQ(q.Pop().second, 4);
  EXPECT_TRUE(q.empty());
}

// The top-2 summary behind WorkerClocks::OthersGate must agree with the
// per-stream-map linear scan it replaced, on every (stream, dev, inst)
// probe after every update — including streams that never updated and
// slots that do not exist. Updates are monotone per stream (Update takes
// the max), which is the property the summary's exactness rests on.
TEST(WorkerClocksTest, TopTwoGateMatchesLinearScanReference) {
  std::mt19937_64 rng(13);
  for (int round = 0; round < 10; ++round) {
    engine::WorkerClocks clocks;
    // The replaced representation: stream -> dev -> per-instance clocks.
    std::map<int, std::map<int, std::vector<sim::SimTime>>> ref;
    const auto ref_gate = [&ref](int stream, int dev, int inst) {
      sim::SimTime t = 0;
      for (const auto& [s, devices] : ref) {
        if (s == stream) continue;
        auto it = devices.find(dev);
        if (it == devices.end()) continue;
        if (inst < static_cast<int>(it->second.size())) {
          t = std::max(t, it->second[inst]);
        }
      }
      return t;
    };
    for (int step = 0; step < 400; ++step) {
      const int stream = static_cast<int>(rng() % 6);
      const int dev = static_cast<int>(rng() % 3);
      const int inst = static_cast<int>(rng() % 4);
      const sim::SimTime t = static_cast<double>(rng() % 1000) / 16.0;
      clocks.Update(stream, dev, inst, t);
      auto& clock = ref[stream][dev];
      if (clock.size() <= static_cast<size_t>(inst)) {
        clock.resize(inst + 1, 0);
      }
      clock[inst] = std::max(clock[inst], t);
      // Probe stream 6 (never updates) and dev 3 (never exists) too.
      for (int s = 0; s <= 6; ++s) {
        for (int d = 0; d <= 3; ++d) {
          for (int i = 0; i <= 4; ++i) {
            ASSERT_DOUBLE_EQ(clocks.OthersGate(s, d, i), ref_gate(s, d, i))
                << "stream " << s << " dev " << d << " inst " << i
                << " at step " << step;
          }
        }
      }
    }
  }
}

// ---- depth 0 == the synchronous legacy model, bit-exactly -------------------

TEST_F(AsyncExec, DepthZeroReproducesSyncCostsExactly) {
  for (auto config : {EngineConfig::kProteusCpu, EngineConfig::kProteusHybrid,
                      EngineConfig::kProteusGpu}) {
    for (QueryFn q : {RunQ1, RunQ3, RunQ5, RunQ6}) {
      topo_->Reset();
      ctx_->async = engine::AsyncOptions::Off();
      const QueryResult plain = q(ctx_, config);
      const QueryResult depth0 = RunAtDepth(q, config, 0);
      ASSERT_EQ(plain.DidNotFinish(), depth0.DidNotFinish());
      if (plain.DidNotFinish()) continue;
      EXPECT_DOUBLE_EQ(plain.seconds, depth0.seconds) << ConfigName(config);
      ASSERT_EQ(plain.exec.pipelines.size(), depth0.exec.pipelines.size());
      for (size_t i = 0; i < plain.exec.pipelines.size(); ++i) {
        EXPECT_DOUBLE_EQ(plain.exec.pipelines[i].stats.finish,
                         depth0.exec.pipelines[i].stats.finish)
            << ConfigName(config) << " " << plain.exec.pipelines[i].name;
      }
      ExpectBitIdenticalGroups(plain, depth0, ConfigName(config));
    }
  }
}

// Depth-0 and the plain policy share a code path, so the test above alone
// could not catch a regression in the shared Timeline/Link arithmetic.
// Pin the absolute synchronous costs to the pre-refactor values (paper
// server, SF 0.01 actual / SF 100 nominal, seed 42): any drift here is a
// real change to the legacy cost sequences. Re-baseline only with an
// intentional cost-model change.
TEST_F(AsyncExec, SyncCostGoldens) {
  struct Golden {
    const char* name;
    QueryFn run;
    double hybrid_seconds;
  } goldens[] = {
      {"q1", RunQ1, 0.30009299038461529},
      {"q5", RunQ5, 0.73712464320000004},
      {"q6", RunQ6, 0.18915416559829051},
      {"q9", RunQ9, 1.774723967980854},
  };
  for (const auto& g : goldens) {
    const QueryResult r = RunAtDepth(g.run, EngineConfig::kProteusHybrid, 0);
    ASSERT_FALSE(r.DidNotFinish()) << g.name;
    EXPECT_NEAR(r.seconds, g.hybrid_seconds, 1e-12 * g.hybrid_seconds)
        << g.name;
  }
}

// The async-depth companion of SyncCostGoldens: absolute event-driven
// costs of the transfer-bound hybrid joins at depths 1 and 4, captured
// before the staging loop moved from an ad-hoc priority queue onto the
// shared EventQueue and WorkerClocks gained its top-2 gate. Any drift
// here means the O(log n)/O(1) structures changed *timing*, not just
// complexity. Re-baseline only with an intentional cost-model change.
TEST_F(AsyncExec, AsyncDepthGoldens) {
  struct Golden {
    const char* name;
    QueryFn run;
    int depth;
    double hybrid_seconds;
  } goldens[] = {
      {"q5", RunQ5, 1, 0.65846500000000008},
      {"q5", RunQ5, 4, 0.65846500000000008},
      {"q9", RunQ9, 1, 1.3615867100415129},
      {"q9", RunQ9, 4, 1.3073745299145298},
  };
  for (const auto& g : goldens) {
    const QueryResult r =
        RunAtDepth(g.run, EngineConfig::kProteusHybrid, g.depth);
    ASSERT_FALSE(r.DidNotFinish()) << g.name << " depth " << g.depth;
    EXPECT_NEAR(r.seconds, g.hybrid_seconds, 1e-12 * g.hybrid_seconds)
        << g.name << " depth " << g.depth;
  }
}

// ---- the acceptance invariant: async strictly beats sync on hybrid ----------

TEST_F(AsyncExec, AsyncStrictlyFasterOnTransferBoundHybridQ5Q9) {
  struct Case {
    const char* name;
    QueryFn run;
  } cases[] = {{"q5", RunQ5}, {"q9", RunQ9}};
  for (const auto& c : cases) {
    const QueryResult sync = RunAtDepth(c.run, EngineConfig::kProteusHybrid, 0);
    ASSERT_FALSE(sync.DidNotFinish()) << c.name;
    for (int depth : {1, 2, 4}) {
      const QueryResult async =
          RunAtDepth(c.run, EngineConfig::kProteusHybrid, depth);
      ASSERT_FALSE(async.DidNotFinish()) << c.name << " depth " << depth;
      EXPECT_LT(async.seconds, sync.seconds)
          << c.name << " depth " << depth
          << ": async must strictly beat the synchronous barrier model";
      // Same placement decisions: async changes *when*, never *what*.
      EXPECT_EQ(async.exec.broadcast_bytes, sync.exec.broadcast_bytes);
      EXPECT_EQ(async.exec.co_processed, sync.exec.co_processed);
      ExpectBitIdenticalGroups(sync, async, c.name);
    }
  }
}

TEST_F(AsyncExec, OverlapAccountingShowsHiddenTransfers) {
  const QueryResult sync = RunAtDepth(RunQ5, EngineConfig::kProteusHybrid, 0);
  const QueryResult async = RunAtDepth(RunQ5, EngineConfig::kProteusHybrid, 2);
  ASSERT_FALSE(sync.DidNotFinish());
  ASSERT_FALSE(async.DidNotFinish());
  EXPECT_TRUE(async.exec.async);
  EXPECT_FALSE(sync.exec.async);
  // Both modes move the same packets...
  EXPECT_EQ(async.exec.mem_moves, sync.exec.mem_moves);
  EXPECT_EQ(async.exec.moved_bytes, sync.exec.moved_bytes);
  // ...but the async executor exposes strictly less transfer time on the
  // workers' critical paths.
  EXPECT_GT(sync.exec.transfer_busy_s, 0.0);
  EXPECT_LT(async.exec.transfer_exposed_s, sync.exec.transfer_exposed_s);
  EXPECT_GE(async.exec.transfer_hidden_s(), 0.0);
  EXPECT_GE(async.exec.transfer_exposed_s, 0.0);
}

TEST_F(AsyncExec, ExplainSurfacesOverlapAccounting) {
  topo_->Reset();
  ctx_->async = engine::AsyncOptions::Depth(2);
  // Drive Engine::Explain(plan, run) through a hand-held run of Q5's
  // machinery: reuse the query runner's engine and re-run the query so the
  // context's engine instance matches the stats.
  const QueryResult r = RunQ5(ctx_, EngineConfig::kProteusHybrid);
  ASSERT_FALSE(r.DidNotFinish());
  ASSERT_NE(ctx_->engine, nullptr);
  // A plan object is consumed by Run; Explain only needs *a* plan plus the
  // RunStats, so serialize against a freshly declared (unexecuted) shape.
  engine::PlanBuilder b("probe-shape");
  auto t = ctx_->catalog.Get("lineitem").value();
  auto agg = b.Scan(t, {"l_orderkey"}, 1 << 14)
                 .Aggregate(nullptr, {engine::AggDef{engine::AggOp::kCount,
                                                     nullptr}});
  (void)agg;
  engine::QueryPlan plan = std::move(b).Build();
  const std::string json = ctx_->engine->Explain(plan, r.exec);
  EXPECT_NE(json.find("\"transfer_hidden_s\""), std::string::npos);
  EXPECT_NE(json.find("\"transfer_exposed_s\""), std::string::npos);
  EXPECT_NE(json.find("\"async\":true"), std::string::npos);
  EXPECT_NE(json.find("\"pipelines\""), std::string::npos);
}

// ---- bounded staging memory: AsyncOptions::max_staged_bytes -----------------

// The prefetch window is bounded in *buffers* (packets) per worker; the
// byte cap bounds the staged transfer *memory*. A transfer that would
// overflow the cap waits until enough staged packets were handed to
// compute.
TEST(AsyncStaging, MaxStagedBytesCapsInFlightTransfers) {
  sim::Topology topo = sim::Topology::PaperServer();
  engine::Executor exec(&topo);
  const int gpu = topo.GpuDeviceIds().front();
  constexpr size_t kRows = 4096;
  const uint64_t packet = kRows * 8;  // one int64 column
  auto make_pipeline = [&] {
    engine::Pipeline p;
    p.name = "staging";
    for (int i = 0; i < 16; ++i) {
      memory::Batch b;
      b.rows = kRows;
      b.mem_node = 0;  // host-resident: every packet crosses PCIe
      b.columns = {std::make_shared<storage::Column>(
          std::vector<int64_t>(kRows, i))};
      p.inputs.push_back(std::move(b));
    }
    p.stages.push_back(engine::ScanStage());
    return p;
  };

  engine::RunOptions opts;
  opts.async = engine::AsyncOptions::Depth(8);
  topo.Reset();
  auto p1 = make_pipeline();
  const engine::ExecStats unlimited = exec.Run(&p1, {gpu}, opts);
  // Without a byte cap the whole 8-deep window sits staged at once.
  EXPECT_GT(unlimited.peak_staged_bytes, 2 * packet);
  EXPECT_EQ(unlimited.mem_moves, 16u);

  opts.async.max_staged_bytes = 2 * packet;
  topo.Reset();
  auto p2 = make_pipeline();
  const engine::ExecStats capped = exec.Run(&p2, {gpu}, opts);
  EXPECT_LE(capped.peak_staged_bytes, 2 * packet);
  EXPECT_GT(capped.peak_staged_bytes, 0u);
  // The cap reorders nothing: same packets, same bytes moved.
  EXPECT_EQ(capped.packets, unlimited.packets);
  EXPECT_EQ(capped.moved_bytes, unlimited.moved_bytes);
  // Less staging can only delay, never accelerate.
  EXPECT_GE(capped.finish, unlimited.finish);

  // A packet larger than the cap still proceeds (alone): no deadlock.
  opts.async.max_staged_bytes = packet / 2;
  topo.Reset();
  auto p3 = make_pipeline();
  const engine::ExecStats tiny = exec.Run(&p3, {gpu}, opts);
  EXPECT_EQ(tiny.mem_moves, 16u);
  EXPECT_LE(tiny.peak_staged_bytes, packet);
}

TEST_F(AsyncExec, StagedByteCapHoldsOnHybridQ5AndKeepsResults) {
  const QueryResult unlimited =
      RunAtDepth(RunQ5, EngineConfig::kProteusHybrid, 4);
  ASSERT_FALSE(unlimited.DidNotFinish());
  ASSERT_GT(unlimited.exec.peak_staged_bytes, 0u);

  const uint64_t cap = unlimited.exec.peak_staged_bytes * 3 / 4;
  topo_->Reset();
  ctx_->async = engine::AsyncOptions::Depth(4);
  ctx_->async.max_staged_bytes = cap;
  const QueryResult capped = RunQ5(ctx_, EngineConfig::kProteusHybrid);
  ctx_->async = engine::AsyncOptions::Off();
  ASSERT_FALSE(capped.DidNotFinish());
  EXPECT_LE(capped.exec.peak_staged_bytes, cap);
  EXPECT_LT(capped.exec.peak_staged_bytes,
            unlimited.exec.peak_staged_bytes);
  // Bounding staging memory changes *when*, never *what*.
  EXPECT_EQ(capped.exec.broadcast_bytes, unlimited.exec.broadcast_bytes);
  EXPECT_EQ(capped.exec.moved_bytes, unlimited.exec.moved_bytes);
  ExpectBitIdenticalGroups(unlimited, capped, "staged-byte cap");
}

// ---- determinism: byte-identical results, deterministic stats ---------------

TEST_F(AsyncExec, RepeatedRunsAreByteIdenticalAtEveryDepth) {
  for (int depth : {0, 1, 2, 4}) {
    std::vector<QueryResult> runs;
    for (int rep = 0; rep < 3; ++rep) {
      runs.push_back(RunAtDepth(RunQ5, EngineConfig::kProteusHybrid, depth));
      ASSERT_FALSE(runs.back().DidNotFinish()) << "depth " << depth;
    }
    for (int rep = 1; rep < 3; ++rep) {
      ExpectBitIdenticalGroups(runs[0], runs[rep], "repeat");
      // Deterministic ExecStats: identical finish times, packet counts and
      // overlap accounting on every pipeline.
      EXPECT_DOUBLE_EQ(runs[0].seconds, runs[rep].seconds)
          << "depth " << depth;
      ASSERT_EQ(runs[0].exec.pipelines.size(), runs[rep].exec.pipelines.size());
      for (size_t i = 0; i < runs[0].exec.pipelines.size(); ++i) {
        const engine::ExecStats& a = runs[0].exec.pipelines[i].stats;
        const engine::ExecStats& b = runs[rep].exec.pipelines[i].stats;
        EXPECT_DOUBLE_EQ(a.start, b.start);
        EXPECT_DOUBLE_EQ(a.finish, b.finish);
        EXPECT_EQ(a.packets, b.packets);
        EXPECT_EQ(a.mem_moves, b.mem_moves);
        EXPECT_EQ(a.moved_bytes, b.moved_bytes);
        EXPECT_DOUBLE_EQ(a.transfer_busy_s, b.transfer_busy_s);
        EXPECT_DOUBLE_EQ(a.transfer_exposed_s, b.transfer_exposed_s);
      }
    }
  }
}

TEST_F(AsyncExec, ResultsAreByteIdenticalAcrossDepths) {
  // The admission pass routes on a relative timeline, so packet->worker
  // assignment — and with it every floating-point merge order — is
  // independent of the prefetch depth.
  for (QueryFn q : {RunQ3, RunQ5, RunQ9}) {
    const QueryResult base = RunAtDepth(q, EngineConfig::kProteusHybrid, 1);
    ASSERT_FALSE(base.DidNotFinish());
    for (int depth : {2, 4, 8}) {
      const QueryResult other =
          RunAtDepth(q, EngineConfig::kProteusHybrid, depth);
      ASSERT_FALSE(other.DidNotFinish());
      ExpectBitIdenticalGroups(base, other, "depth-invariance");
    }
  }
}

}  // namespace
}  // namespace hape::queries
