#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/status.h"

namespace hape {
namespace {

// ---- logging ----------------------------------------------------------------

struct CaptureSink : LogSink {
  std::vector<std::pair<LogLevel, std::string>> lines;
  void Write(LogLevel level, const std::string& line) override {
    lines.emplace_back(level, line);
  }
};

TEST(Logging, SinkCapturesFormattedLinesAndRestores) {
  CaptureSink sink;
  LogSink* prev = SetLogSink(&sink);
  EXPECT_EQ(prev, nullptr);  // default stderr sink was active
  HAPE_LOG(Warn) << "captured " << 42;
  EXPECT_EQ(SetLogSink(nullptr), &sink);  // restore the default

  ASSERT_EQ(sink.lines.size(), 1u);
  EXPECT_EQ(sink.lines[0].first, LogLevel::kWarn);
  EXPECT_NE(sink.lines[0].second.find("captured 42"), std::string::npos);
  EXPECT_NE(sink.lines[0].second.find("common_test.cc"), std::string::npos);
  // After restore, nothing else lands in the detached sink.
  HAPE_LOG(Warn) << "not captured";
  EXPECT_EQ(sink.lines.size(), 1u);
}

TEST(Logging, CheckIsFatalInEveryBuild) {
  EXPECT_DEATH(HAPE_CHECK(1 + 1 == 3) << "arithmetic broke", "Check failed");
}

TEST(Logging, DcheckCompilesOutUnderNDebug) {
  // A true condition is always fine.
  HAPE_DCHECK(true) << "never printed";
#ifdef NDEBUG
  // Release builds must not evaluate the condition at all: HAPE_DCHECK
  // used to alias HAPE_CHECK, making "debug-only" checks fatal (and their
  // operands costed) in release binaries.
  int evaluations = 0;
  HAPE_DCHECK([&] {
    ++evaluations;
    return false;
  }()) << "unreachable in release";
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_DEATH(HAPE_DCHECK(false) << "debug check", "Check failed");
#endif
}

// ---- Status / Result --------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, FactoryConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::KeyError("x").code(), StatusCode::kKeyError);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Internal("boom").message(), "boom");
}

TEST(Status, ToStringIncludesCodeNameAndMessage) {
  EXPECT_EQ(Status::OutOfMemory("8 GiB").ToString(), "OutOfMemory: 8 GiB");
  EXPECT_EQ(Status::NotSupported("nope").ToString(), "NotSupported: nope");
}

Status FailsThenPropagates() {
  HAPE_RETURN_NOT_OK(Status::IOError("disk"));
  return Status::OK();
}

TEST(Status, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kIOError);
}

// No ASSERT's early return, and a const result: otherwise GCC 12 reports a
// false -Wmaybe-uninitialized on the variant's Status alternative (at -O2
// with the early return first, at -O3 with it after the status read). A
// value() of an error Result throws, which fails the test all the same.
TEST(Result, HoldsValue) {
  const Result<int> r(7);
  EXPECT_TRUE(r.status().ok());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::KeyError("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
}

TEST(Result, MoveValueTransfersOwnership) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string v = r.MoveValue();
  EXPECT_EQ(v.size(), 1000u);
}

// ---- bit math ---------------------------------------------------------------

TEST(Bits, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1023), 1024u);
  EXPECT_EQ(NextPow2(1024), 1024u);
  EXPECT_EQ(NextPow2(1025), 2048u);
  EXPECT_EQ(NextPow2((1ull << 40) + 1), 1ull << 41);
}

TEST(Bits, IsPow2) {
  EXPECT_FALSE(IsPow2(0));
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_TRUE(IsPow2(1ull << 50));
  EXPECT_FALSE(IsPow2((1ull << 50) + 1));
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(2), 1u);
  EXPECT_EQ(Log2Floor(3), 1u);
  EXPECT_EQ(Log2Floor(1024), 10u);
  EXPECT_EQ(Log2Floor(1ull << 62), 62u);
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(Log2Ceil(1), 0u);
  EXPECT_EQ(Log2Ceil(2), 1u);
  EXPECT_EQ(Log2Ceil(3), 2u);
  EXPECT_EQ(Log2Ceil(1024), 10u);
  EXPECT_EQ(Log2Ceil(1025), 11u);
}

TEST(Bits, CeilDivAndRoundUp) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
  EXPECT_EQ(RoundUp(5, 4), 8u);
  EXPECT_EQ(RoundUp(8, 4), 8u);
}

// Power-of-two identities over a parameterized sweep.
class BitsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitsSweep, NextPow2IsPow2AndTight) {
  const uint64_t v = GetParam();
  const uint64_t p = NextPow2(v);
  EXPECT_TRUE(IsPow2(p));
  EXPECT_GE(p, v == 0 ? 1 : v);
  if (p > 1) {
    EXPECT_LT(p / 2, std::max<uint64_t>(v, 1));
  }
}

TEST_P(BitsSweep, LogIdentities) {
  const uint64_t v = GetParam();
  if (v == 0) return;
  EXPECT_LE(1ull << Log2Floor(v), v);
  EXPECT_GE(1ull << Log2Ceil(v), v);
  if (IsPow2(v)) {
    EXPECT_EQ(Log2Floor(v), Log2Ceil(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitsSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 8, 15, 16, 17,
                                           100, 255, 256, 1000, 4096, 1u << 20,
                                           (1u << 20) + 3, 1ull << 33));

// ---- hashing ----------------------------------------------------------------

TEST(Hash, MurmurIsDeterministic) {
  EXPECT_EQ(HashMurmur64(42), HashMurmur64(42));
  EXPECT_NE(HashMurmur64(42), HashMurmur64(43));
}

TEST(Hash, MurmurMixesLowBits) {
  // Consecutive keys should not map to consecutive hashes.
  std::set<uint64_t> low;
  for (uint64_t k = 0; k < 64; ++k) low.insert(HashMurmur64(k) & 0xff);
  EXPECT_GT(low.size(), 40u);  // near-uniform over 256 slots
}

TEST(Hash, RadixOfStaysInRange) {
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_LT(RadixOf(k, 0, 6), 64u);
    EXPECT_LT(RadixOf(k, 10, 4), 16u);
  }
}

TEST(Hash, RadixOfDifferentShiftsAreIndependentBits) {
  // Composing pass 1 (bits 0..5) and pass 2 (bits 6..11) must equal a
  // single 12-bit extraction — the multi-pass/single-pass equivalence the
  // radix join relies on.
  for (uint64_t k = 0; k < 2000; ++k) {
    const uint32_t p1 = RadixOf(k, 0, 6);
    const uint32_t p2 = RadixOf(k, 6, 6);
    EXPECT_EQ((p2 << 6) | p1, RadixOf(k, 0, 12));
  }
}

TEST(Hash, RadixPartitionsBalanceUniformKeys) {
  constexpr int kBits = 5;
  constexpr uint64_t kN = 64 * 1024;
  std::vector<uint64_t> counts(1 << kBits, 0);
  for (uint64_t k = 0; k < kN; ++k) ++counts[RadixOf(k, 0, kBits)];
  const uint64_t expect = kN >> kBits;
  for (uint64_t c : counts) {
    EXPECT_GT(c, expect * 8 / 10);
    EXPECT_LT(c, expect * 12 / 10);
  }
}

TEST(Hash, BucketOfStaysInRange) {
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_LT(BucketOf(k, 8), 256u);
    EXPECT_LT(BucketOf(k, 1), 2u);
  }
}

TEST(Hash, HashCombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

}  // namespace
}  // namespace hape
