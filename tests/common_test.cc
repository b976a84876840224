#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"

namespace ledgerdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesAndMessages) {
  Status s = Status::VerificationFailed("root mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsVerificationFailed());
  EXPECT_EQ(s.ToString(), "VerificationFailed: root mismatch");

  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::PermissionDenied().IsPermissionDenied());
  EXPECT_TRUE(Status::OutOfRange().IsOutOfRange());
  EXPECT_TRUE(Status::AlreadyExists().IsAlreadyExists());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::NotSupported().IsNotSupported());
  EXPECT_TRUE(Status::TimestampRejected().IsTimestampRejected());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    LEDGERDB_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  std::string hex = ToHex(data);
  EXPECT_EQ(hex, "0001abff");
  Bytes back;
  ASSERT_TRUE(FromHex(hex, &back));
  EXPECT_EQ(back, data);
}

TEST(BytesTest, FromHexRejectsMalformed) {
  Bytes out;
  EXPECT_FALSE(FromHex("abc", &out));   // odd length
  EXPECT_FALSE(FromHex("zz", &out));    // non-hex
  EXPECT_TRUE(FromHex("", &out));       // empty ok
  EXPECT_TRUE(out.empty());
}

TEST(BytesTest, VarintEncodersRoundTrip) {
  Bytes buf;
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x123456789abcdef0ULL);
  PutLengthPrefixed(&buf, StringToBytes("hello"));
  Digest d;
  d.bytes[0] = 0xab;
  d.bytes[31] = 0xcd;
  PutDigest(&buf, d);
  buf.push_back(1);
  buf.push_back(9);

  ByteReader r(buf);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x123456789abcdef0ULL);
  EXPECT_EQ(r.LengthPrefixed(), Slice(std::string_view("hello")));
  EXPECT_EQ(r.Digest(), d);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.U8(), 9);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, ReadersDetectTruncation) {
  Bytes buf;
  PutU64(&buf, 7);
  buf.pop_back();
  ByteReader r(buf);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_FALSE(r.ok());

  Bytes buf2;
  PutLengthPrefixed(&buf2, StringToBytes("abcdef"));
  buf2.resize(buf2.size() - 2);
  ByteReader r2(buf2);
  EXPECT_TRUE(r2.LengthPrefixed().empty());
  EXPECT_FALSE(r2.ok());

  // Failure is sticky: a later read that would fit still yields nothing.
  Bytes buf3(40, 0);
  ByteReader r3(buf3);
  r3.Fixed(41);
  EXPECT_EQ(r3.U32(), 0u);
  EXPECT_TRUE(r3.Digest().IsZero());
  EXPECT_FALSE(r3.AtEnd());
}

TEST(BytesTest, ReaderRejectsNonCanonicalAndOversizedValues) {
  Bytes two = {2};
  ByteReader r(two);
  EXPECT_FALSE(r.Bool());
  EXPECT_FALSE(r.ok());

  // A count above its cap, or above the bytes left, fails before any
  // caller can allocate for it.
  Bytes buf;
  PutU32(&buf, 5);
  buf.resize(buf.size() + 4);
  ByteReader capped(buf);
  EXPECT_EQ(capped.Count(4), 0u);
  EXPECT_FALSE(capped.ok());
  ByteReader short_input(buf);
  EXPECT_EQ(short_input.Count(1u << 20), 0u);
  EXPECT_FALSE(short_input.ok());
  buf[0] = 4;
  ByteReader fits(buf);
  EXPECT_EQ(fits.Count(4), 4u);
  EXPECT_TRUE(fits.ok());
}

TEST(SliceTest, EqualityAndViews) {
  Bytes data = StringToBytes("abc");
  Slice s1(data);
  Slice s2(std::string_view("abc"));
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.ToString(), "abc");
  EXPECT_EQ(s1.ToBytes(), data);
  EXPECT_TRUE(Slice().empty());
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RandomTest, RangeBounds) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BytesAndStringsHaveRequestedSize) {
  Random rng(5);
  EXPECT_EQ(rng.NextBytes(0).size(), 0u);
  EXPECT_EQ(rng.NextBytes(7).size(), 7u);
  EXPECT_EQ(rng.NextBytes(64).size(), 64u);
  EXPECT_EQ(rng.NextString(33).size(), 33u);
}

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.Now(), 150);
  clock.SetTime(120);  // cannot move backwards
  EXPECT_EQ(clock.Now(), 150);
  clock.SetTime(400);
  EXPECT_EQ(clock.Now(), 400);
}

TEST(ClockTest, SystemClockMonotoneNonDecreasing) {
  SystemClock clock;
  Timestamp a = clock.Now();
  Timestamp b = clock.Now();
  EXPECT_LE(a, b);
}

TEST(RetryTest, TransientStatusIsRetriable) {
  Status t = Status::TransientIO("disk hiccup");
  EXPECT_TRUE(t.IsTransientIO());
  EXPECT_TRUE(t.IsRetriable());
  EXPECT_FALSE(Status::IOError("hard failure").IsRetriable());
  EXPECT_FALSE(Status::Unavailable("shard down").IsRetriable());
  EXPECT_TRUE(Status::Unavailable("shard down").IsUnavailable());
}

TEST(RetryTest, SucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_us = 0;
  int calls = 0;
  Status s = RetryTransient(policy, [&] {
    ++calls;
    return calls < 3 ? Status::TransientIO("flaky") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, ExhaustionBecomesTerminalIOError) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_us = 0;
  int calls = 0;
  Status s = RetryTransient(policy, [&] {
    ++calls;
    return Status::TransientIO("always flaky");
  });
  EXPECT_EQ(calls, 4);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_FALSE(s.IsRetriable());  // exhausted: callers must not loop again
}

TEST(RetryTest, NonRetriableErrorPassesThroughImmediately) {
  RetryPolicy policy;
  int calls = 0;
  Status s = RetryTransient(policy, [&] {
    ++calls;
    return Status::Corruption("bad frame");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(RetryTest, UnavailableIsNotRetriable) {
  // Load-shedding must fail fast: a shed server said "go away", and
  // hammering it with retries is exactly the wrong response.
  EXPECT_FALSE(Status::Unavailable("admission queue full").IsRetriable());
  RetryPolicy policy;
  int calls = 0;
  Status s = RetryTransient(policy, [&] {
    ++calls;
    return Status::Unavailable("shed");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(s.IsUnavailable());
}

TEST(RetryTest, DecorrelatedJitterStaysInBounds) {
  // Every draw must satisfy initial <= sleep <= min(3 * prev, max), for
  // any prior sleep — the AWS "decorrelated jitter" contract.
  const uint64_t initial = 1'000;
  const uint64_t max = 64'000;
  Random rng(42);
  uint64_t prev = initial;
  for (int i = 0; i < 10'000; ++i) {
    uint64_t sleep = NextDecorrelatedBackoffUs(initial, prev, max, &rng);
    EXPECT_GE(sleep, initial);
    EXPECT_LE(sleep, max);
    uint64_t ceiling = prev >= initial ? prev * 3 : initial;
    EXPECT_LE(sleep, std::min(ceiling, max));
    prev = sleep;
  }
}

TEST(RetryTest, DecorrelatedJitterActuallySpreads) {
  // The draws must not collapse onto the doubling ladder: from the same
  // prev, different RNG states give different sleeps.
  const uint64_t initial = 1'000;
  const uint64_t max = 1'000'000;
  std::set<uint64_t> distinct;
  Random rng(7);
  for (int i = 0; i < 64; ++i) {
    distinct.insert(NextDecorrelatedBackoffUs(initial, 100'000, max, &rng));
  }
  EXPECT_GT(distinct.size(), 16u);
}

TEST(RetryTest, JitterSeedIsDeterministic) {
  // Same seed -> same sleep sequence (fault replays stay reproducible);
  // different seeds -> different sequences (no cross-client lockstep).
  auto draw_sequence = [](uint64_t seed) {
    Random rng(seed);
    std::vector<uint64_t> seq;
    uint64_t prev = 500;
    for (int i = 0; i < 16; ++i) {
      prev = NextDecorrelatedBackoffUs(500, prev, 100'000, &rng);
      seq.push_back(prev);
    }
    return seq;
  };
  EXPECT_EQ(draw_sequence(1), draw_sequence(1));
  EXPECT_NE(draw_sequence(1), draw_sequence(2));
}

TEST(RetryTest, JitteredRetryKeepsStatsAccurate) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_us = 50;
  policy.max_backoff_us = 400;
  policy.decorrelated_jitter = true;
  policy.jitter_seed = 99;
  int calls = 0;
  RetryStats stats;
  Status s = RetryTransient(policy,
                            [&] {
                              ++calls;
                              return calls < 4 ? Status::TransientIO("flaky")
                                               : Status::OK();
                            },
                            &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(stats.attempts, 4);
  EXPECT_FALSE(stats.exhausted);
  // Three sleeps happened, each at least the initial backoff.
  EXPECT_GE(stats.backoff_us, 3u * policy.initial_backoff_us);
}

TEST(RetryTest, TotalDeadlineBoundsCumulativeBackoff) {
  // With a total deadline smaller than the next sleep, the retry loop
  // must stop early (deadline-aware backoff) instead of sleeping past
  // the caller's budget. The op always fails, so this exhausts.
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff_us = 2'000;
  policy.max_backoff_us = 2'000;
  policy.total_deadline_us = 5'000;  // room for at most 2 full sleeps
  int calls = 0;
  RetryStats stats;
  Status s = RetryTransient(policy,
                            [&] {
                              ++calls;
                              return Status::TransientIO("down");
                            },
                            &stats);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_TRUE(stats.exhausted);
  EXPECT_LE(stats.backoff_us, policy.total_deadline_us);
  EXPECT_LE(calls, 4);  // 50 attempts were authorized; the deadline won
}

}  // namespace
}  // namespace ledgerdb
