// Tests for util: bit streams, zigzag, Status/Result, RNG, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "util/bit_stream.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/zigzag.h"

namespace gcgt {
namespace {

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter w;
  std::vector<bool> bits = {1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1};
  for (bool b : bits) w.PutBit(b);
  EXPECT_EQ(w.num_bits(), bits.size());
  auto bytes = w.bytes();
  BitReader r(bytes.data(), w.num_bits());
  for (bool b : bits) EXPECT_EQ(r.GetBit(), b);
  EXPECT_FALSE(r.overflowed());
}

TEST(BitStream, MsbFirstLayout) {
  BitWriter w;
  w.PutBits(0b1011, 4);
  EXPECT_EQ(w.ToBitString(), "1011");
  EXPECT_EQ(w.bytes()[0], 0b10110000);  // bit 0 is the byte's MSB
}

TEST(BitStream, MultiBitValuesAcrossByteBoundaries) {
  BitWriter w;
  w.PutBits(0x5a5, 12);
  w.PutBits(0x3ffffffffull, 34);
  w.PutBits(1, 1);
  auto bytes = w.bytes();
  BitReader r(bytes.data(), w.num_bits());
  EXPECT_EQ(r.GetBits(12), 0x5a5u);
  EXPECT_EQ(r.GetBits(34), 0x3ffffffffull);
  EXPECT_EQ(r.GetBits(1), 1u);
}

TEST(BitStream, UnaryDecoding) {
  size_t n = 0;
  auto bytes = BitsFromString("0001 01 1 000001", &n);
  BitReader r(bytes.data(), n);
  EXPECT_EQ(r.GetUnary(), 3);
  EXPECT_EQ(r.GetUnary(), 1);
  EXPECT_EQ(r.GetUnary(), 0);
  EXPECT_EQ(r.GetUnary(), 5);
}

TEST(BitStream, SeekAndRandomAccess) {
  BitWriter w;
  w.PutBits(0b110010111, 9);
  auto bytes = w.bytes();
  BitReader r(bytes.data(), 9, /*start_bit=*/3);
  EXPECT_EQ(r.GetBits(3), 0b010u);
  r.Seek(0);
  EXPECT_EQ(r.GetBits(2), 0b11u);
  EXPECT_EQ(r.byte_pos(), 0u);
}

TEST(BitStream, OverflowIsSticky) {
  BitWriter w;
  w.PutBits(0b11, 2);
  auto bytes = w.bytes();
  BitReader r(bytes.data(), 2);
  r.GetBits(2);
  EXPECT_FALSE(r.overflowed());
  EXPECT_EQ(r.GetBit(), 0);
  EXPECT_TRUE(r.overflowed());
}

// ---------------------------------------------------------------------------
// Word-at-a-time reader paths. The reference below reproduces the original
// bit-at-a-time semantics; the production reader must match it exactly,
// including positions and overflow behavior.
// ---------------------------------------------------------------------------

/// Bit-at-a-time reference implementation of the BitReader contract.
class ReferenceBitReader {
 public:
  ReferenceBitReader(const uint8_t* data, size_t num_bits, size_t start = 0)
      : data_(data), num_bits_(num_bits), pos_(start) {}

  bool GetBit() {
    if (pos_ >= num_bits_) {
      overflowed_ = true;
      ++pos_;
      return false;
    }
    bool bit = (data_[pos_ >> 3] >> (7 - (pos_ & 7))) & 1u;
    ++pos_;
    return bit;
  }
  uint64_t GetBits(int width) {
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) v = (v << 1) | (GetBit() ? 1u : 0u);
    return v;
  }
  int GetUnary() {
    int zeros = 0;
    while (!GetBit()) {
      if (overflowed_) return zeros;
      ++zeros;
    }
    return zeros;
  }
  size_t pos() const { return pos_; }
  void Seek(size_t p) { pos_ = p; }
  bool overflowed() const { return overflowed_; }

 private:
  const uint8_t* data_;
  size_t num_bits_;
  size_t pos_;
  bool overflowed_ = false;
};

TEST(BitStreamWordPaths, CrossByteAndCrossWordReads) {
  // 33 bytes of pseudo-random bits: enough for misaligned 64-bit reads that
  // need the 9th byte.
  Rng rng(42);
  std::vector<uint8_t> bytes(33);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  const size_t n = bytes.size() * 8;
  for (size_t start : {0ul, 1ul, 3ul, 7ul, 8ul, 13ul, 63ul, 65ul}) {
    for (int width : {1, 7, 8, 9, 17, 31, 32, 33, 56, 63, 64}) {
      BitReader fast(bytes.data(), n, start);
      ReferenceBitReader ref(bytes.data(), n, start);
      EXPECT_EQ(fast.GetBits(width), ref.GetBits(width))
          << "start " << start << " width " << width;
      EXPECT_EQ(fast.pos(), ref.pos());
      EXPECT_EQ(fast.overflowed(), ref.overflowed());
    }
  }
}

TEST(BitStreamWordPaths, UnaryRunsSpanningWords) {
  // 70 zeros, a one, 200 zeros, a one, then 5 zeros to the end (no one bit).
  BitWriter w;
  w.PutZeros(70);
  w.PutBit(true);
  w.PutZeros(200);
  w.PutBit(true);
  w.PutZeros(5);
  auto bytes = w.bytes();
  BitReader r(bytes.data(), w.num_bits());
  EXPECT_EQ(r.GetUnary(), 70);
  EXPECT_EQ(r.pos(), 71u);
  EXPECT_EQ(r.GetUnary(), 200);
  EXPECT_EQ(r.pos(), 272u);
  EXPECT_FALSE(r.overflowed());
  // The tail has no terminating one bit: return zeros seen, set overflow,
  // leave pos one past the end (like the failed GetBit would).
  EXPECT_EQ(r.GetUnary(), 5);
  EXPECT_TRUE(r.overflowed());
  EXPECT_EQ(r.pos(), w.num_bits() + 1);
}

TEST(BitStreamWordPaths, GetBitsOverflowAtTailMatchesBitAtATime) {
  BitWriter w;
  w.PutBits(0b1011011, 7);
  auto bytes = w.bytes();
  for (size_t start : {0ul, 3ul, 6ul, 7ul}) {
    for (int width : {1, 4, 8, 16, 64}) {
      BitReader fast(bytes.data(), 7, start);
      ReferenceBitReader ref(bytes.data(), 7, start);
      EXPECT_EQ(fast.GetBits(width), ref.GetBits(width))
          << "start " << start << " width " << width;
      EXPECT_EQ(fast.pos(), ref.pos());
      EXPECT_EQ(fast.overflowed(), ref.overflowed());
    }
  }
}

TEST(BitStreamWordPaths, RandomizedDifferentialAgainstReference) {
  Rng rng(20190630);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t num_bytes = 1 + rng.Uniform(40);
    std::vector<uint8_t> bytes(num_bytes);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    // Truncate to a ragged bit count so tail handling is exercised.
    const size_t n = num_bytes * 8 - rng.Uniform(8);
    BitReader fast(bytes.data(), n);
    ReferenceBitReader ref(bytes.data(), n);
    for (int op = 0; op < 200; ++op) {
      switch (rng.Uniform(4)) {
        case 0:
          ASSERT_EQ(fast.GetBit(), ref.GetBit());
          break;
        case 1: {
          int width = static_cast<int>(rng.Uniform(65));
          ASSERT_EQ(fast.GetBits(width), ref.GetBits(width))
              << "trial " << trial << " width " << width;
          break;
        }
        case 2:
          ASSERT_EQ(fast.GetUnary(), ref.GetUnary()) << "trial " << trial;
          break;
        case 3: {
          size_t to = rng.Uniform(n + 4);
          fast.Seek(to);
          ref.Seek(to);
          break;
        }
      }
      ASSERT_EQ(fast.pos(), ref.pos()) << "trial " << trial << " op " << op;
      ASSERT_EQ(fast.overflowed(), ref.overflowed());
    }
  }
}

TEST(BitStreamWordPaths, BatchedWriterMatchesBitAtATime) {
  // Random PutBit/PutBits/PutZeros sequences must produce the same bytes as
  // writing every bit individually.
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    BitWriter batched;
    BitWriter single;
    for (int op = 0; op < 60; ++op) {
      switch (rng.Uniform(3)) {
        case 0: {
          bool bit = rng.Uniform(2) != 0;
          batched.PutBit(bit);
          single.PutBit(bit);
          break;
        }
        case 1: {
          int width = static_cast<int>(rng.Uniform(65));
          uint64_t value = rng.Next();
          batched.PutBits(value, width);
          for (int i = width - 1; i >= 0; --i) single.PutBit((value >> i) & 1u);
          break;
        }
        case 2: {
          int count = static_cast<int>(rng.Uniform(20));
          batched.PutZeros(count);
          for (int i = 0; i < count; ++i) single.PutBit(false);
          break;
        }
      }
    }
    ASSERT_EQ(batched.num_bits(), single.num_bits()) << "trial " << trial;
    ASSERT_EQ(batched.bytes(), single.bytes()) << "trial " << trial;
  }
}

TEST(BitStream, AlignTo) {
  BitWriter w;
  w.PutBits(0b101, 3);
  w.AlignTo(8);
  EXPECT_EQ(w.num_bits(), 8u);
  w.AlignTo(8);
  EXPECT_EQ(w.num_bits(), 8u);  // already aligned: no-op
}

TEST(Zigzag, RoundTripAndOrdering) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  for (int64_t v = -1000; v <= 1000; ++v) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagDecode(ZigzagEncode(int64_t(1) << 40)), int64_t(1) << 40);
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::OutOfMemory("12GB exceeded");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_EQ(s.ToString(), "OutOfMemory: 12GB exceeded");
  EXPECT_EQ(Status::OK().ToString(), "OK");
}

TEST(Status, RobustnessCodesRoundTrip) {
  Status d = Status::DeadlineExceeded("query deadline exceeded");
  EXPECT_FALSE(d.ok());
  EXPECT_TRUE(d.IsDeadlineExceeded());
  EXPECT_FALSE(d.IsCancelled());
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: query deadline exceeded");

  Status c = Status::Cancelled("client went away");
  EXPECT_FALSE(c.ok());
  EXPECT_TRUE(c.IsCancelled());
  EXPECT_FALSE(c.IsDeadlineExceeded());
  EXPECT_EQ(c.ToString(), "Cancelled: client went away");

  Status i = Status::Internal("worker exception: boom");
  EXPECT_TRUE(i.IsInternal());
  EXPECT_EQ(i.ToString(), "Internal: worker exception: boom");
}

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::NotFound("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZipfIsSkewed) {
  Rng rng(11);
  uint64_t ones = 0, total = 20000;
  for (uint64_t i = 0; i < total; ++i) {
    uint64_t z = rng.Zipf(1000, 2.0);
    EXPECT_GE(z, 1u);
    EXPECT_LE(z, 1000u);
    if (z == 1) ++ones;
  }
  EXPECT_GT(ones, total / 3);  // alpha=2: P(1) ~ 0.6
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(), 64, [&](size_t tid, size_t b, size_t e) {
    EXPECT_LT(tid, pool.num_threads());
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 16, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  pool.ParallelFor(3, 100, [&](size_t, size_t b, size_t e) {
    sum.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(sum.load(), 3);
}

// Back-to-back calls make the caller's finish-wait race its reset of the job
// slot against workers still leaving RunChunks. The assertions only check
// coverage; the race itself is what a ThreadSanitizer build of this test
// reports.
TEST(ThreadPool, BackToBackParallelForIsRaceFree) {
  ThreadPool pool(4);
  constexpr int kCalls = 100000;
  std::atomic<size_t> covered{0};
  for (int call = 0; call < kCalls; ++call) {
    pool.ParallelFor(64, 1 + call % 3, [&](size_t, size_t b, size_t e) {
      covered.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(covered.load(), size_t{64} * kCalls);
}

}  // namespace
}  // namespace gcgt
