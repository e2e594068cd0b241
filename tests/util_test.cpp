// Unit tests for src/util: Status/Result, the little-endian codec, CRC-32
// (against known vectors), the deterministic RNG, histograms, and tables.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/util/codec.h"
#include "src/util/crc32.h"
#include "src/util/histogram.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/table.h"

namespace lfs {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = NotFoundError("no such file '/a'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: no such file '/a'");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); c++) {
    EXPECT_FALSE(StatusCodeName(static_cast<StatusCode>(c)).empty());
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = NoSpaceError("full");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNoSpace);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) {
      return InvalidArgumentError("nope");
    }
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    LFS_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(CodecTest, RoundTripsAllWidths) {
  std::vector<uint8_t> buf(64, 0xFF);
  Encoder enc(buf);
  enc.PutU8(0xAB);
  enc.PutU16(0xBEEF);
  enc.PutU32(0xDEADBEEF);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutLengthPrefixedString("hello");
  EXPECT_EQ(enc.pos(), 1u + 2 + 4 + 8 + 2 + 5);
  enc.ZeroRest();
  EXPECT_EQ(enc.pos(), 64u);
  EXPECT_TRUE(enc.ok());
  EXPECT_EQ(buf.back(), 0);

  Decoder dec(buf);
  EXPECT_EQ(dec.GetU8(), 0xAB);
  EXPECT_EQ(dec.GetU16(), 0xBEEF);
  EXPECT_EQ(dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.GetLengthPrefixedString(), "hello");
  EXPECT_TRUE(dec.ok());
}

TEST(CodecTest, LittleEndianOnDisk) {
  std::vector<uint8_t> buf(4);
  Encoder enc(buf);
  enc.PutU32(0x01020304);
  ASSERT_EQ(enc.pos(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(CodecTest, OverwriteSetsStickyError) {
  // The encoder writes into the first six bytes of an eight-byte buffer; the
  // last two must survive every encode that does not fit.
  std::vector<uint8_t> buf(8, 0xEE);
  Encoder enc(std::span<uint8_t>(buf).first(6));
  enc.PutU32(0x01020304);
  EXPECT_TRUE(enc.ok());
  enc.PutU32(0x05060708);  // 4 bytes into the 2 left
  EXPECT_FALSE(enc.ok());
  enc.PutU8(0x09);  // would fit alone, but the error is sticky
  enc.PutString("xyz");
  EXPECT_FALSE(enc.ok());
  EXPECT_EQ(buf, (std::vector<uint8_t>{0x04, 0x03, 0x02, 0x01, 0xEE, 0xEE, 0xEE, 0xEE}));
}

TEST(CodecTest, OverreadSetsStickyError) {
  std::vector<uint8_t> buf = {1, 2};
  Decoder dec(buf);
  EXPECT_EQ(dec.GetU32(), 0u);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.GetU64(), 0u);  // still failed, no UB
}

TEST(Crc32Test, KnownVectors) {
  // CRC-32/ISO-HDLC of "123456789" is 0xCBF43926.
  const char* s = "123456789";
  std::span<const uint8_t> data(reinterpret_cast<const uint8_t*>(s), 9);
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
  // Empty input.
  EXPECT_EQ(Crc32({}), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  uint32_t state = Crc32Init();
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(0, 400));
  state = Crc32Update(state, std::span<const uint8_t>(data).subspan(400));
  EXPECT_EQ(Crc32Finish(state), Crc32(data));
}

// The reflected IEEE CRC one byte and one bit at a time, sharing nothing
// with the library's table or its carry-less folding.
uint32_t ReferenceCrc32Update(uint32_t state, std::span<const uint8_t> data) {
  for (uint8_t byte : data) {
    state ^= byte;
    for (int bit = 0; bit < 8; bit++) {
      state = (state & 1) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Inputs of 256 bytes or more take the 512-bit fold where the CPU has
  // VPCLMULQDQ, inputs of 64 bytes or more the 128-bit fold where it has
  // PCLMULQDQ; shorter inputs and the < 16-byte tails take the table loop.
  // Up to 1,100 bytes the 512-bit fold runs 1-4 blocks of 256 bytes, 0-3
  // trailing 64-byte folds and 0-3 16-byte folds. A kernel this CPU lacks
  // goes untested here, so the log names the one it has.
  std::printf("CRC-32 kernel: %s\n", Crc32KernelName());
  Rng rng(20);
  std::vector<uint8_t> buf(16 + 1100);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (size_t align = 0; align < 16; align++) {
    for (size_t len = 0; len <= 1100; len++) {
      auto data = std::span<const uint8_t>(buf).subspan(align, len);
      uint32_t state = static_cast<uint32_t>(rng.NextU64());
      ASSERT_EQ(Crc32Update(state, data), ReferenceCrc32Update(state, data))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32Test, RandomLengthsAndSplitsMatchReference) {
  Rng rng(21);
  std::vector<uint8_t> buf(16 + 64 * 1024);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (int trial = 0; trial < 64; trial++) {
    size_t align = rng.NextBelow(16);
    size_t len = rng.NextBelow(64 * 1024 + 1);
    size_t split = rng.NextBelow(len + 1);
    auto data = std::span<const uint8_t>(buf).subspan(align, len);
    uint32_t state = static_cast<uint32_t>(rng.NextU64());
    uint32_t expect = ReferenceCrc32Update(state, data);
    ASSERT_EQ(Crc32Update(state, data), expect) << "align " << align << " len " << len;
    uint32_t pieces = Crc32Update(Crc32Update(state, data.first(split)), data.subspan(split));
    ASSERT_EQ(pieces, expect) << "align " << align << " len " << len << " split " << split;
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.NextInRange(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(RngTest, NextDoubleUniformish) {
  Rng rng(9);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, FileSizeBoundedAndPositive) {
  Rng rng(13);
  for (int i = 0; i < 10000; i++) {
    uint64_t s = rng.NextFileSize(8192, 65536);
    EXPECT_GE(s, 1u);
    EXPECT_LE(s, 65536u);
  }
}

TEST(HistogramTest, BucketsAndFractions) {
  Histogram h(10);
  h.Add(0.05);
  h.Add(0.05);
  h.Add(0.95);
  h.Add(1.0);   // clamps into the last bucket
  h.Add(-0.5);  // clamps into the first bucket
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.6);
  EXPECT_NEAR(h.BucketMid(0), 0.05, 1e-9);
}

TEST(HistogramTest, RendersAsciiAndCsv) {
  Histogram h(4);
  h.Add(0.1);
  h.Add(0.9);
  std::string ascii = h.ToAscii("test");
  EXPECT_NE(ascii.find("test (n=2)"), std::string::npos);
  std::string csv = h.ToCsv();
  EXPECT_NE(csv.find("utilization,fraction"), std::string::npos);
}

TEST(TableTest, AlignsColumns) {
  Table t({"a", "long header"});
  t.AddRow({"xxxxxxx", "1"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("| a       | long header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxxxx | 1           |"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::FmtPercent(0.656), "66%");
  EXPECT_EQ(Table::FmtPercent(0.5, 1), "50.0%");
}

}  // namespace
}  // namespace lfs
