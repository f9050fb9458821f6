#include "src/support/leb128.h"

#include <gtest/gtest.h>

#include <limits>

namespace nsf {
namespace {

TEST(Leb128, U32RoundTripSmall) {
  for (uint32_t v : {0u, 1u, 63u, 64u, 127u, 128u, 300u, 16384u}) {
    std::vector<uint8_t> buf;
    WriteVarU32(buf, v);
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarU32(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Leb128, U32RoundTripBoundaries) {
  for (uint32_t v : {0x7fu, 0x80u, 0x3fffu, 0x4000u, 0x1fffffu, 0x200000u, 0xfffffffu,
                     0x10000000u, std::numeric_limits<uint32_t>::max()}) {
    std::vector<uint8_t> buf;
    WriteVarU32(buf, v);
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarU32(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Leb128, S32RoundTrip) {
  for (int32_t v : {0, 1, -1, 63, 64, -64, -65, 127, 128, -128, 8191, -8192,
                    std::numeric_limits<int32_t>::max(), std::numeric_limits<int32_t>::min()}) {
    std::vector<uint8_t> buf;
    WriteVarS32(buf, v);
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarS32(), v) << v;
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Leb128, S64RoundTrip) {
  for (int64_t v :
       {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-0x40}, int64_t{0x3f}, int64_t{-0x41},
        int64_t{1} << 40, -(int64_t{1} << 40), -(int64_t{1} << 62),
        std::numeric_limits<int64_t>::max(), std::numeric_limits<int64_t>::min()}) {
    std::vector<uint8_t> buf;
    WriteVarS64(buf, v);
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarS64(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Leb128, U64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128}, uint64_t{1} << 35,
                     std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> buf;
    WriteVarU64(buf, v);
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarU64(), v) << v;
    EXPECT_TRUE(r.ok());
  }
}

TEST(Leb128, KnownEncodings) {
  // 624485 encodes as E5 8E 26 (classic LEB example value).
  std::vector<uint8_t> buf;
  WriteVarU32(buf, 624485);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf[0], 0xe5);
  EXPECT_EQ(buf[1], 0x8e);
  EXPECT_EQ(buf[2], 0x26);
  // -1 as s32 is a single 0x7f byte.
  buf.clear();
  WriteVarS32(buf, -1);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0x7f);
}

TEST(Leb128, TruncatedInputFails) {
  std::vector<uint8_t> buf = {0x80, 0x80};  // continuation bits but no end
  ByteReader r(buf);
  r.ReadVarU32();
  EXPECT_FALSE(r.ok());
}

TEST(Leb128, OverlongU32Fails) {
  // 6 bytes of continuation is malformed for u32.
  std::vector<uint8_t> buf = {0x80, 0x80, 0x80, 0x80, 0x80, 0x00};
  ByteReader r(buf);
  r.ReadVarU32();
  EXPECT_FALSE(r.ok());
}

TEST(Leb128, NonCanonicalHighBitsRejected) {
  // Final byte carries bits beyond bit 31.
  std::vector<uint8_t> buf = {0x80, 0x80, 0x80, 0x80, 0x70};
  {
    ByteReader r(buf);
    r.ReadVarU32();
    EXPECT_FALSE(r.ok());
  }

  // The last allowed byte's bits beyond the type's width must be zero
  // (unsigned) or copies of the sign bit (signed).
  std::vector<uint8_t> u64(9, 0x80);
  u64.push_back(0x7f);
  std::vector<uint8_t> s64(9, 0x80);
  s64.push_back(0x3e);
  const std::vector<uint8_t> s33 = {0x80, 0x80, 0x80, 0x80, 0x20};
  {
    ByteReader r(buf);
    r.ReadVarS32();
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(s33);
    r.ReadVarS33();
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(u64);
    r.ReadVarU64();
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(s64);
    r.ReadVarS64();
    EXPECT_FALSE(r.ok());
  }

  // The canonical encodings at each type's limit still decode.
  const std::vector<uint8_t> s32_min = {0x80, 0x80, 0x80, 0x80, 0x78};
  std::vector<uint8_t> s64_min(9, 0x80);
  s64_min.push_back(0x7f);
  std::vector<uint8_t> u64_max(9, 0xff);
  u64_max.push_back(0x01);
  {
    ByteReader r(s32_min);
    EXPECT_EQ(r.ReadVarS32(), std::numeric_limits<int32_t>::min());
    EXPECT_TRUE(r.ok());
  }
  {
    ByteReader r(buf);  // s33 -2^32
    EXPECT_EQ(r.ReadVarS33(), -(int64_t{1} << 32));
    EXPECT_TRUE(r.ok());
  }
  {
    ByteReader r(s64_min);
    EXPECT_EQ(r.ReadVarS64(), std::numeric_limits<int64_t>::min());
    EXPECT_TRUE(r.ok());
  }
  {
    ByteReader r(u64_max);
    EXPECT_EQ(r.ReadVarU64(), std::numeric_limits<uint64_t>::max());
    EXPECT_TRUE(r.ok());
  }
}

TEST(Leb128, EveryOneByteEncodingDecodesInPlace) {
  for (int b = 0; b < 0x80; b++) {
    const std::vector<uint8_t> buf = {static_cast<uint8_t>(b), 0xff};
    // Bit 6 is the sign of a one-byte signed encoding: 0x40 is -64, 0x7f -1.
    const int64_t as_signed = b < 0x40 ? b : b - 0x80;
    {
      ByteReader r(buf);
      EXPECT_EQ(r.ReadVarU32(), static_cast<uint32_t>(b)) << b;
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.pos(), 1u);
    }
    {
      ByteReader r(buf);
      EXPECT_EQ(r.ReadVarS32(), as_signed) << b;
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.pos(), 1u);
    }
    {
      ByteReader r(buf);
      EXPECT_EQ(r.ReadVarS64(), as_signed) << b;
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.pos(), 1u);
    }
  }
}

TEST(Leb128, ReadAtEndOfBufferFails) {
  const std::vector<uint8_t> buf = {0x05};
  {
    ByteReader r(buf);
    EXPECT_EQ(r.ReadByte(), 0x05);
    EXPECT_EQ(r.ReadByte(), 0);
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarU32(), 5u);
    EXPECT_EQ(r.ReadVarU32(), 0u);
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarS32(), 5);
    EXPECT_EQ(r.ReadVarS32(), 0);
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarS64(), 5);
    EXPECT_EQ(r.ReadVarS64(), 0);
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(nullptr, 0);
    EXPECT_EQ(r.ReadVarU32(), 0u);
    EXPECT_FALSE(r.ok());
  }
}

TEST(ByteReader, FixedReads) {
  std::vector<uint8_t> buf = {0x78, 0x56, 0x34, 0x12, 0xff};
  ByteReader r(buf);
  EXPECT_EQ(r.ReadFixedU32(), 0x12345678u);
  EXPECT_EQ(r.ReadByte(), 0xff);
  EXPECT_TRUE(r.AtEnd());
  r.ReadByte();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, ReadBytesBeyondEndFails) {
  std::vector<uint8_t> buf = {1, 2, 3};
  ByteReader r(buf);
  std::vector<uint8_t> out;
  EXPECT_FALSE(r.ReadBytes(4, &out));
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, S33VoidBlockType) {
  std::vector<uint8_t> buf = {0x40};
  ByteReader r(buf);
  EXPECT_EQ(r.ReadVarS33(), -0x40);
}

TEST(ByteReader, S33ValTypes) {
  // i32 block type 0x7f decodes to -1, f64 0x7c to -4.
  {
    std::vector<uint8_t> buf = {0x7f};
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarS33(), -1);
  }
  {
    std::vector<uint8_t> buf = {0x7c};
    ByteReader r(buf);
    EXPECT_EQ(r.ReadVarS33(), -4);
  }
}

}  // namespace
}  // namespace nsf
