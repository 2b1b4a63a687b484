// Unit + property tests for src/wire: buffers, XDR, Courier, WireValue.

#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/wire/buffer.h"
#include "src/wire/courier.h"
#include "src/wire/marshal.h"
#include "src/wire/value.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

// --- Buffer ------------------------------------------------------------------

TEST(BufferTest, IntegerRoundTripBigEndian) {
  BufferWriter w;
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789abcde);
  w.PutU64(0x0123456789abcdefULL);
  Bytes bytes = w.Take();
  EXPECT_EQ(bytes[1], 0x34);  // big-endian high byte first
  BufferReader r(bytes);
  EXPECT_EQ(r.GetU8().value(), 0x12);
  EXPECT_EQ(r.GetU16().value(), 0x3456);
  EXPECT_EQ(r.GetU32().value(), 0x789abcdeu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, UnderrunIsProtocolErrorNotUb) {
  Bytes two{1, 2};
  BufferReader r(two);
  EXPECT_TRUE(r.GetU16().ok());
  EXPECT_EQ(r.GetU16().status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(r.GetU8().status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(r.Skip(1).code(), StatusCode::kProtocolError);
}

// Regression: Need() used to test `pos_ + n > size_`, which wraps for n near
// SIZE_MAX once the cursor has advanced — the request passed the bound check
// and the subsequent copy read out of bounds.
TEST(BufferTest, HugeLengthCannotWrapTheBoundCheck) {
  Bytes four{1, 2, 3, 4};
  BufferReader r(four);
  EXPECT_TRUE(r.GetU8().ok());  // pos_ = 1, so pos_ + SIZE_MAX wraps to 0
  EXPECT_EQ(r.GetBytes(SIZE_MAX).status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(r.Skip(SIZE_MAX - 2).code(), StatusCode::kProtocolError);
  EXPECT_EQ(r.GetBytes(3).value(), (Bytes{2, 3, 4}));  // reader still usable
}

TEST(BufferTest, GetBytesAndSkip) {
  BufferWriter w;
  w.PutBytes(Bytes{9, 8, 7, 6});
  w.PutZeros(2);
  Bytes bytes = w.bytes();
  BufferReader r(bytes);
  EXPECT_EQ(r.GetBytes(4).value(), (Bytes{9, 8, 7, 6}));
  EXPECT_TRUE(r.Skip(2).ok());
  EXPECT_TRUE(r.AtEnd());
}

// --- XDR -----------------------------------------------------------------------

TEST(XdrTest, StringsArePaddedToFourBytes) {
  XdrEncoder enc;
  enc.PutString("abcde");  // 5 bytes -> 4 len + 5 data + 3 pad
  EXPECT_EQ(enc.size(), 12u);
  XdrDecoder dec(enc.bytes());
  EXPECT_EQ(dec.GetString().value(), "abcde");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, BoolRejectsOutOfRange) {
  XdrEncoder enc;
  enc.PutUint32(2);
  XdrDecoder dec(enc.bytes());
  EXPECT_EQ(dec.GetBool().status().code(), StatusCode::kProtocolError);
}

TEST(XdrTest, OpaqueRoundTrip) {
  Bytes payload{0, 1, 2, 3, 4, 5, 6};
  XdrEncoder enc;
  enc.PutOpaque(payload);
  enc.PutFixedOpaque(payload);
  XdrDecoder dec(enc.bytes());
  EXPECT_EQ(dec.GetOpaque().value(), payload);
  EXPECT_EQ(dec.GetFixedOpaque(payload.size()).value(), payload);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(XdrTest, PaddingHelper) {
  EXPECT_EQ(XdrPadding(0), 0u);
  EXPECT_EQ(XdrPadding(1), 3u);
  EXPECT_EQ(XdrPadding(4), 0u);
  EXPECT_EQ(XdrPadding(5), 3u);
}

TEST(XdrTest, RandomizedScalarRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    uint32_t u32 = static_cast<uint32_t>(rng.Next());
    int32_t i32 = static_cast<int32_t>(rng.Next());
    uint64_t u64 = rng.Next();
    std::string s = rng.Identifier(rng.Uniform(40));
    XdrEncoder enc;
    enc.PutUint32(u32);
    enc.PutInt32(i32);
    enc.PutUint64(u64);
    enc.PutString(s);
    XdrDecoder dec(enc.bytes());
    EXPECT_EQ(dec.GetUint32().value(), u32);
    EXPECT_EQ(dec.GetInt32().value(), i32);
    EXPECT_EQ(dec.GetUint64().value(), u64);
    EXPECT_EQ(dec.GetString().value(), s);
    EXPECT_TRUE(dec.AtEnd());
  }
}

// --- Courier ---------------------------------------------------------------------

TEST(CourierTest, StringsArePaddedToWords) {
  CourierEncoder enc;
  enc.PutString("abc");  // 2 len + 3 data + 1 pad
  EXPECT_EQ(enc.size(), 6u);
  CourierDecoder dec(enc.bytes());
  EXPECT_EQ(dec.GetString().value(), "abc");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CourierTest, ScalarsRoundTrip) {
  CourierEncoder enc;
  enc.PutCardinal(0xbeef);
  enc.PutLongCardinal(0xdeadbeef);
  enc.PutBoolean(true);
  enc.PutSequence(Bytes{1, 2, 3});
  CourierDecoder dec(enc.bytes());
  EXPECT_EQ(dec.GetCardinal().value(), 0xbeef);
  EXPECT_EQ(dec.GetLongCardinal().value(), 0xdeadbeefu);
  EXPECT_TRUE(dec.GetBoolean().value());
  EXPECT_EQ(dec.GetSequence().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CourierTest, BooleanRejectsOutOfRange) {
  CourierEncoder enc;
  enc.PutCardinal(7);
  CourierDecoder dec(enc.bytes());
  EXPECT_EQ(dec.GetBoolean().status().code(), StatusCode::kProtocolError);
}

// --- WireValue -----------------------------------------------------------------

WireValue DeepValue() {
  return RecordBuilder()
      .Str("host", "fiji.cs.washington.edu")
      .U32("port", 2049)
      .U64("big", 0x1122334455667788ULL)
      .Blob("raw", Bytes{1, 2, 3})
      .Value("list", WireValue::OfList({WireValue::OfUint32(1), WireValue::OfString("x"),
                                        WireValue::Null()}))
      .Value("nested", RecordBuilder().Str("inner", "v").Build())
      .Build();
}

TEST(WireValueTest, RoundTripAllKinds) {
  WireValue v = DeepValue();
  Result<WireValue> decoded = WireValue::Decode(v.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, v);
}

TEST(WireValueTest, FieldAccessors) {
  WireValue v = DeepValue();
  EXPECT_EQ(v.StringField("host").value(), "fiji.cs.washington.edu");
  EXPECT_EQ(v.Uint32Field("port").value(), 2049u);
  EXPECT_EQ(v.Field("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.Field("nested").value().StringField("inner").value(), "v");
  // Type mismatch is a protocol error, not a crash.
  EXPECT_EQ(v.Uint32Field("host").status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(WireValue::OfUint32(1).Field("x").status().code(), StatusCode::kProtocolError);
}

TEST(WireValueTest, LeafCountCountsLeaves) {
  EXPECT_EQ(WireValue::OfUint32(1).LeafCount(), 1u);
  // host, port, big, raw, 3 list items, nested.inner = 8 leaves
  EXPECT_EQ(DeepValue().LeafCount(), 8u);
}

TEST(WireValueTest, TrailingBytesRejected) {
  Bytes encoded = WireValue::OfUint32(5).Encode();
  encoded.push_back(0);
  EXPECT_EQ(WireValue::Decode(encoded).status().code(), StatusCode::kProtocolError);
}

TEST(WireValueTest, UnknownTagRejected) {
  XdrEncoder enc;
  enc.PutUint32(99);
  EXPECT_EQ(WireValue::Decode(enc.bytes()).status().code(), StatusCode::kProtocolError);
}

TEST(WireValueTest, DepthBombRejected) {
  // 40 nested single-item lists exceed the decoder's depth guard.
  XdrEncoder enc;
  for (int i = 0; i < 40; ++i) {
    enc.PutUint32(static_cast<uint32_t>(WireValue::Kind::kList));
    enc.PutUint32(1);
  }
  enc.PutUint32(static_cast<uint32_t>(WireValue::Kind::kNull));
  EXPECT_EQ(WireValue::Decode(enc.bytes()).status().code(), StatusCode::kProtocolError);
}

TEST(WireValueTest, HugeContainerRejected) {
  XdrEncoder enc;
  enc.PutUint32(static_cast<uint32_t>(WireValue::Kind::kList));
  enc.PutUint32(0xffffffff);
  EXPECT_EQ(WireValue::Decode(enc.bytes()).status().code(), StatusCode::kProtocolError);
}

TEST(WireValueTest, ToStringIsReadable) {
  WireValue v = RecordBuilder().Str("host", "fiji").U32("port", 53).Build();
  EXPECT_EQ(v.ToString(), "{host: \"fiji\", port: 53}");
}

// Randomized structural round-trip (property test).
WireValue RandomValue(Rng* rng, int depth) {
  uint64_t kind = rng->Uniform(depth > 2 ? 5 : 7);
  switch (kind) {
    case 0:
      return WireValue::Null();
    case 1:
      return WireValue::OfUint32(static_cast<uint32_t>(rng->Next()));
    case 2:
      return WireValue::OfUint64(rng->Next());
    case 3:
      return WireValue::OfString(rng->Identifier(rng->Uniform(24)));
    case 4: {
      Bytes blob(rng->Uniform(48), 0);
      for (uint8_t& b : blob) {
        b = static_cast<uint8_t>(rng->Next());
      }
      return WireValue::OfBlob(std::move(blob));
    }
    case 5: {
      std::vector<WireValue> items;
      for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
        items.push_back(RandomValue(rng, depth + 1));
      }
      return WireValue::OfList(std::move(items));
    }
    default: {
      std::vector<WireField> fields;
      for (uint64_t i = 0, n = rng->Uniform(4); i < n; ++i) {
        fields.emplace_back(rng->Identifier(6), RandomValue(rng, depth + 1));
      }
      return WireValue::OfRecord(std::move(fields));
    }
  }
}

class WireValueRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireValueRoundTripTest, EncodeDecodeIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    WireValue v = RandomValue(&rng, 0);
    Result<WireValue> decoded = WireValue::Decode(v.Encode());
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireValueRoundTripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Marshal units -----------------------------------------------------------

TEST(MarshalUnitsTest, BytesToRecordEquivalents) {
  EXPECT_EQ(MarshalUnitsForBytes(0), 1);
  EXPECT_EQ(MarshalUnitsForBytes(1), 1);
  EXPECT_EQ(MarshalUnitsForBytes(128), 1);
  EXPECT_EQ(MarshalUnitsForBytes(129), 2);
  EXPECT_EQ(MarshalUnitsForBytes(1024), 8);
}

TEST(MarshalUnitsTest, ChargingAdvancesClockByEngine) {
  World world;
  double stub = kCosts.StubDemarshalMs(3);
  double hand = kCosts.HandMarshalMs(3);
  double t0 = world.clock().NowMs();
  ChargeDemarshal(&world, MarshalEngine::kStubGenerated, 3);
  EXPECT_NEAR(world.clock().NowMs() - t0, stub, 1e-9);
  t0 = world.clock().NowMs();
  ChargeDemarshal(&world, MarshalEngine::kHandCoded, 3);
  EXPECT_NEAR(world.clock().NowMs() - t0, hand, 1e-9);
  EXPECT_GT(stub, hand * 5) << "stub-generated marshalling should dominate hand-coded";
}

}  // namespace
}  // namespace hcs
