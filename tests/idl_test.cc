// Tests for the interface description language and its interpretive stubs.

#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/wire/idl.h"

namespace hcs {
namespace {

const char* kBindingIdl = R"(
// The HRPC binding record, as the stub compiler would see it.
message Binding {
  host: string;
  port: u32;
  program: u32;
  big_id: u64;
  reachable: bool;
  aliases: string_list;
  cookie: opaque;
}
)";

WireValue SampleRecord() {
  return RecordBuilder()
      .Str("host", "fiji.cs.washington.edu")
      .U32("port", 2049)
      .U32("program", 100003)
      .U64("big_id", 0x1122334455667788ULL)
      .U32("reachable", 1)
      .Value("aliases", WireValue::OfList({WireValue::OfString("fiji"),
                                           WireValue::OfString("fiji-gw")}))
      .Blob("cookie", Bytes{9, 8, 7})
      .Build();
}

TEST(IdlParserTest, ParsesMessages) {
  Result<std::vector<IdlMessage>> messages = ParseIdl(kBindingIdl);
  ASSERT_TRUE(messages.ok()) << messages.status();
  ASSERT_EQ(messages->size(), 1u);
  const IdlMessage& message = messages->front();
  EXPECT_EQ(message.name(), "Binding");
  ASSERT_EQ(message.fields().size(), 7u);
  EXPECT_EQ(message.fields()[0], (IdlField{"host", IdlType::kString}));
  EXPECT_EQ(message.fields()[5], (IdlField{"aliases", IdlType::kStringList}));
}

TEST(IdlParserTest, ParsesMultipleMessagesAndComments) {
  Result<std::vector<IdlMessage>> messages = ParseIdl(R"(
message A {
  x: u32;
}
// comment between messages
message B {
  y: string;
}
)");
  ASSERT_TRUE(messages.ok()) << messages.status();
  EXPECT_EQ(messages->size(), 2u);
}

TEST(IdlParserTest, SyntaxErrorsCarryLineNumbers) {
  EXPECT_NE(ParseIdl("message A {\n  x: nosuchtype;\n}\n").status().message().find("line 2"),
            std::string::npos);
  EXPECT_NE(ParseIdl("message A {\n  x: u32\n}\n").status().message().find("line 2"),
            std::string::npos);
  EXPECT_FALSE(ParseIdl("message A {\n}\n").ok());               // empty message
  EXPECT_FALSE(ParseIdl("x: u32;\n").ok());                      // field outside message
  EXPECT_FALSE(ParseIdl("message A {\n  x: u32;\n").ok());       // unterminated
  EXPECT_FALSE(ParseIdl("message A {\nmessage B {\n}\n}").ok()); // nested
  EXPECT_FALSE(ParseIdl("message {").ok());                      // unnamed
}

class IdlStubTest : public ::testing::TestWithParam<IdlRep> {
 protected:
  IdlMessage Message() {
    return ParseIdl(kBindingIdl).value().front();
  }
};

TEST_P(IdlStubTest, RoundTripsThroughEitherRepresentation) {
  IdlMessage message = Message();
  WireValue record = SampleRecord();
  Result<Bytes> wire = message.Marshal(record, GetParam());
  ASSERT_TRUE(wire.ok()) << wire.status();
  Result<WireValue> decoded = message.Demarshal(*wire, GetParam());
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->StringField("host").value(), "fiji.cs.washington.edu");
  EXPECT_EQ(decoded->Uint32Field("port").value(), 2049u);
  EXPECT_EQ(decoded->Field("big_id").value().AsUint64().value(), 0x1122334455667788ULL);
  EXPECT_EQ(decoded->Uint32Field("reachable").value(), 1u);
  EXPECT_EQ(decoded->Field("aliases").value().AsList().value().size(), 2u);
  EXPECT_EQ(decoded->Field("cookie").value().AsBlob().value(), (Bytes{9, 8, 7}));
}

TEST_P(IdlStubTest, TheTwoRepresentationsProduceDifferentBytes) {
  IdlMessage message = Message();
  Bytes xdr = message.Marshal(SampleRecord(), IdlRep::kXdr).value();
  Bytes courier = message.Marshal(SampleRecord(), IdlRep::kCourier).value();
  EXPECT_NE(xdr, courier) << "XDR pads to 4 bytes, Courier to 2 — same data, different wire";
}

TEST_P(IdlStubTest, MissingAndMistypedFieldsRejected) {
  IdlMessage message = Message();
  WireValue missing = RecordBuilder().Str("host", "h").Build();
  EXPECT_EQ(message.Marshal(missing, GetParam()).status().code(),
            StatusCode::kInvalidArgument);

  WireValue mistyped = SampleRecord();
  // Replace port with a string.
  std::vector<WireField> fields = mistyped.AsRecord().value();
  for (WireField& field : fields) {
    if (field.first == "port") {
      field.second = WireValue::OfString("not-a-number");
    }
  }
  EXPECT_FALSE(message.Marshal(WireValue::OfRecord(fields), GetParam()).ok());

  // An undescribed extra field is ignored: records evolve additively.
  std::vector<WireField> extended = SampleRecord().AsRecord().value();
  extended.emplace_back("extra", WireValue::OfString("ok"));
  EXPECT_TRUE(message.Marshal(WireValue::OfRecord(extended), GetParam()).ok());
}

TEST_P(IdlStubTest, TruncatedWireFailsCleanly) {
  IdlMessage message = Message();
  Bytes wire = message.Marshal(SampleRecord(), GetParam()).value();
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Bytes truncated(wire.begin(), wire.begin() + rng.Uniform(wire.size()));
    Result<WireValue> decoded = message.Demarshal(truncated, GetParam());
    EXPECT_FALSE(decoded.ok());
  }
  // Trailing junk also rejected.
  wire.push_back(0);
  wire.push_back(0);
  EXPECT_EQ(message.Demarshal(wire, GetParam()).status().code(),
            StatusCode::kProtocolError);
}

INSTANTIATE_TEST_SUITE_P(Reps, IdlStubTest, ::testing::Values(IdlRep::kXdr, IdlRep::kCourier),
                         [](const auto& param_info) {
                           return param_info.param == IdlRep::kXdr ? "Xdr" : "Courier";
                         });

}  // namespace
}  // namespace hcs
