// Byte identity of the wire formats: a fixed corpus of messages is encoded
// and compared, byte for byte, with hex recorded from an earlier build of
// the codec. Every peer of this tree, and every golden in tests/golden/,
// depends on these bytes, so a codec change that moves one of them is a
// protocol change, not an optimisation.
//
// The corpus holds one instance of every encode/decode pair that
// tools/lint_wire.py --list-pairs reports (both the Encode and the
// EncodeTo form where a type has both), the XDR and Courier primitives at
// every padding remainder, WireValues of every kind nested inside one
// another, and the Raw, Sun RPC and Courier call and reply headers with
// and without a RequestContext. Each golden must also decode back to its
// value: the decoded value re-encodes to the same bytes, and equals the
// original where the type has an equality.

#include <gtest/gtest.h>

#include <concepts>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/bindns/record.h"
#include "src/ch/name.h"
#include "src/ch/protocol.h"
#include "src/hns/name.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/binding.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/wire/courier.h"
#include "src/wire/value.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

std::string ToHex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Bytes FromHex(const std::string& hex) {
  Bytes out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// One corpus entry: how to encode the value, and how to decode a golden
// back and re-encode what came out (failing when the decoded value differs
// from the original).
struct Entry {
  std::string name;
  std::function<Bytes()> encode;
  std::function<Result<Bytes>(const Bytes&)> decode_reencode;
};

template <typename T>
void ExpectSameValue(const std::string& name, const T& decoded, const T& original) {
  if constexpr (std::equality_comparable<T>) {
    EXPECT_TRUE(decoded == original) << name << ": the golden decodes to a different value";
  }
}

// A message with `Bytes Encode() const` and `static Result<T> Decode(...)`.
template <typename T>
Entry Message(std::string name, T value) {
  Entry entry;
  entry.name = name;
  entry.encode = [value] { return value.Encode(); };
  entry.decode_reencode = [name, value](const Bytes& bytes) -> Result<Bytes> {
    HCS_ASSIGN_OR_RETURN(T decoded, T::Decode(bytes));
    ExpectSameValue(name, decoded, value);
    return decoded.Encode();
  };
  return entry;
}

// A type written into an XDR stream with EncodeTo(&enc) / DecodeFrom(&dec).
template <typename T>
Entry XdrNested(std::string name, T value) {
  Entry entry;
  entry.name = name;
  entry.encode = [value] {
    XdrEncoder enc;
    value.EncodeTo(&enc);
    return enc.Take();
  };
  entry.decode_reencode = [name, value](const Bytes& bytes) -> Result<Bytes> {
    XdrDecoder dec(bytes);
    HCS_ASSIGN_OR_RETURN(T decoded, T::DecodeFrom(&dec));
    if (!dec.AtEnd()) {
      return ProtocolError(name + ": trailing bytes");
    }
    ExpectSameValue(name, decoded, value);
    XdrEncoder enc;
    decoded.EncodeTo(&enc);
    return enc.Take();
  };
  return entry;
}

// The same, for the types whose EncodeTo/DecodeFrom take references.
template <typename T>
Entry XdrNestedByRef(std::string name, T value) {
  Entry entry;
  entry.name = name;
  entry.encode = [value] {
    XdrEncoder enc;
    value.EncodeTo(enc);
    return enc.Take();
  };
  entry.decode_reencode = [name, value](const Bytes& bytes) -> Result<Bytes> {
    XdrDecoder dec(bytes);
    HCS_ASSIGN_OR_RETURN(T decoded, T::DecodeFrom(dec));
    if (!dec.AtEnd()) {
      return ProtocolError(name + ": trailing bytes");
    }
    ExpectSameValue(name, decoded, value);
    XdrEncoder enc;
    decoded.EncodeTo(enc);
    return enc.Take();
  };
  return entry;
}

// Strings and blobs of every length 0..5 cover every padding remainder of
// both representations (XDR pads to 4 bytes, Courier to 2).
const char* const kPadStrings[] = {"", "a", "ab", "abc", "abcd", "abcde"};

Entry XdrPrimitives() {
  Entry entry;
  entry.name = "XdrPrimitives";
  entry.encode = [] {
    XdrEncoder enc;
    enc.PutUint32(0xdeadbeef);
    enc.PutInt32(-2);
    enc.PutUint64(0x0102030405060708ull);
    enc.PutBool(true);
    enc.PutBool(false);
    for (const char* s : kPadStrings) {
      enc.PutString(s);
    }
    for (const char* s : kPadStrings) {
      enc.PutOpaque(BytesFromString(s));
    }
    for (const char* s : kPadStrings) {
      enc.PutFixedOpaque(BytesFromString(s));
    }
    return enc.Take();
  };
  entry.decode_reencode = [](const Bytes& bytes) -> Result<Bytes> {
    XdrDecoder dec(bytes);
    XdrEncoder enc;
    HCS_ASSIGN_OR_RETURN(uint32_t u32, dec.GetUint32());
    enc.PutUint32(u32);
    HCS_ASSIGN_OR_RETURN(int32_t i32, dec.GetInt32());
    EXPECT_EQ(i32, -2);
    enc.PutInt32(i32);
    HCS_ASSIGN_OR_RETURN(uint64_t u64, dec.GetUint64());
    enc.PutUint64(u64);
    for (int i = 0; i < 2; ++i) {
      HCS_ASSIGN_OR_RETURN(bool b, dec.GetBool());
      enc.PutBool(b);
    }
    for (const char* s : kPadStrings) {
      HCS_ASSIGN_OR_RETURN(std::string got, dec.GetString());
      EXPECT_EQ(got, s);
      enc.PutString(got);
    }
    for (const char* s : kPadStrings) {
      HCS_ASSIGN_OR_RETURN(Bytes got, dec.GetOpaque());
      EXPECT_EQ(got, BytesFromString(s));
      enc.PutOpaque(got);
    }
    for (const char* s : kPadStrings) {
      HCS_ASSIGN_OR_RETURN(Bytes got, dec.GetFixedOpaque(std::string(s).size()));
      EXPECT_EQ(got, BytesFromString(s));
      enc.PutFixedOpaque(got);
    }
    if (!dec.AtEnd()) {
      return ProtocolError("XdrPrimitives: trailing bytes");
    }
    return enc.Take();
  };
  return entry;
}

Entry CourierPrimitives() {
  Entry entry;
  entry.name = "CourierPrimitives";
  entry.encode = [] {
    CourierEncoder enc;
    enc.PutCardinal(0xbeef);
    enc.PutLongCardinal(0x01020304);
    enc.PutBoolean(true);
    enc.PutBoolean(false);
    for (const char* s : kPadStrings) {
      enc.PutString(s);
    }
    for (const char* s : kPadStrings) {
      enc.PutSequence(BytesFromString(s));
    }
    return enc.Take();
  };
  entry.decode_reencode = [](const Bytes& bytes) -> Result<Bytes> {
    CourierDecoder dec(bytes);
    CourierEncoder enc;
    HCS_ASSIGN_OR_RETURN(uint16_t card, dec.GetCardinal());
    enc.PutCardinal(card);
    HCS_ASSIGN_OR_RETURN(uint32_t long_card, dec.GetLongCardinal());
    enc.PutLongCardinal(long_card);
    for (int i = 0; i < 2; ++i) {
      HCS_ASSIGN_OR_RETURN(bool b, dec.GetBoolean());
      enc.PutBoolean(b);
    }
    for (const char* s : kPadStrings) {
      HCS_ASSIGN_OR_RETURN(std::string got, dec.GetString());
      EXPECT_EQ(got, s);
      enc.PutString(got);
    }
    for (const char* s : kPadStrings) {
      HCS_ASSIGN_OR_RETURN(Bytes got, dec.GetSequence());
      EXPECT_EQ(got, BytesFromString(s));
      enc.PutSequence(got);
    }
    if (!dec.AtEnd()) {
      return ProtocolError("CourierPrimitives: trailing bytes");
    }
    return enc.Take();
  };
  return entry;
}

// Every WireValue kind, nested: a record holding a list of records, a list
// of lists, and leaves of every kind and padding remainder.
WireValue EveryKindValue() {
  std::vector<WireValue> strings;
  for (const char* s : kPadStrings) {
    strings.push_back(WireValue::OfString(s));
  }
  std::vector<WireValue> blobs;
  for (const char* s : kPadStrings) {
    blobs.push_back(WireValue::OfBlob(BytesFromString(s)));
  }
  WireValue inner = RecordBuilder()
                        .Str("host", "fiji.cs.washington.edu")
                        .U32("address", 0x0a000042)
                        .U64("stamp", 0x1122334455667788ull)
                        .Blob("key", Bytes{0xff, 0x00, 0x7f})
                        .Value("none", WireValue::Null())
                        .Build();
  return RecordBuilder()
      .Value("null", WireValue::Null())
      .U32("u32", 7)
      .U64("u64", 0xfedcba9876543210ull)
      .Str("str", "HNS")
      .Blob("blob", Bytes{1, 2, 3, 4, 5})
      .Value("strings", WireValue::OfList(std::move(strings)))
      .Value("blobs", WireValue::OfList(std::move(blobs)))
      .Value("records", WireValue::OfList({inner, WireValue::OfRecord({})}))
      .Value("lists", WireValue::OfList({WireValue::OfList({}),
                                         WireValue::OfList({WireValue::OfUint32(1)})}))
      .Value("nested", RecordBuilder().Value("inner", inner).Build())
      .Build();
}

ChCredentials Credentials() {
  ChCredentials credentials;
  credentials.user = "svc:CSL:Xerox";  // odd length: Courier pads it
  credentials.password = "plain";
  return credentials;
}

ChName Name() {
  ChName name;
  name.object = "Dorado";
  name.domain = "CSL";
  name.organization = "Xerox";
  return name;
}

ResourceRecord Record() { return ResourceRecord::MakeA("fiji.cs.washington.edu", 0x0a000042, 600); }

RpcCall Call(bool with_context) {
  RpcCall call;
  call.xid = 0x00c0ffee;
  call.program = 400100;
  call.version = 2;
  call.procedure = 1;
  call.args = Bytes{0xde, 0xad, 0xbe, 0xef, 0x01};
  if (with_context) {
    // No deadline: the wire budget of a deadline depends on the clock.
    call.context.attempt = 3;
    call.context.trace_id = 0x0123456789abcdefull;
  }
  return call;
}

Entry CallHeader(std::string name, ControlKind kind, bool with_context) {
  Entry entry;
  entry.name = name;
  const RpcCall call = Call(with_context);
  entry.encode = [kind, call] { return GetControlProtocol(kind).EncodeCall(call); };
  entry.decode_reencode = [kind, call](const Bytes& bytes) -> Result<Bytes> {
    const ControlProtocol& control = GetControlProtocol(kind);
    HCS_ASSIGN_OR_RETURN(RpcCall decoded, control.DecodeCall(bytes));
    // Courier carries a 16-bit transaction id.
    EXPECT_EQ(decoded.xid, kind == ControlKind::kCourier ? (call.xid & 0xffff) : call.xid);
    EXPECT_EQ(decoded.program, call.program);
    EXPECT_EQ(decoded.procedure, call.procedure);
    EXPECT_EQ(decoded.context.attempt, call.context.attempt);
    EXPECT_EQ(decoded.context.trace_id, call.context.trace_id);
    EXPECT_FALSE(decoded.context.has_deadline());
    EXPECT_EQ(decoded.args, call.args);
    // Raw frames carry no version; re-encode with the original one.
    decoded.xid = call.xid;
    decoded.version = call.version;
    return control.EncodeCall(decoded);
  };
  return entry;
}

Entry ReplyHeader(std::string name, ControlKind kind, bool ok) {
  Entry entry;
  entry.name = name;
  RpcReplyMsg reply;
  reply.xid = 0x00c0ffee;
  if (ok) {
    reply.results = Bytes{0x00, 0x00, 0x00, 0x03, 0x61, 0x62, 0x63};
  } else {
    reply.app_status = StatusCode::kNotFound;
    reply.error_message = "no such name";
  }
  entry.encode = [kind, reply] { return GetControlProtocol(kind).EncodeReply(reply); };
  entry.decode_reencode = [kind, reply](const Bytes& bytes) -> Result<Bytes> {
    const ControlProtocol& control = GetControlProtocol(kind);
    HCS_ASSIGN_OR_RETURN(RpcReplyMsg decoded, control.DecodeReply(bytes));
    EXPECT_EQ(decoded.xid, kind == ControlKind::kCourier ? (reply.xid & 0xffff) : reply.xid);
    EXPECT_EQ(decoded.app_status, reply.app_status);
    EXPECT_EQ(decoded.error_message, reply.error_message);
    EXPECT_EQ(decoded.results, reply.results);
    decoded.xid = reply.xid;
    return control.EncodeReply(decoded);
  };
  return entry;
}

std::vector<Entry> Corpus() {
  std::vector<Entry> corpus;
  corpus.push_back(XdrPrimitives());
  corpus.push_back(CourierPrimitives());

  // src/wire/value.cc
  corpus.push_back(Message("WireValue", EveryKindValue()));
  {
    // The in-place form every message embedding a value uses.
    const WireValue value = WireValue::OfList({EveryKindValue(), WireValue::OfUint32(9)});
    Entry entry;
    entry.name = "WireValue.EncodeTo";
    entry.encode = [value] {
      XdrEncoder enc;
      value.EncodeTo(&enc);
      return enc.Take();
    };
    entry.decode_reencode = [value](const Bytes& bytes) -> Result<Bytes> {
      XdrDecoder dec(bytes);
      WireValue decoded;
      HCS_RETURN_IF_ERROR(WireValue::DecodeFrom(&dec, &decoded));
      EXPECT_TRUE(dec.AtEnd());
      ExpectSameValue("WireValue.EncodeTo", decoded, value);
      return decoded.Encode();
    };
    corpus.push_back(entry);
  }

  // src/hns/wire_protocol.cc
  {
    NsmQueryRequest request;
    request.name = HnsName::Parse("BIND!fiji.cs.washington.edu").value();
    request.args = RecordBuilder().Str("service", "DesiredService").Build();
    corpus.push_back(Message("NsmQueryRequest", request));
  }
  {
    FindNsmRequest request;
    request.context = "CH";
    request.query_class = "HRPCBinding";
    corpus.push_back(Message("FindNsmRequest", request));
  }
  {
    FindNsmResponse response;
    response.nsm_name = "BindingNSM-BIND";
    response.binding.service_name = "nsm";
    response.binding.host = "yakima.cs.washington.edu";
    response.binding.address = 0x0a000017;
    response.binding.port = 711;
    response.binding.program = 400100;
    response.binding.control = ControlKind::kRaw;
    corpus.push_back(Message("FindNsmResponse", response));
  }
  {
    AgentQueryRequest request;
    request.name = HnsName::Parse("CH!Dorado:CSL:Xerox").value();
    request.query_class = "MailboxInfo";
    request.args = WireValue::OfRecord({});
    corpus.push_back(Message("AgentQueryRequest", request));
  }

  // src/bindns/protocol.cc, src/bindns/record.cc
  {
    BindQueryRequest request;
    request.name = "fiji.cs.washington.edu";
    request.type = RrType::kWks;
    request.recursion_desired = false;
    corpus.push_back(Message("BindQueryRequest", request));
  }
  {
    BindQueryResponse response;
    response.rcode = Rcode::kNoError;
    response.authoritative = false;
    response.answers = {Record(), ResourceRecord::MakeTxt("txt.cs.washington.edu", "hello")};
    corpus.push_back(Message("BindQueryResponse", response));
  }
  {
    BindUpdateRequest single;
    single.ops.push_back(UpdateOperation{UpdateOp::kAdd, Record()});
    corpus.push_back(Message("BindUpdateRequest", single));
    BindUpdateRequest list;
    UpdateOperation del;
    del.op = UpdateOp::kDelete;
    del.record.name = "map.hrpcbinding.uw-bind.hns";
    del.record.type = RrType::kUnspec;
    list.ops.push_back(del);
    list.ops.push_back(UpdateOperation{UpdateOp::kAdd, ResourceRecord::MakeCname("a.b", "c.d")});
    corpus.push_back(Message("BindUpdateRequest.list", list));
  }
  {
    BindUpdateResponse response;
    response.rcode = Rcode::kRefused;
    corpus.push_back(Message("BindUpdateResponse", response));
  }
  {
    BindInvalidateRequest request;
    request.name = "loc.bindingnsm-bind.hns";
    corpus.push_back(Message("BindInvalidateRequest", request));
  }
  {
    BindAxfrRequest request;
    request.origin = "cs.washington.edu";
    corpus.push_back(Message("BindAxfrRequest", request));
  }
  {
    BindAxfrResponse response;
    response.serial = 1987;
    response.records = {Record()};
    corpus.push_back(Message("BindAxfrResponse", response));
  }
  corpus.push_back(XdrNested("ResourceRecord", Record()));

  // src/ch/protocol.cc
  {
    Entry entry;
    entry.name = "ChCredentials";
    entry.encode = [] {
      CourierEncoder enc;
      Credentials().EncodeTo(&enc);
      return enc.Take();
    };
    entry.decode_reencode = [](const Bytes& bytes) -> Result<Bytes> {
      CourierDecoder dec(bytes);
      HCS_ASSIGN_OR_RETURN(ChCredentials decoded, ChCredentials::DecodeFrom(&dec));
      EXPECT_EQ(decoded.user, Credentials().user);
      EXPECT_EQ(decoded.password, Credentials().password);
      CourierEncoder enc;
      decoded.EncodeTo(&enc);
      return enc.Take();
    };
    corpus.push_back(entry);
  }
  {
    ChRetrieveItemRequest request;
    request.credentials = Credentials();
    request.name = Name();
    request.property = kChPropAddress;
    corpus.push_back(Message("ChRetrieveItemRequest", request));
  }
  {
    ChRetrieveItemResponse response;
    response.distinguished_name = Name();
    response.item = RecordBuilder().U32("address", 0x0a000042).Str("host", "Dorado").Build();
    corpus.push_back(Message("ChRetrieveItemResponse", response));
  }
  {
    ChAddItemRequest request;
    request.credentials = Credentials();
    request.name = Name();
    request.property = kChPropService;
    request.item = EveryKindValue();
    corpus.push_back(Message("ChAddItemRequest", request));
  }
  {
    ChDeleteItemRequest request;
    request.credentials = Credentials();
    request.name = Name();
    request.property = kChPropService;
    corpus.push_back(Message("ChDeleteItemRequest", request));
  }
  {
    ChListObjectsRequest request;
    request.credentials = Credentials();
    request.domain = "CSL";
    request.organization = "Xerox";
    corpus.push_back(Message("ChListObjectsRequest", request));
  }
  {
    ChListObjectsResponse response;
    response.objects = {"Dorado", "Dolphin", "Dandelion", ""};
    corpus.push_back(Message("ChListObjectsResponse", response));
  }

  // src/rpc/context.cc
  {
    RequestContextWire wire;
    wire.budget_ms = 250;
    wire.attempt = 2;
    wire.trace_id = 0xabcdef0123456789ull;
    corpus.push_back(XdrNestedByRef("RequestContextWire", wire));
  }

  // src/rpc/control.cc: call and reply headers of every control protocol.
  corpus.push_back(CallHeader("SunRpcCall", ControlKind::kSunRpc, false));
  corpus.push_back(CallHeader("SunRpcCall.context", ControlKind::kSunRpc, true));
  corpus.push_back(CallHeader("CourierCall", ControlKind::kCourier, false));
  corpus.push_back(CallHeader("CourierCall.context", ControlKind::kCourier, true));
  corpus.push_back(CallHeader("RawCall", ControlKind::kRaw, false));
  corpus.push_back(CallHeader("RawCall.context", ControlKind::kRaw, true));
  corpus.push_back(ReplyHeader("SunRpcReply", ControlKind::kSunRpc, true));
  corpus.push_back(ReplyHeader("SunRpcReply.error", ControlKind::kSunRpc, false));
  corpus.push_back(ReplyHeader("CourierReply", ControlKind::kCourier, true));
  corpus.push_back(ReplyHeader("CourierReply.error", ControlKind::kCourier, false));
  corpus.push_back(ReplyHeader("RawReply", ControlKind::kRaw, true));
  corpus.push_back(ReplyHeader("RawReply.error", ControlKind::kRaw, false));
  return corpus;
}

// The recorded bytes, one line per corpus entry.
struct Golden {
  const char* name;
  const char* hex;
};

const Golden kGoldens[] = {
    {"XdrPrimitives",
     "deadbeeffffffffe01020304050607080000000100000000000000000000000161000000"
     "000000026162000000000003616263000000000461626364000000056162636465000000"
     "000000000000000161000000000000026162000000000003616263000000000461626364"
     "000000056162636465000000610000006162000061626300616263646162636465000000"},
    {"CourierPrimitives",
     "beef01020304000100000000000161000002616200036162630000046162636400056162"
     "63646500000000016100000261620003616263000004616263640005616263646500"},
    {"WireValue",
     "000000060000000a000000046e756c6c0000000000000003753332000000000100000007"
     "000000037536340000000002fedcba987654321000000003737472000000000300000003"
     "484e530000000004626c6f62000000040000000501020304050000000000000773747269"
     "6e6773000000000500000006000000030000000000000003000000016100000000000003"
     "000000026162000000000003000000036162630000000003000000046162636400000003"
     "00000005616263646500000000000005626c6f6273000000000000050000000600000004"
     "000000000000000400000001610000000000000400000002616200000000000400000003"
     "616263000000000400000004616263640000000400000005616263646500000000000007"
     "7265636f726473000000000500000002000000060000000500000004686f737400000003"
     "0000001666696a692e63732e77617368696e67746f6e2e65647500000000000761646472"
     "65737300000000010a000042000000057374616d70000000000000021122334455667788"
     "000000036b6579000000000400000003ff007f00000000046e6f6e650000000000000006"
     "00000000000000056c697374730000000000000500000002000000050000000000000005"
     "000000010000000100000001000000066e65737465640000000000060000000100000005"
     "696e6e6572000000000000060000000500000004686f7374000000030000001666696a69"
     "2e63732e77617368696e67746f6e2e656475000000000007616464726573730000000001"
     "0a000042000000057374616d70000000000000021122334455667788000000036b657900"
     "0000000400000003ff007f00000000046e6f6e6500000000"},
    {"WireValue.EncodeTo",
     "0000000500000002000000060000000a000000046e756c6c000000000000000375333200"
     "0000000100000007000000037536340000000002fedcba98765432100000000373747200"
     "0000000300000003484e530000000004626c6f6200000004000000050102030405000000"
     "00000007737472696e677300000000050000000600000003000000000000000300000001"
     "610000000000000300000002616200000000000300000003616263000000000300000004"
     "616263640000000300000005616263646500000000000005626c6f627300000000000005"
     "000000060000000400000000000000040000000161000000000000040000000261620000"
     "000000040000000361626300000000040000000461626364000000040000000561626364"
     "65000000000000077265636f726473000000000500000002000000060000000500000004"
     "686f7374000000030000001666696a692e63732e77617368696e67746f6e2e6564750000"
     "000000076164647265737300000000010a000042000000057374616d7000000000000002"
     "1122334455667788000000036b6579000000000400000003ff007f00000000046e6f6e65"
     "000000000000000600000000000000056c69737473000000000000050000000200000005"
     "0000000000000005000000010000000100000001000000066e6573746564000000000006"
     "0000000100000005696e6e6572000000000000060000000500000004686f737400000003"
     "0000001666696a692e63732e77617368696e67746f6e2e65647500000000000761646472"
     "65737300000000010a000042000000057374616d70000000000000021122334455667788"
     "000000036b6579000000000400000003ff007f00000000046e6f6e650000000000000001"
     "00000009"},
    {"NsmQueryRequest",
     "0000000442494e440000001666696a692e63732e77617368696e67746f6e2e6564750000"
     "0000000600000001000000077365727669636500000000030000000e4465736972656453"
     "6572766963650000"},
    {"FindNsmRequest", "00000002434800000000000b4852504342696e64696e6700"},
    {"FindNsmResponse",
     "0000000f42696e64696e674e534d2d42494e4400000000060000000a0000000773657276"
     "6963650000000003000000036e736d0000000004686f7374000000030000001879616b69"
     "6d612e63732e77617368696e67746f6e2e65647500000007616464726573730000000001"
     "0a00001700000004706f727400000001000002c70000000770726f6772616d0000000001"
     "00061ae40000000776657273696f6e00000000010000000100000008646174615f726570"
     "0000000100000000000000097472616e73706f7274000000000000010000000000000007"
     "636f6e74726f6c0000000001000000020000000d62696e645f70726f746f636f6c000000"
     "0000000100000002"},
    {"AgentQueryRequest",
     "000000024348000000000010446f7261646f3a43534c3a5865726f780000000b4d61696c"
     "626f78496e666f000000000600000000"},
    {"BindQueryRequest",
     "0000001666696a692e63732e77617368696e67746f6e2e65647500000000000b00000000"},
    {"BindQueryResponse",
     "0000000000000000000000020000001666696a692e63732e77617368696e67746f6e2e65"
     "647500000000000100000258000000040a000042000000157478742e63732e7761736869"
     "6e67746f6e2e6564750000000000001000000e100000000568656c6c6f000000"},
    {"BindUpdateRequest",
     "000000000000001666696a692e63732e77617368696e67746f6e2e656475000000000001"
     "00000258000000040a000042"},
    {"BindUpdateRequest.list",
     "0000000200000002000000010000001b6d61702e6872706362696e64696e672e75772d62"
     "696e642e686e73000000006700000e10000000000000000000000003612e620000000005"
     "00000e1000000003632e6400"},
    {"BindUpdateResponse", "00000005"},
    {"BindInvalidateRequest", "000000176c6f632e62696e64696e676e736d2d62696e642e686e7300"},
    {"BindAxfrRequest", "0000001163732e77617368696e67746f6e2e656475000000"},
    {"BindAxfrResponse",
     "00000000000007c3000000010000001666696a692e63732e77617368696e67746f6e2e65"
     "647500000000000100000258000000040a000042"},
    {"ResourceRecord",
     "0000001666696a692e63732e77617368696e67746f6e2e65647500000000000100000258"
     "000000040a000042"},
    {"ChCredentials", "000d7376633a43534c3a5865726f78000005706c61696e00"},
    {"ChRetrieveItemRequest",
     "000d7376633a43534c3a5865726f78000005706c61696e000006446f7261646f00034353"
     "4c0000055865726f780000000004"},
    {"ChRetrieveItemResponse",
     "0006446f7261646f000343534c0000055865726f78000034000000060000000200000007"
     "6164647265737300000000010a00004200000004686f73740000000300000006446f7261"
     "646f0000"},
    {"ChAddItemRequest",
     "000d7376633a43534c3a5865726f78000005706c61696e000006446f7261646f00034353"
     "4c0000055865726f780000000006027c000000060000000a000000046e756c6c00000000"
     "00000003753332000000000100000007000000037536340000000002fedcba9876543210"
     "00000003737472000000000300000003484e530000000004626c6f620000000400000005"
     "010203040500000000000007737472696e67730000000005000000060000000300000000"
     "000000030000000161000000000000030000000261620000000000030000000361626300"
     "0000000300000004616263640000000300000005616263646500000000000005626c6f62"
     "730000000000000500000006000000040000000000000004000000016100000000000004"
     "000000026162000000000004000000036162630000000004000000046162636400000004"
     "000000056162636465000000000000077265636f72647300000000050000000200000006"
     "0000000500000004686f7374000000030000001666696a692e63732e77617368696e6774"
     "6f6e2e6564750000000000076164647265737300000000010a000042000000057374616d"
     "70000000000000021122334455667788000000036b6579000000000400000003ff007f00"
     "000000046e6f6e65000000000000000600000000000000056c6973747300000000000005"
     "00000002000000050000000000000005000000010000000100000001000000066e657374"
     "65640000000000060000000100000005696e6e6572000000000000060000000500000004"
     "686f7374000000030000001666696a692e63732e77617368696e67746f6e2e6564750000"
     "000000076164647265737300000000010a000042000000057374616d7000000000000002"
     "1122334455667788000000036b6579000000000400000003ff007f00000000046e6f6e65"
     "00000000"},
    {"ChDeleteItemRequest",
     "000d7376633a43534c3a5865726f78000005706c61696e000006446f7261646f00034353"
     "4c0000055865726f780000000006"},
    {"ChListObjectsRequest",
     "000d7376633a43534c3a5865726f78000005706c61696e00000343534c0000055865726f"
     "7800"},
    {"ChListObjectsResponse",
     "00040006446f7261646f0007446f6c7068696e00000944616e64656c696f6e000000"},
    {"RequestContextWire", "00000000000000fa00000002abcdef0123456789"},
    {"SunRpcCall",
     "00c0ffee000000000000000200061ae40000000200000001000000000000000000000000"
     "0000000000000005deadbeef01000000"},
    {"SunRpcCall.context",
     "00c0ffee000000000000000200061ae40000000200000001484353580000001400000000"
     "00000000000000030123456789abcdef000000000000000000000005deadbeef01000000"},
    {"CourierCall", "0000ffee00061ae4000200010005deadbeef0100"},
    {"CourierCall.context",
     "0004000000000000000000030123456789abcdefffee00061ae4000200010005deadbeef"
     "0100"},
    {"RawCall", "4852504300c0ffee00061ae40000000100000005deadbeef01000000"},
    {"RawCall.context",
     "485250580000000000000000000000030123456789abcdef00c0ffee00061ae400000001"
     "00000005deadbeef01000000"},
    {"SunRpcReply",
     "00c0ffee0000000100000000000000000000000000000000000000000000000000000007"
     "0000000361626300"},
    {"SunRpcReply.error",
     "00c0ffee0000000100000000000000000000000000000000000000010000000c6e6f2073"
     "756368206e616d6500000000"},
    {"CourierReply", "0002ffee00070000000361626300"},
    {"CourierReply.error", "0003ffee0001000c6e6f2073756368206e616d65"},
    {"RawReply", "4852504300c0ffee0000000000000000000000070000000361626300"},
    {"RawReply.error", "4852504300c0ffee000000010000000c6e6f2073756368206e616d6500000000"},
};

const char* GoldenHex(const std::string& name) {
  for (const Golden& golden : kGoldens) {
    if (name == golden.name) {
      return golden.hex;
    }
  }
  return nullptr;
}

TEST(WireBytesTest, EveryEntryEncodesToItsGolden) {
  for (const Entry& entry : Corpus()) {
    const char* hex = GoldenHex(entry.name);
    std::string got = ToHex(entry.encode());
    if (hex == nullptr) {
      ADD_FAILURE() << "no golden for " << entry.name << "; encoded:\n  {\"" << entry.name
                    << "\", \"" << got << "\"},";
      continue;
    }
    EXPECT_EQ(got, hex) << entry.name << " moved on the wire";
  }
}

TEST(WireBytesTest, EveryGoldenDecodesBackToItsValue) {
  for (const Entry& entry : Corpus()) {
    const char* hex = GoldenHex(entry.name);
    ASSERT_NE(hex, nullptr) << "no golden for " << entry.name;
    const Bytes golden = FromHex(hex);
    Result<Bytes> reencoded = entry.decode_reencode(golden);
    ASSERT_TRUE(reencoded.ok()) << entry.name << ": " << reencoded.status();
    EXPECT_EQ(ToHex(*reencoded), hex) << entry.name << " does not decode back to its value";
  }
}

// The sim clock's marshal units come from EncodedSize(), so it must be the
// encoding's exact size for every kind.
TEST(WireBytesTest, EncodedSizeIsTheEncodingsSize) {
  for (const WireValue& value :
       {EveryKindValue(), WireValue::Null(), WireValue::OfList({}), WireValue::OfRecord({})}) {
    EXPECT_EQ(value.EncodedSize(), value.Encode().size()) << value.ToString();
  }
}

TEST(WireBytesTest, EveryGoldenHasAnEntry) {
  std::vector<Entry> corpus = Corpus();
  for (const Golden& golden : kGoldens) {
    bool found = false;
    for (const Entry& entry : corpus) {
      found = found || entry.name == golden.name;
    }
    EXPECT_TRUE(found) << "golden " << golden.name << " has no corpus entry";
  }
}

}  // namespace
}  // namespace hcs
