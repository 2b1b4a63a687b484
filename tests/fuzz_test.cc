// Mutation robustness: every decoder in the tree must turn arbitrary or
// corrupted bytes into a clean Status — never a crash, hang, or silent
// misparse that round-trips differently. Deterministic pseudo-fuzzing with
// seeded RNG (parameterized over seeds so the corpus is broad but
// reproducible).

#include <gtest/gtest.h>

#include <cstring>

#include "src/bindns/protocol.h"
#include "src/ch/protocol.h"
#include "src/common/arena.h"
#include "src/common/rand.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/binding.h"
#include "src/rpc/control.h"
#include "src/testbed/testbed.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

Bytes RandomBytes(Rng* rng, size_t max_len) {
  Bytes out(rng->Uniform(max_len + 1), 0);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng->Next());
  }
  return out;
}

// Applies one of: truncate, extend, flip bytes.
Bytes Mutate(Rng* rng, Bytes input) {
  if (input.empty()) {
    return input;
  }
  switch (rng->Uniform(3)) {
    case 0:
      input.resize(rng->Uniform(input.size()));
      break;
    case 1: {
      Bytes extra = RandomBytes(rng, 8);
      input.insert(input.end(), extra.begin(), extra.end());
      break;
    }
    default:
      for (uint64_t i = 0, n = 1 + rng->Uniform(4); i < n; ++i) {
        input[rng->Uniform(input.size())] ^= static_cast<uint8_t>(1 + rng->Uniform(255));
      }
      break;
  }
  return input;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    Bytes junk = RandomBytes(&rng, 200);
    (void)WireValue::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)HrpcBinding::FromWire(WireValue::OfBlob(junk));  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)BindQueryRequest::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)BindQueryResponse::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)BindUpdateRequest::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)BindAxfrResponse::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)ChRetrieveItemRequest::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)ChRetrieveItemResponse::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)ChListObjectsResponse::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)NsmQueryRequest::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)FindNsmRequest::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)FindNsmResponse::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    (void)AgentQueryRequest::Decode(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    for (ControlKind kind :
         {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
      const ControlProtocol& control = GetControlProtocol(kind);
      (void)control.DecodeCall(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
      (void)control.DecodeReply(junk);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    }
  }
}

TEST_P(FuzzTest, ViewDecodersOverPoisonedArena) {
  // The zero-copy decoders (DecodeCallView and the Get*View primitives
  // underneath) run against junk landed in EXACTLY-sized arena
  // allocations, with the debug arena's poison surrounding each one: a
  // decoder that walks one byte past the frame hits poisoned memory and
  // the sanitizer legs of check.sh fail loudly instead of reading whatever
  // the previous frame left behind. Release builds run the same loop as a
  // plain crash-freedom probe.
  Rng rng(GetParam() * 173);
  Arena arena(4096);
  ScopedArenaViewBinding binding(&arena);
  for (int i = 0; i < 300; ++i) {
    arena.Reset();
    Bytes junk = RandomBytes(&rng, 200);
    uint8_t* frame = arena.Allocate(junk.empty() ? 1 : junk.size());
    if (!junk.empty()) {
      std::memcpy(frame, junk.data(), junk.size());
    }
    for (ControlKind kind :
         {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
      const ControlProtocol& control = GetControlProtocol(kind);
      Result<RpcCallView> call = control.DecodeCallView(frame, junk.size());
      if (call.ok()) {
        // A surviving parse hands out a view into the arena slab; touching
        // every byte of it proves the view lies inside the frame.
        Bytes copy = call->args.ToBytes();
        EXPECT_LE(copy.size(), junk.size());
      }
    }
  }
}

TEST_P(FuzzTest, MutatedValidMessagesFailCleanlyOrParse) {
  Rng rng(GetParam() * 31);

  RpcCall call;
  call.xid = 42;
  call.program = 100003;
  call.version = 2;
  call.procedure = 6;
  call.args = RandomBytes(&rng, 64);

  for (int i = 0; i < 300; ++i) {
    ControlKind kind = static_cast<ControlKind>(rng.Uniform(3));
    const ControlProtocol& control = GetControlProtocol(kind);
    Bytes mutated = Mutate(&rng, control.EncodeCall(call));
    Result<RpcCall> decoded = control.DecodeCall(mutated);
    if (decoded.ok()) {
      // A surviving parse must re-encode without crashing.
      (void)control.EncodeCall(*decoded);
    }
  }
}

TEST_P(FuzzTest, MutatedMetaRecordsFailCleanly) {
  Rng rng(GetParam() * 97);
  NsmInfo info;
  info.nsm_name = "BindingNSM-BIND";
  info.query_class = "HRPCBinding";
  info.ns_name = "UW-BIND";
  info.host = "yakima.cs.washington.edu";
  info.host_context = "BIND";
  info.program = 400100;
  info.port = 711;
  Bytes valid = info.ToWire().Encode();

  for (int i = 0; i < 300; ++i) {
    Bytes mutated = Mutate(&rng, valid);
    Result<WireValue> value = WireValue::Decode(mutated);
    if (value.ok()) {
      (void)NsmInfo::FromWire(*value);  // hcs:ignore-status(fuzz probe; only crash-freedom is asserted)
    }
  }
}

// Dynamic-update lists: a mutated list, or junk behind the list code,
// decodes to a clean error or to operations that re-encode and decode to
// the same list.
TEST_P(FuzzTest, MutatedUpdateListsFailCleanlyOrRoundTrip) {
  Rng rng(GetParam() * 211);
  BindUpdateRequest request;
  UpdateOperation del;
  del.op = UpdateOp::kDelete;
  del.record.name = "loc.bindingnsm-bind.hns";
  del.record.type = RrType::kUnspec;
  request.ops.push_back(del);
  WireValue value = RecordBuilder().Str("host", std::string(300, 'h')).U32("port", 711).Build();
  for (ResourceRecord& rr : UnspecRecordsFromValue(del.record.name, value)) {
    request.ops.push_back(UpdateOperation{UpdateOp::kAdd, std::move(rr)});
  }
  const Bytes valid = request.Encode();

  for (int i = 0; i < 300; ++i) {
    Bytes input;
    if (i % 2 == 0) {
      input = Mutate(&rng, valid);
    } else {
      XdrEncoder enc;
      enc.PutUint32(kUpdateListCode);
      enc.PutUint32(static_cast<uint32_t>(rng.Uniform(4)));
      input = enc.Take();
      Bytes junk = RandomBytes(&rng, 200);
      input.insert(input.end(), junk.begin(), junk.end());
    }
    Result<BindUpdateRequest> decoded = BindUpdateRequest::Decode(input);
    if (!decoded.ok()) {
      continue;
    }
    Result<BindUpdateRequest> again = BindUpdateRequest::Decode(decoded->Encode());
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again->Encode(), decoded->Encode());
  }
}

TEST_P(FuzzTest, LiveServersSurviveGarbageTraffic) {
  Testbed bed;
  Rng rng(GetParam() * 131);
  struct Target {
    const char* host;
    uint16_t port;
  };
  const Target targets[] = {
      {kPublicBindHost, 53}, {kMetaBindHost, 53},   {kChServerHost, 5},
      {kSunServerHost, 111}, {kHnsServerHost, 700}, {kNsmServerHost, 711},
  };
  for (int i = 0; i < 120; ++i) {
    const Target& target = targets[rng.Uniform(std::size(targets))];
    Bytes junk = RandomBytes(&rng, 128);
    (void)bed.world().RoundTrip(kClientHost, target.host, target.port, junk);
  }
  // After the garbage storm, normal service continues.
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  WireValue no_args = WireValue::OfRecord({});
  HnsName name = HnsName::Parse("BIND!fiji.cs.washington.edu").value();
  EXPECT_TRUE(client.session->Query(name, kQueryClassHostAddress, no_args).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Values(1, 7, 42, 1234, 99991));

}  // namespace
}  // namespace hcs
