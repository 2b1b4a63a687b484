// Unit tests for src/bindns: records, zones, master files, server (query /
// dynamic update / zone transfer / forwarding), resolver caching.

#include <gtest/gtest.h>

#include "src/bindns/master_file.h"
#include "src/bindns/resolver.h"
#include "src/bindns/server.h"
#include "src/bindns/zone.h"
#include "src/common/rand.h"
#include "src/rpc/ports.h"

namespace hcs {
namespace {

// --- ResourceRecord -----------------------------------------------------------

TEST(ResourceRecordTest, FactoriesAndAccessors) {
  ResourceRecord a = ResourceRecord::MakeA("fiji.cs.washington.edu", 0x80950104, 600);
  EXPECT_EQ(a.AddressRdata().value(), 0x80950104u);
  EXPECT_EQ(a.ttl_seconds, 600u);
  EXPECT_EQ(a.TextRdata().status().code(), StatusCode::kProtocolError);

  ResourceRecord txt = ResourceRecord::MakeTxt("x", "hello");
  EXPECT_EQ(txt.TextRdata().value(), "hello");
  EXPECT_EQ(txt.AddressRdata().status().code(), StatusCode::kProtocolError);
}

TEST(ResourceRecordTest, WireRoundTrip) {
  ResourceRecord rr = ResourceRecord::MakeCname("www.cs.washington.edu",
                                                "fiji.cs.washington.edu", 1200);
  XdrEncoder enc;
  rr.EncodeTo(&enc);
  XdrDecoder dec(enc.bytes());
  Result<ResourceRecord> decoded = ResourceRecord::DecodeFrom(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rr);
}

TEST(ResourceRecordTest, OversizedRdataRejectedOnDecode) {
  ResourceRecord rr;
  rr.name = "big";
  rr.rdata = Bytes(300, 1);
  XdrEncoder enc;
  rr.EncodeTo(&enc);
  XdrDecoder dec(enc.bytes());
  EXPECT_EQ(ResourceRecord::DecodeFrom(&dec).status().code(), StatusCode::kProtocolError);
}

// --- Unspecified-type chunking ---------------------------------------------------

TEST(UnspecChunkingTest, SmallValueIsOneRecord) {
  WireValue v = RecordBuilder().Str("ns", "UW-BIND").Build();
  std::vector<ResourceRecord> records = UnspecRecordsFromValue("ctx.bind.hns", v);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(ValueFromUnspecRecords(records).value(), v);
}

TEST(UnspecChunkingTest, LargeValueChunksAndReassembles) {
  WireValue v = WireValue::OfBlob(Bytes(1000, 0x5a));
  std::vector<ResourceRecord> records = UnspecRecordsFromValue("big.hns", v);
  EXPECT_GT(records.size(), 3u);
  for (const ResourceRecord& rr : records) {
    EXPECT_LE(rr.rdata.size(), kMaxRdataBytes);
  }
  // Order independence: shuffle before reassembly.
  std::swap(records.front(), records.back());
  EXPECT_EQ(ValueFromUnspecRecords(records).value(), v);
}

TEST(UnspecChunkingTest, MissingChunkIsProtocolError) {
  WireValue v = WireValue::OfBlob(Bytes(1000, 0x5a));
  std::vector<ResourceRecord> records = UnspecRecordsFromValue("big.hns", v);
  records.erase(records.begin() + 1);
  EXPECT_EQ(ValueFromUnspecRecords(records).status().code(), StatusCode::kProtocolError);
}

class UnspecChunkingSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(UnspecChunkingSizeTest, RoundTripsAtEverySize) {
  Rng rng(GetParam());
  Bytes blob(GetParam(), 0);
  for (uint8_t& b : blob) {
    b = static_cast<uint8_t>(rng.Next());
  }
  WireValue v = WireValue::OfBlob(std::move(blob));
  EXPECT_EQ(ValueFromUnspecRecords(UnspecRecordsFromValue("n.hns", v)).value(), v);
}

INSTANTIATE_TEST_SUITE_P(Sizes, UnspecChunkingSizeTest,
                         ::testing::Values(0, 1, 250, 253, 254, 255, 508, 509, 2048));

// --- Zone ----------------------------------------------------------------------

TEST(ZoneTest, ContainsIsSuffixBased) {
  Zone zone("cs.washington.edu");
  EXPECT_TRUE(zone.Contains("fiji.cs.washington.edu"));
  EXPECT_TRUE(zone.Contains("CS.WASHINGTON.EDU"));
  EXPECT_FALSE(zone.Contains("ee.washington.edu"));
  EXPECT_FALSE(zone.Contains("evilcs.washington.edu"));
}

TEST(ZoneTest, AddRejectsOutOfZoneAndOversized) {
  Zone zone("cs.washington.edu");
  EXPECT_EQ(zone.Add(ResourceRecord::MakeA("fiji.ee.washington.edu", 1)).code(),
            StatusCode::kInvalidArgument);
  ResourceRecord big = ResourceRecord::MakeTxt("x.cs.washington.edu", std::string(300, 'a'));
  EXPECT_EQ(zone.Add(big).code(), StatusCode::kInvalidArgument);
}

TEST(ZoneTest, MultipleRecordsPerNameAndType) {
  Zone zone("cs.washington.edu");
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("gw.cs.washington.edu", 1)).ok());
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("gw.cs.washington.edu", 2)).ok());
  Result<std::vector<ResourceRecord>> records = zone.Lookup("gw.cs.washington.edu", RrType::kA);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u) << "gateways keep one record per address";
}

TEST(ZoneTest, LookupDistinguishesNxdomainFromNoData) {
  Zone zone("cs.washington.edu");
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeTxt("a.cs.washington.edu", "t")).ok());
  // Name absent entirely: NOT_FOUND.
  EXPECT_EQ(zone.Lookup("b.cs.washington.edu", RrType::kA).status().code(),
            StatusCode::kNotFound);
  // Name present, type absent: empty answer, not an error.
  Result<std::vector<ResourceRecord>> r = zone.Lookup("a.cs.washington.edu", RrType::kA);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(ZoneTest, CnameIsChasedOneLevel) {
  Zone zone("cs.washington.edu");
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("fiji.cs.washington.edu", 7)).ok());
  ASSERT_TRUE(
      zone.Add(ResourceRecord::MakeCname("www.cs.washington.edu", "fiji.cs.washington.edu"))
          .ok());
  Result<std::vector<ResourceRecord>> r = zone.Lookup("www.cs.washington.edu", RrType::kA);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ(r->front().type, RrType::kCname);
  EXPECT_EQ(r->back().AddressRdata().value(), 7u);
}

TEST(ZoneTest, AnyReturnsEverythingUnderTheName) {
  Zone zone("cs.washington.edu");
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("x.cs.washington.edu", 1)).ok());
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeTxt("x.cs.washington.edu", "note")).ok());
  Result<std::vector<ResourceRecord>> r = zone.Lookup("x.cs.washington.edu", RrType::kAny);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(ZoneTest, RemoveByTypeAndWholeName) {
  Zone zone("z");
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("a.z", 1)).ok());
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeTxt("a.z", "t")).ok());
  EXPECT_EQ(zone.Remove("a.z", RrType::kA), 1u);
  EXPECT_EQ(zone.size(), 1u);
  EXPECT_EQ(zone.Remove("a.z", std::nullopt), 1u);
  EXPECT_EQ(zone.size(), 0u);
  EXPECT_EQ(zone.Remove("a.z", std::nullopt), 0u);
}

TEST(ZoneTest, SerialBumpsOnChange) {
  Zone zone("z");
  uint32_t s0 = zone.serial();
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("a.z", 1)).ok());
  EXPECT_GT(zone.serial(), s0);
  uint32_t s1 = zone.serial();
  zone.Remove("a.z", std::nullopt);
  EXPECT_GT(zone.serial(), s1);
}

UpdateOperation AddOp(ResourceRecord rr) { return UpdateOperation{UpdateOp::kAdd, std::move(rr)}; }

UpdateOperation DeleteOp(const std::string& name, RrType type) {
  UpdateOperation op;
  op.op = UpdateOp::kDelete;
  op.record.name = name;
  op.record.type = type;
  return op;
}

TEST(ZoneTest, ApplyCommitsAListUnderOneSerial) {
  Zone zone("z");
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("a.z", 1)).ok());
  uint32_t serial = zone.serial();
  ASSERT_TRUE(zone.Apply({DeleteOp("a.z", RrType::kA), AddOp(ResourceRecord::MakeA("a.z", 2)),
                          AddOp(ResourceRecord::MakeA("a.z", 3)),
                          AddOp(ResourceRecord::MakeTxt("b.z", "t"))})
                  .ok());
  EXPECT_EQ(zone.serial(), serial + 1) << "one serial per committed list";
  Result<std::vector<ResourceRecord>> a = zone.Lookup("a.z", RrType::kA);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ((*a)[0].AddressRdata().value(), 2u);
  EXPECT_EQ(zone.size(), 3u);

  // Replaying the same delete-then-add list leaves the same records.
  ASSERT_TRUE(zone.Apply({DeleteOp("a.z", RrType::kA), AddOp(ResourceRecord::MakeA("a.z", 2)),
                          AddOp(ResourceRecord::MakeA("a.z", 3))})
                  .ok());
  EXPECT_EQ(zone.serial(), serial + 2);
  EXPECT_EQ(zone.size(), 3u);

  // A list that changes nothing leaves the serial alone, as Remove does.
  ASSERT_TRUE(zone.Apply({DeleteOp("absent.z", RrType::kA)}).ok());
  EXPECT_EQ(zone.serial(), serial + 2);
}

TEST(ZoneTest, ApplyRefusesTheWholeListForOneBadOperation) {
  Zone zone("z");
  ASSERT_TRUE(zone.Add(ResourceRecord::MakeA("a.z", 1)).ok());
  uint32_t serial = zone.serial();
  ResourceRecord oversized = ResourceRecord::MakeA("b.z", 2);
  oversized.rdata = Bytes(kMaxRdataBytes + 1, 0);
  const std::vector<std::vector<UpdateOperation>> bad_lists = {
      {DeleteOp("a.z", RrType::kA), AddOp(ResourceRecord::MakeA("c.z", 3)), AddOp(oversized)},
      {DeleteOp("a.z", RrType::kA), AddOp(ResourceRecord::MakeA("a.elsewhere", 3))},
      {AddOp(ResourceRecord::MakeA("c.z", 3)), DeleteOp("a.elsewhere", RrType::kAny)},
  };
  for (const std::vector<UpdateOperation>& ops : bad_lists) {
    EXPECT_EQ(zone.Apply(ops).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(zone.serial(), serial);
    EXPECT_EQ(zone.size(), 1u);
    EXPECT_EQ(zone.Lookup("a.z", RrType::kA).value().size(), 1u);
    EXPECT_EQ(zone.Lookup("c.z", RrType::kA).status().code(), StatusCode::kNotFound);
  }
}

// --- Master files ------------------------------------------------------------------

TEST(MasterFileTest, ParsesTheSupportedDialect) {
  const char* text = R"(
; the department zone
$ORIGIN cs.washington.edu
$TTL 1800
fiji    3600  A      128.95.1.4
tahiti        A      128.95.1.5
www           CNAME  fiji.cs.washington.edu.
fiji          TXT    "4.3BSD name server"
@             MX     "10 june.cs.washington.edu"
)";
  Result<std::vector<ResourceRecord>> records = ParseMasterFile(text);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 5u);
  EXPECT_EQ((*records)[0].name, "fiji.cs.washington.edu");
  EXPECT_EQ((*records)[0].ttl_seconds, 3600u);
  EXPECT_EQ((*records)[0].AddressRdata().value(), ParseAddress("128.95.1.4").value());
  EXPECT_EQ((*records)[1].ttl_seconds, 1800u);  // $TTL default
  EXPECT_EQ((*records)[2].type, RrType::kCname);
  EXPECT_EQ((*records)[2].TextRdata().value(), "fiji.cs.washington.edu");
  EXPECT_EQ((*records)[4].name, "cs.washington.edu");  // @ is the origin
}

TEST(MasterFileTest, ReportsErrorsWithLineNumbers) {
  Result<std::vector<ResourceRecord>> bad_type = ParseMasterFile("x A2Z 128.0.0.1\n");
  EXPECT_FALSE(bad_type.ok());
  Result<std::vector<ResourceRecord>> bad_addr =
      ParseMasterFile("$ORIGIN z\nx A 999.0.0.1\n");
  EXPECT_FALSE(bad_addr.ok());
  EXPECT_NE(bad_addr.status().message().find("999"), std::string::npos);
  Result<std::vector<ResourceRecord>> unterminated = ParseMasterFile("x TXT \"oops\n");
  EXPECT_FALSE(unterminated.ok());
  EXPECT_NE(unterminated.status().message().find("line 1"), std::string::npos);
}

// Regression: 20-digit "integers" in $TTL or the per-record TTL slot used to
// flow into std::stoul and throw std::out_of_range — a crash on a hostile
// zone file. Both must now be clean parse errors.
TEST(MasterFileTest, OverflowingTtlIsAnErrorNotAThrow) {
  Result<std::vector<ResourceRecord>> bad_default =
      ParseMasterFile("$TTL 99999999999999999999\n");
  EXPECT_EQ(bad_default.status().code(), StatusCode::kInvalidArgument);
  // A huge per-record TTL no longer parses as a TTL; it is rejected as an
  // unknown record type instead of throwing.
  Result<std::vector<ResourceRecord>> bad_record =
      ParseMasterFile("$ORIGIN z\nx 99999999999999999999 A 128.0.0.1\n");
  EXPECT_FALSE(bad_record.ok());
}

TEST(MasterFileTest, AddressFormatting) {
  EXPECT_EQ(FormatAddress(0x80950104), "128.149.1.4");
  EXPECT_EQ(ParseAddress("128.149.1.4").value(), 0x80950104u);
  EXPECT_FALSE(ParseAddress("1.2.3").ok());
  EXPECT_FALSE(ParseAddress("a.b.c.d").ok());
  EXPECT_FALSE(ParseAddress("256.0.0.1").ok());
}

TEST(MasterFileTest, FormatParsesBack) {
  std::vector<ResourceRecord> records = {
      ResourceRecord::MakeA("fiji.cs.washington.edu", 0x80950104, 600),
      ResourceRecord::MakeCname("www.cs.washington.edu", "fiji.cs.washington.edu", 600),
      ResourceRecord::MakeTxt("fiji.cs.washington.edu", "note", 600),
  };
  Result<std::vector<ResourceRecord>> reparsed = ParseMasterFile(FormatMasterFile(records));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(*reparsed, records);
}

TEST(MasterFileTest, LoadsIntoZoneAndRejectsOutOfZone) {
  Zone zone("cs.washington.edu");
  ASSERT_TRUE(LoadZoneFromMasterFile(&zone,
                                     "$ORIGIN cs.washington.edu\nfiji A 128.95.1.4\n")
                  .ok());
  EXPECT_EQ(zone.size(), 1u);
  EXPECT_FALSE(
      LoadZoneFromMasterFile(&zone, "$ORIGIN ee.washington.edu\nx A 1.2.3.4\n").ok());
}

// --- Server + resolver over the simulated network -----------------------------------

class BindServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("client", MachineType::kMicroVax, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("ns1", MachineType::kMicroVax, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("ns2", MachineType::kMicroVax, OsType::kUnix).ok());

    BindServerOptions primary_options;
    primary_options.allow_dynamic_update = true;
    primary_options.allow_unspecified_type = true;
    primary_ = BindServer::InstallOn(&world_, "ns1", primary_options).value();
    Zone* zone = primary_->AddZone("cs.washington.edu").value();
    ASSERT_TRUE(zone->Add(ResourceRecord::MakeA("fiji.cs.washington.edu", 0x11, 60)).ok());

    transport_ = std::make_unique<SimNetTransport>(&world_);
    client_ = std::make_unique<RpcClient>(&world_, "client", transport_.get());
  }

  BindResolver MakeResolver(const std::string& server, bool cache = true) {
    BindResolverOptions options;
    options.server_host = server;
    options.enable_cache = cache;
    return BindResolver(client_.get(), options);
  }

  World world_;
  BindServer* primary_ = nullptr;
  std::unique_ptr<SimNetTransport> transport_;
  std::unique_ptr<RpcClient> client_;
};

TEST_F(BindServerTest, QueryOverRpc) {
  BindResolver resolver = MakeResolver("ns1");
  EXPECT_EQ(resolver.LookupAddress("fiji.cs.washington.edu").value(), 0x11u);
  EXPECT_EQ(resolver.LookupAddress("nosuch.cs.washington.edu").status().code(),
            StatusCode::kNotFound);
}

TEST_F(BindServerTest, ResolverCachesUntilTtlExpiry) {
  BindResolver resolver = MakeResolver("ns1");
  ASSERT_TRUE(resolver.LookupAddress("fiji.cs.washington.edu").ok());
  uint64_t misses = resolver.stats().cache_misses;

  ASSERT_TRUE(resolver.LookupAddress("fiji.cs.washington.edu").ok());
  EXPECT_EQ(resolver.stats().cache_misses, misses);
  EXPECT_EQ(resolver.stats().cache_hits, 1u);

  // The record's TTL is 60 s; advance past it.
  world_.clock().AdvanceMs(61.0 * 1000.0);
  ASSERT_TRUE(resolver.LookupAddress("fiji.cs.washington.edu").ok());
  EXPECT_EQ(resolver.stats().cache_misses, misses + 1);
}

TEST_F(BindServerTest, DynamicUpdateGatedByOptions) {
  // ns2: stock server, no updates.
  BindServer* stock = BindServer::InstallOn(&world_, "ns2", BindServerOptions{}).value();
  (void)stock->AddZone("ee.washington.edu").value();  // hcs:ignore-status(install helper; value() aborts on failure, handle unused)
  BindResolver to_stock = MakeResolver("ns2");
  EXPECT_EQ(to_stock
                .Update(UpdateOp::kAdd, ResourceRecord::MakeA("x.ee.washington.edu", 1))
                .code(),
            StatusCode::kPermissionDenied);

  // The modified server accepts them and they are immediately visible.
  BindResolver to_primary = MakeResolver("ns1", /*cache=*/false);
  ASSERT_TRUE(to_primary
                  .Update(UpdateOp::kAdd, ResourceRecord::MakeA("new.cs.washington.edu", 0x22))
                  .ok());
  EXPECT_EQ(to_primary.LookupAddress("new.cs.washington.edu").value(), 0x22u);

  // Delete.
  ResourceRecord del;
  del.name = "new.cs.washington.edu";
  del.type = RrType::kA;
  ASSERT_TRUE(to_primary.Update(UpdateOp::kDelete, del).ok());
  EXPECT_FALSE(to_primary.LookupAddress("new.cs.washington.edu").ok());
}

TEST_F(BindServerTest, UnspecifiedTypeGatedByOptions) {
  BindServer* stock = BindServer::InstallOn(&world_, "ns2", BindServerOptions{}).value();
  (void)stock->AddZone("z").value();  // hcs:ignore-status(install helper; value() aborts on failure, handle unused)
  BindResolver to_stock = MakeResolver("ns2");
  ResourceRecord unspec;
  unspec.name = "meta.z";
  unspec.type = RrType::kUnspec;
  unspec.rdata = Bytes{0, 0, 1};
  EXPECT_EQ(to_stock.Update(UpdateOp::kAdd, unspec).code(), StatusCode::kPermissionDenied);
}

TEST_F(BindServerTest, ZoneTransferReturnsWholeZone) {
  Zone* zone = primary_->FindZone("cs.washington.edu");
  ASSERT_TRUE(zone->Add(ResourceRecord::MakeTxt("fiji.cs.washington.edu", "note")).ok());
  BindResolver resolver = MakeResolver("ns1");
  Result<BindAxfrResponse> axfr = resolver.ZoneTransfer("cs.washington.edu");
  ASSERT_TRUE(axfr.ok()) << axfr.status();
  EXPECT_EQ(axfr->records.size(), zone->size());
  EXPECT_EQ(axfr->serial, zone->serial());
  EXPECT_FALSE(resolver.ZoneTransfer("nozone").ok());
}

TEST_F(BindServerTest, ForwarderCachesAndInvalidates) {
  BindServerOptions secondary_options;
  secondary_options.forwarder_host = "ns1";
  BindServer* secondary = BindServer::InstallOn(&world_, "ns2", secondary_options).value();
  primary_->AddNotifyTarget("ns2");

  BindResolver via_secondary = MakeResolver("ns2", /*cache=*/false);
  EXPECT_EQ(via_secondary.LookupAddress("fiji.cs.washington.edu").value(), 0x11u);
  EXPECT_EQ(secondary->forward_cache_misses(), 1u);
  EXPECT_EQ(via_secondary.LookupAddress("fiji.cs.washington.edu").value(), 0x11u);
  EXPECT_EQ(secondary->forward_cache_hits(), 1u);

  // A dynamic update at the primary invalidates the secondary's cache entry.
  BindResolver to_primary = MakeResolver("ns1", /*cache=*/false);
  ResourceRecord del;
  del.name = "fiji.cs.washington.edu";
  del.type = RrType::kA;
  ASSERT_TRUE(to_primary.Update(UpdateOp::kDelete, del).ok());
  ASSERT_TRUE(
      to_primary.Update(UpdateOp::kAdd, ResourceRecord::MakeA("fiji.cs.washington.edu", 0x33))
          .ok());
  EXPECT_EQ(via_secondary.LookupAddress("fiji.cs.washington.edu").value(), 0x33u);
}

// One kBindProcUpdate carrying a list: committed whole under one serial
// bump with one invalidation per distinct name, or refused whole.
TEST_F(BindServerTest, UpdateListIsOneAtomicCommit) {
  BindServerOptions secondary_options;
  secondary_options.forwarder_host = "ns1";
  BindServer* secondary = BindServer::InstallOn(&world_, "ns2", secondary_options).value();
  primary_->AddNotifyTarget("ns2");
  BindResolver via_secondary = MakeResolver("ns2", /*cache=*/false);
  ASSERT_EQ(via_secondary.LookupAddress("fiji.cs.washington.edu").value(), 0x11u);
  ASSERT_EQ(secondary->forward_cache_misses(), 1u);

  Zone* zone = primary_->FindZone("cs.washington.edu");
  const uint32_t serial = zone->serial();
  HrpcBinding primary;
  primary.service_name = "bind";
  primary.host = "ns1";
  primary.port = kBindPort;
  primary.program = kBindProgram;
  primary.control = ControlKind::kRaw;
  auto send = [&](const BindUpdateRequest& request) -> Result<BindUpdateResponse> {
    HCS_ASSIGN_OR_RETURN(Bytes reply, client_->Call(primary, kBindProcUpdate, request.Encode()));
    return BindUpdateResponse::Decode(reply);
  };

  BindUpdateRequest update;
  update.ops = {DeleteOp("fiji.cs.washington.edu", RrType::kA),
                AddOp(ResourceRecord::MakeA("fiji.cs.washington.edu", 0x33)),
                AddOp(ResourceRecord::MakeA("new.cs.washington.edu", 0x44)),
                AddOp(ResourceRecord::MakeTxt("new.cs.washington.edu", "two names"))};
  uint64_t messages = world_.stats().total_messages;
  Result<BindUpdateResponse> committed = send(update);
  ASSERT_TRUE(committed.ok()) << committed.status();
  EXPECT_EQ(committed->rcode, Rcode::kNoError);
  EXPECT_EQ(zone->serial(), serial + 1);
  EXPECT_EQ(world_.stats().total_messages - messages, 3u)
      << "one update exchange and one invalidation per distinct name";
  EXPECT_EQ(via_secondary.LookupAddress("fiji.cs.washington.edu").value(), 0x33u)
      << "the secondary's cached answer was invalidated";
  EXPECT_EQ(via_secondary.LookupAddress("new.cs.washington.edu").value(), 0x44u);

  // One operation outside every zone of the server refuses the list.
  BindUpdateRequest stray;
  stray.ops = {DeleteOp("fiji.cs.washington.edu", RrType::kA),
               AddOp(ResourceRecord::MakeA("late.cs.washington.edu", 0x55)),
               AddOp(ResourceRecord::MakeA("x.ee.washington.edu", 0x66))};
  Result<BindUpdateResponse> refused = send(stray);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->rcode, Rcode::kRefused);

  // Oversized rdata: the wire decoder rejects it before the zone sees it,
  // and the local interface refuses it the same way.
  BindUpdateRequest oversized;
  oversized.ops = {DeleteOp("fiji.cs.washington.edu", RrType::kA),
                   AddOp(ResourceRecord::MakeA("late.cs.washington.edu", 0x55)),
                   AddOp(ResourceRecord::MakeA("big.cs.washington.edu", 0x77))};
  oversized.ops.back().record.rdata = Bytes(kMaxRdataBytes + 1, 0);
  EXPECT_FALSE(send(oversized).ok());
  Result<BindUpdateResponse> local = primary_->UpdateLocal(oversized);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ(local->rcode, Rcode::kRefused);

  EXPECT_EQ(zone->serial(), serial + 1) << "a refused list bumps nothing";
  BindResolver direct = MakeResolver("ns1", /*cache=*/false);
  EXPECT_EQ(direct.LookupAddress("fiji.cs.washington.edu").value(), 0x33u);
  EXPECT_EQ(direct.LookupAddress("late.cs.washington.edu").status().code(),
            StatusCode::kNotFound);
}

TEST_F(BindServerTest, SecondaryZoneRefreshesOnSerialChange) {
  BindServer* secondary = BindServer::InstallOn(&world_, "ns2", BindServerOptions{}).value();
  ASSERT_TRUE(secondary->AddSecondaryZone("cs.washington.edu", "ns1").ok());

  // Initial transfer.
  EXPECT_EQ(secondary->RefreshSecondaryZones().value(), 1u);
  BindResolver via_secondary = MakeResolver("ns2", /*cache=*/false);
  EXPECT_EQ(via_secondary.LookupAddress("fiji.cs.washington.edu").value(), 0x11u);

  // No change: refresh is a no-op (serial check only).
  EXPECT_EQ(secondary->RefreshSecondaryZones().value(), 0u);

  // Primary changes; the secondary is stale until the next refresh.
  Zone* primary_zone = primary_->FindZone("cs.washington.edu");
  ASSERT_TRUE(primary_zone->Add(ResourceRecord::MakeA("newhost.cs.washington.edu", 0x44))
                  .ok());
  EXPECT_FALSE(via_secondary.LookupAddress("newhost.cs.washington.edu").ok());
  EXPECT_EQ(secondary->RefreshSecondaryZones().value(), 1u);
  EXPECT_EQ(via_secondary.LookupAddress("newhost.cs.washington.edu").value(), 0x44u);
}

TEST_F(BindServerTest, PeriodicRefreshRunsOnTheEventQueue) {
  BindServer* secondary = BindServer::InstallOn(&world_, "ns2", BindServerOptions{}).value();
  ASSERT_TRUE(secondary->AddSecondaryZone("cs.washington.edu", "ns1").ok());
  secondary->SchedulePeriodicRefresh(600.0);  // every 10 simulated minutes

  Zone* primary_zone = primary_->FindZone("cs.washington.edu");
  ASSERT_TRUE(primary_zone->Add(ResourceRecord::MakeA("tick.cs.washington.edu", 0x55)).ok());

  // Run 11 simulated minutes of timer events.
  world_.events().RunUntil(world_.clock().Now() + MsToSim(11.0 * 60.0 * 1000.0));
  BindResolver via_secondary = MakeResolver("ns2", /*cache=*/false);
  EXPECT_EQ(via_secondary.LookupAddress("tick.cs.washington.edu").value(), 0x55u);
  EXPECT_GT(world_.events().pending(), 0u) << "the refresh timer re-arms itself";
}

TEST_F(BindServerTest, SecondaryRefreshSurvivesPrimaryOutage) {
  BindServer* secondary = BindServer::InstallOn(&world_, "ns2", BindServerOptions{}).value();
  ASSERT_TRUE(secondary->AddSecondaryZone("cs.washington.edu", "ns1").ok());
  ASSERT_TRUE(secondary->RefreshSecondaryZones().ok());

  world_.UnregisterService("ns1", kBindPort);
  EXPECT_FALSE(secondary->RefreshSecondaryZones().ok());
  // The stale replica still answers (availability through replication).
  BindResolver via_secondary = MakeResolver("ns2", /*cache=*/false);
  EXPECT_EQ(via_secondary.LookupAddress("fiji.cs.washington.edu").value(), 0x11u);
}

TEST_F(BindServerTest, IterativeQueryDoesNotForward) {
  BindServerOptions secondary_options;
  secondary_options.forwarder_host = "ns1";
  (void)BindServer::InstallOn(&world_, "ns2", secondary_options).value();  // hcs:ignore-status(install helper; value() aborts on failure, handle unused)

  BindQueryRequest request;
  request.name = "fiji.cs.washington.edu";
  request.type = RrType::kA;
  request.recursion_desired = false;

  HrpcBinding b;
  b.host = "ns2";
  b.port = kBindPort;
  b.program = kBindProgram;
  b.control = ControlKind::kRaw;
  Result<Bytes> reply = client_->Call(b, kBindProcQuery, request.Encode());
  ASSERT_TRUE(reply.ok());
  BindQueryResponse response = BindQueryResponse::Decode(*reply).value();
  EXPECT_EQ(response.rcode, Rcode::kServFail);
}

}  // namespace
}  // namespace hcs
