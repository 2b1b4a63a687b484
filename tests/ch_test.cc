// Unit tests for src/ch: Clearinghouse names, protocol, server, client.

#include <gtest/gtest.h>

#include "src/ch/client.h"
#include "src/ch/server.h"
#include "src/rpc/ports.h"
#include "src/rpc/transport.h"

namespace hcs {
namespace {

// --- ChName ---------------------------------------------------------------------

TEST(ChNameTest, ParseAndFormat) {
  Result<ChName> name = ChName::Parse("Dorado:CSL:Xerox");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->object, "Dorado");
  EXPECT_EQ(name->domain, "CSL");
  EXPECT_EQ(name->organization, "Xerox");
  EXPECT_EQ(name->ToString(), "Dorado:CSL:Xerox");
  EXPECT_EQ(name->DomainKey(), "csl:xerox");
}

TEST(ChNameTest, RejectsMalformed) {
  EXPECT_FALSE(ChName::Parse("onlyobject").ok());
  EXPECT_FALSE(ChName::Parse("a:b").ok());
  EXPECT_FALSE(ChName::Parse("a:b:c:d").ok());
  EXPECT_FALSE(ChName::Parse(":b:c").ok());
  EXPECT_FALSE(ChName::Parse("a::c").ok());
}

TEST(ChNameTest, ComparisonIsCaseInsensitive) {
  EXPECT_EQ(ChName::Parse("dorado:csl:xerox").value(),
            ChName::Parse("Dorado:CSL:Xerox").value());
  EXPECT_NE(ChName::Parse("dorado:csl:xerox").value(),
            ChName::Parse("dolphin:csl:xerox").value());
}

// --- Protocol round trips ----------------------------------------------------------

TEST(ChProtocolTest, RetrieveItemRoundTrip) {
  ChRetrieveItemRequest req;
  req.credentials = {"HCS:CSL:Xerox", "pw"};
  req.name = ChName::Parse("Dorado:CSL:Xerox").value();
  req.property = kChPropAddress;
  Result<ChRetrieveItemRequest> decoded = ChRetrieveItemRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->credentials.user, "HCS:CSL:Xerox");
  EXPECT_EQ(decoded->name, req.name);
  EXPECT_EQ(decoded->property, kChPropAddress);

  ChRetrieveItemResponse resp;
  resp.distinguished_name = req.name;
  resp.item = RecordBuilder().U32("address", 42).Build();
  Result<ChRetrieveItemResponse> decoded_resp = ChRetrieveItemResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded_resp.ok());
  EXPECT_EQ(decoded_resp->item, resp.item);
}

// --- Server + client -----------------------------------------------------------------

class ChServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("client", MachineType::kSun, OsType::kUnix).ok());
    ASSERT_TRUE(
        world_.network().AddHost("Dandelion:CSL:Xerox", MachineType::kXeroxD, OsType::kXde)
            .ok());
    server_ = ChServer::InstallOn(&world_, "Dandelion:CSL:Xerox", ChServerOptions{}).value();
    server_->AddDomain("CSL", "Xerox");
    server_->AddAccount("HCS:CSL:Xerox", "pw");

    transport_ = std::make_unique<SimNetTransport>(&world_);
    rpc_ = std::make_unique<RpcClient>(&world_, "client", transport_.get());
    client_ = std::make_unique<ChClient>(rpc_.get(), "Dandelion:CSL:Xerox",
                                         ChCredentials{"HCS:CSL:Xerox", "pw"});
  }

  ChName Dorado() { return ChName::Parse("Dorado:CSL:Xerox").value(); }

  World world_;
  ChServer* server_ = nullptr;
  std::unique_ptr<SimNetTransport> transport_;
  std::unique_ptr<RpcClient> rpc_;
  std::unique_ptr<ChClient> client_;
};

TEST_F(ChServerTest, AddRetrieveDeleteItem) {
  WireValue item = RecordBuilder().U32("address", 7).Build();
  ASSERT_TRUE(client_->AddItem(Dorado(), kChPropAddress, item).ok());
  EXPECT_EQ(server_->item_count(), 1u);

  Result<ChRetrieveItemResponse> got = client_->RetrieveItem(Dorado(), kChPropAddress);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->item, item);
  EXPECT_EQ(got->distinguished_name, Dorado());

  ASSERT_TRUE(client_->DeleteItem(Dorado(), kChPropAddress).ok());
  EXPECT_EQ(client_->RetrieveItem(Dorado(), kChPropAddress).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client_->DeleteItem(Dorado(), kChPropAddress).code(), StatusCode::kNotFound);
}

TEST_F(ChServerTest, MissingDomainObjectAndProperty) {
  WireValue item = RecordBuilder().U32("address", 7).Build();
  // Unknown domain.
  EXPECT_EQ(client_->AddItem(ChName::Parse("X:Nowhere:Xerox").value(), 1, item).code(),
            StatusCode::kNotFound);
  // Unknown object.
  EXPECT_EQ(client_->RetrieveItem(Dorado(), kChPropAddress).status().code(),
            StatusCode::kNotFound);
  // Known object, unknown property.
  ASSERT_TRUE(client_->AddItem(Dorado(), kChPropAddress, item).ok());
  EXPECT_EQ(client_->RetrieveItem(Dorado(), kChPropMailboxes).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ChServerTest, AuthenticationRequiredOnEveryAccess) {
  ChClient intruder(rpc_.get(), "Dandelion:CSL:Xerox",
                    ChCredentials{"HCS:CSL:Xerox", "wrong"});
  EXPECT_EQ(intruder.RetrieveItem(Dorado(), kChPropAddress).status().code(),
            StatusCode::kPermissionDenied);
  ChClient stranger(rpc_.get(), "Dandelion:CSL:Xerox",
                    ChCredentials{"Nobody:CSL:Xerox", "pw"});
  EXPECT_EQ(stranger
                .AddItem(Dorado(), kChPropAddress, RecordBuilder().U32("address", 1).Build())
                .code(),
            StatusCode::kPermissionDenied);
}

TEST_F(ChServerTest, AuthenticationAndDiskMakeAccessesExpensive) {
  WireValue item = RecordBuilder().U32("address", 7).Build();
  ASSERT_TRUE(client_->AddItem(Dorado(), kChPropAddress, item).ok());
  double t0 = world_.clock().NowMs();
  ASSERT_TRUE(client_->RetrieveItem(Dorado(), kChPropAddress).ok());
  double elapsed = world_.clock().NowMs() - t0;
  EXPECT_GE(elapsed, kCosts.ch_auth_ms + kCosts.ch_disk_ms);
}

TEST_F(ChServerTest, AliasesResolveToDistinguishedName) {
  WireValue item = RecordBuilder().U32("address", 9).Build();
  ASSERT_TRUE(client_->AddItem(Dorado(), kChPropAddress, item).ok());
  ChName alias = ChName::Parse("PrintHost:CSL:Xerox").value();
  ASSERT_TRUE(server_->AddAlias(alias, Dorado()).ok());

  Result<ChRetrieveItemResponse> got = client_->RetrieveItem(alias, kChPropAddress);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->distinguished_name, Dorado());
  EXPECT_EQ(got->item, item);
}

TEST_F(ChServerTest, ListObjectsEnumeratesDomain) {
  WireValue item = RecordBuilder().U32("address", 1).Build();
  ASSERT_TRUE(client_->AddItem(Dorado(), kChPropAddress, item).ok());
  ASSERT_TRUE(
      client_->AddItem(ChName::Parse("Dolphin:CSL:Xerox").value(), kChPropAddress, item).ok());

  Result<std::vector<std::string>> objects = client_->ListObjects("CSL", "Xerox");
  ASSERT_TRUE(objects.ok()) << objects.status();
  EXPECT_EQ(objects->size(), 2u);
  EXPECT_FALSE(client_->ListObjects("Nowhere", "Xerox").ok());
}

TEST_F(ChServerTest, WritesPropagateToReplicasAndClientsFailOver) {
  // A replica Clearinghouse on a second D-machine.
  ASSERT_TRUE(
      world_.network().AddHost("Daisy:CSL:Xerox", MachineType::kXeroxD, OsType::kXde).ok());
  ChServer* replica = ChServer::InstallOn(&world_, "Daisy:CSL:Xerox", ChServerOptions{}).value();
  replica->AddDomain("CSL", "Xerox");
  replica->AddAccount("HCS:CSL:Xerox", "pw");
  server_->AddReplicaTarget("Daisy:CSL:Xerox");

  // A write through the primary lands on both.
  WireValue item = RecordBuilder().U32("address", 11).Build();
  ASSERT_TRUE(client_->AddItem(Dorado(), kChPropAddress, item).ok());
  EXPECT_EQ(server_->item_count(), 1u);
  EXPECT_EQ(replica->item_count(), 1u);

  // The primary dies; a replica-aware client keeps reading.
  world_.UnregisterService("Dandelion:CSL:Xerox", kClearinghousePort);
  ChClient failover(rpc_.get(),
                    std::vector<std::string>{"Dandelion:CSL:Xerox", "Daisy:CSL:Xerox"},
                    ChCredentials{"HCS:CSL:Xerox", "pw"});
  Result<ChRetrieveItemResponse> got = failover.RetrieveItem(Dorado(), kChPropAddress);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->item, item);

  // A single-host client sees the outage.
  EXPECT_EQ(client_->RetrieveItem(Dorado(), kChPropAddress).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(ChServerTest, DownReplicaDoesNotBlockPrimaryWrites) {
  server_->AddReplicaTarget("Ghost:CSL:Xerox");  // never installed
  ASSERT_TRUE(
      world_.network().AddHost("Ghost:CSL:Xerox", MachineType::kXeroxD, OsType::kXde).ok());
  WireValue item = RecordBuilder().U32("address", 5).Build();
  EXPECT_TRUE(client_->AddItem(Dorado(), kChPropAddress, item).ok())
      << "best-effort propagation must not fail the client's write";
}

TEST_F(ChServerTest, CourierFramingCarriesErrorsAsAborts) {
  // An application error from the Clearinghouse travels back through the
  // Courier ABORT message and reconstructs the status.
  Result<ChRetrieveItemResponse> r =
      client_->RetrieveItem(ChName::Parse("Ghost:CSL:Xerox").value(), kChPropAddress);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(r.status().message().empty());
}

}  // namespace
}  // namespace hcs
