// Tests for Export (native publication).

#include <gtest/gtest.h>

#include "src/apps/export.h"
#include "src/hns/import.h"
#include "src/testbed/testbed.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  ExportTest()
      : client_(bed_.MakeClient(Arrangement::kAllLinked)),
        rpc_(&bed_.world(), kClientHost, &bed_.transport()) {}

  Testbed bed_;
  ClientSetup client_;
  RpcClient rpc_;
};

TEST_F(ExportTest, SunServiceExportsThenImportsEverywhere) {
  // A brand-new service comes up on tahiti and exports itself natively.
  auto server = std::make_unique<RpcServer>(ControlKind::kSunRpc, "CalendarService");
  server->RegisterProcedure(510001, 1, [](BytesView args) -> Result<Bytes> {
    return args.ToBytes();
  });
  RpcServer* raw = bed_.world().OwnService(std::move(server));

  BindPublisher publisher(bed_.public_bind(), &rpc_);
  ASSERT_TRUE(ExportService(&bed_.world(), &publisher, kClientHost, "CalendarService",
                            510001, 1, 4000, raw)
                  .ok());

  // With *no* HNS administration, any client can now import it: the binding
  // NSM reads the native data.
  Importer importer(client_.session.get());
  Result<HrpcBinding> binding = importer.Import(
      "CalendarService", std::string(kContextBindBinding) + "!" + kClientHost);
  ASSERT_TRUE(binding.ok()) << binding.status();
  EXPECT_EQ(binding->port, 4000);
  EXPECT_EQ(binding->program, 510001u);

  // And call it.
  Result<Bytes> reply = rpc_.Call(*binding, 1, Bytes{1, 2, 3});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{1, 2, 3}));
}

TEST_F(ExportTest, WithdrawMakesImportsFail) {
  auto server = std::make_unique<RpcServer>(ControlKind::kSunRpc, "Transient");
  RpcServer* raw = bed_.world().OwnService(std::move(server));
  BindPublisher publisher(bed_.public_bind(), &rpc_);
  ASSERT_TRUE(ExportService(&bed_.world(), &publisher, kClientHost, "Transient", 510002, 1,
                            4001, raw)
                  .ok());
  ASSERT_TRUE(publisher.Withdraw(kClientHost, "Transient").ok());
  EXPECT_EQ(publisher.Withdraw(kClientHost, "Transient").code(), StatusCode::kNotFound);

  ClientSetup fresh = bed_.MakeClient(Arrangement::kAllLinked);
  Importer importer(fresh.session.get());
  EXPECT_EQ(importer
                .Import("Transient", std::string(kContextBindBinding) + "!" + kClientHost)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ExportTest, PortCollisionRollsBackThePublication) {
  auto server = std::make_unique<RpcServer>(ControlKind::kSunRpc, "Clash");
  RpcServer* raw = bed_.world().OwnService(std::move(server));
  BindPublisher publisher(bed_.public_bind(), &rpc_);
  // kDesiredServicePort on fiji is taken by DesiredService.
  EXPECT_EQ(ExportService(&bed_.world(), &publisher, kSunServerHost, "Clash", 510003, 1,
                          kDesiredServicePort, raw)
                .code(),
            StatusCode::kAlreadyExists);
  // No descriptor was left behind.
  Zone* zone = bed_.public_bind()->FindZone(kSunServerHost);
  Result<std::vector<ResourceRecord>> records =
      zone->Lookup(SunServiceRecordName(kSunServerHost, "Clash"), RrType::kWks);
  EXPECT_FALSE(records.ok() && !records->empty());
}

TEST_F(ExportTest, CourierServiceExportsThroughTheClearinghouse) {
  auto server = std::make_unique<RpcServer>(ControlKind::kCourier, "ScanService");
  server->RegisterProcedure(510010, 1,
                            [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  RpcServer* raw = bed_.world().OwnService(std::move(server));

  ChClient ch_client(&rpc_, kChServerHost, TestbedCredentials());
  ChPublisher publisher(&ch_client);
  ASSERT_TRUE(ExportService(&bed_.world(), &publisher, kXeroxServerHost, "ScanService",
                            510010, 1, 3001, raw)
                  .ok());

  Importer importer(client_.session.get());
  Result<HrpcBinding> binding = importer.Import(
      "ScanService", std::string(kContextChBinding) + "!" + kXeroxServerHost);
  ASSERT_TRUE(binding.ok()) << binding.status();
  EXPECT_EQ(binding->port, 3001);
  EXPECT_EQ(binding->control, ControlKind::kCourier);

  // The pre-existing PrintService entry survived the merge.
  Result<HrpcBinding> old_binding = importer.Import(
      kPrintService, std::string(kContextChBinding) + "!" + kXeroxServerHost);
  EXPECT_TRUE(old_binding.ok()) << old_binding.status();
}

}  // namespace
}  // namespace hcs
