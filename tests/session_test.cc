// Unit tests for the session layer: colocation arrangements, remote HNS and
// NSM paths, the agent, and Import.

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/hns/import.h"
#include "src/rpc/ports.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

HnsName SunName() {
  return HnsName::Parse(std::string(kContextBindBinding) + "!" + kSunServerHost).value();
}

TEST(SessionTest, RemoteHnsFindNsmMatchesLinkedHns) {
  Testbed bed;
  ClientSetup linked = bed.MakeClient(Arrangement::kAllLinked);
  ClientSetup remote = bed.MakeClient(Arrangement::kAllRemote);

  Result<NsmHandle> local_handle = linked.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  Result<NsmHandle> remote_handle = remote.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  ASSERT_TRUE(local_handle.ok()) << local_handle.status();
  ASSERT_TRUE(remote_handle.ok()) << remote_handle.status();
  EXPECT_EQ(local_handle->nsm_name, remote_handle->nsm_name);
  EXPECT_EQ(local_handle->binding, remote_handle->binding);
  EXPECT_FALSE(remote_handle->is_linked());
}

TEST(SessionTest, RemoteHnsPrefersClientLinkedNsms) {
  Testbed bed;
  // Row 3: [HNS] [Client, NSMs] — the remote HNS designates the NSM, the
  // client then uses its linked instance.
  ClientSetup client = bed.MakeClient(Arrangement::kRemoteHns);
  Result<NsmHandle> handle = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  ASSERT_TRUE(handle.ok()) << handle.status();
  EXPECT_TRUE(handle->is_linked());
}

TEST(SessionTest, AgentAnswersWholeQueries) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAgent);
  // FindNSM alone is not part of the agent interface.
  EXPECT_EQ(client.session->FindNsm(SunName(), kQueryClassHrpcBinding).status().code(),
            StatusCode::kUnimplemented);

  WireValue args = RecordBuilder().Str("service", kDesiredService).Build();
  Result<WireValue> result = client.session->Query(SunName(), kQueryClassHrpcBinding, args);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(HrpcBinding::FromWire(*result).value().port, kDesiredServicePort);
}

TEST(SessionTest, AgentPropagatesErrors) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAgent);
  HnsName bad = HnsName::Parse("NoSuchContext!x").value();
  EXPECT_EQ(client.session->Query(bad, kQueryClassHostAddress, WireValue::OfRecord({}))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SessionTest, RemoteNsmPathGoesOverTheWire) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllRemote);
  client.FlushAll();
  bed.world().stats().Clear();
  WireValue args = RecordBuilder().Str("service", kDesiredService).Build();
  Result<WireValue> result = client.session->Query(SunName(), kQueryClassHrpcBinding, args);
  ASSERT_TRUE(result.ok()) << result.status();

  std::string hns_endpoint = AsciiToLower(std::string(kHnsServerHost)) + ":" +
                             std::to_string(kHnsServerPort);
  std::string nsm_endpoint =
      AsciiToLower(std::string(kNsmServerHost)) + ":" + std::to_string(711);
  EXPECT_EQ(bed.world().stats().messages_per_endpoint[hns_endpoint], 1u);
  EXPECT_EQ(bed.world().stats().messages_per_endpoint[nsm_endpoint], 1u);
}

TEST(SessionTest, DuplicateNsmLinkRejected) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  std::vector<std::shared_ptr<Nsm>> extra = bed.MakeLinkedNsms(kClientHost);
  EXPECT_EQ(client.session->LinkNsm(extra.front()).code(), StatusCode::kAlreadyExists);
}

TEST(ImporterTest, ParsesTextualHostNames) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Importer importer(client.session.get());
  Result<HrpcBinding> ok =
      importer.Import(kDesiredService, "HRPCBinding-BIND!fiji.cs.washington.edu");
  EXPECT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(importer.Import(kDesiredService, "no-separator").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ImporterTest, UnknownServiceFailsCleanly) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Importer importer(client.session.get());
  EXPECT_EQ(importer.Import("NoSuchService", SunName()).status().code(),
            StatusCode::kNotFound);
}

// The arrangements are behaviourally interchangeable even when caches are in
// arbitrary states — a different ordering from the integration test's
// cold-state sweep.
TEST(SessionTest, ArrangementsAgreeWithWarmAndColdCachesMixed) {
  Testbed bed;
  WireValue args = RecordBuilder().Str("service", kDesiredService).Build();
  Result<WireValue> reference(InternalError("unset"));
  for (Arrangement a : {Arrangement::kAllRemote, Arrangement::kAgent,
                        Arrangement::kRemoteNsms, Arrangement::kRemoteHns,
                        Arrangement::kAllLinked}) {
    SCOPED_TRACE(ArrangementName(a));
    ClientSetup client = bed.MakeClient(a);
    // Deliberately no flush: some caches are warm from earlier arrangements.
    Result<WireValue> result = client.session->Query(SunName(), kQueryClassHrpcBinding, args);
    ASSERT_TRUE(result.ok()) << result.status();
    if (!reference.ok()) {
      reference = result;
    } else {
      EXPECT_EQ(*result, *reference);
    }
  }
}

}  // namespace
}  // namespace hcs
