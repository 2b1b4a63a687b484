// Tests for the HostName (reverse lookup) query class: cheap PTR lookups on
// the BIND side, authenticated domain sweeps on the Clearinghouse side,
// identical interfaces to the client.

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/nsm/reverse_nsms.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

TEST(ReverseNameTest, AddressFormatting) {
  EXPECT_EQ(FormatAddress(0x80950104), "128.149.1.4");
  EXPECT_EQ(ParseAddress("128.149.1.4").value(), 0x80950104u);
  EXPECT_FALSE(ParseAddress("1.2.3").ok());
  EXPECT_FALSE(ParseAddress("a.b.c.d").ok());
  EXPECT_FALSE(ParseAddress("256.0.0.1").ok());
  // The error names the address it refused.
  EXPECT_NE(ParseAddress("999.0.0.1").status().message().find("999"), std::string::npos);
}

TEST(ReverseNameTest, RecordNamingFollowsInAddrArpa) {
  EXPECT_EQ(ReverseRecordName(0x80950104), "4.1.149.128.in-addr.arpa");
  ResourceRecord rr = MakePtrRecord(0x80950104, "fiji.cs.washington.edu");
  EXPECT_EQ(rr.type, RrType::kPtr);
  EXPECT_EQ(rr.TextRdata().value(), "fiji.cs.washington.edu");
}

class ReverseNsmTest : public ::testing::Test {
 protected:
  ReverseNsmTest() : client_(bed_.MakeClient(Arrangement::kAllLinked)) {}

  Result<WireValue> Lookup(const char* context, uint32_t address) {
    HnsName name;
    name.context = context;
    name.individual = FormatAddress(address);
    return client_.session->Query(name, kQueryClassHostName, WireValue::OfRecord({}));
  }

  Testbed bed_;
  ClientSetup client_;
};

TEST_F(ReverseNsmTest, BindSideResolvesThroughPtrRecords) {
  HostInfo fiji = bed_.world().network().GetHost(kSunServerHost).value();
  Result<WireValue> result = Lookup(kContextBind, fiji.address);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->StringField("host").value(), kSunServerHost);
  EXPECT_EQ(result->Uint32Field("address").value(), fiji.address);
}

TEST_F(ReverseNsmTest, ChSideResolvesByDomainSweep) {
  HostInfo dorado = bed_.world().network().GetHost(kXeroxServerHost).value();
  Result<WireValue> result = Lookup(kContextCh, dorado.address);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->StringField("host").value(), kXeroxServerHost);
}

TEST_F(ReverseNsmTest, ForwardAndReverseAreConsistentAcrossAllHosts) {
  // address(host(a)) == a for every department machine.
  WireValue no_args = WireValue::OfRecord({});
  for (const HostInfo& host : bed_.world().network().hosts()) {
    if (!EndsWith(AsciiToLower(host.name), ".cs.washington.edu")) {
      continue;
    }
    Result<WireValue> reverse = Lookup(kContextBind, host.address);
    ASSERT_TRUE(reverse.ok()) << host.name << ": " << reverse.status();
    HnsName forward_name;
    forward_name.context = kContextBind;
    forward_name.individual = reverse->StringField("host").value();
    Result<WireValue> forward =
        client_.session->Query(forward_name, kQueryClassHostAddress, no_args);
    ASSERT_TRUE(forward.ok()) << forward.status();
    EXPECT_EQ(forward->Uint32Field("address").value(), host.address) << host.name;
  }
}

TEST_F(ReverseNsmTest, UnknownAddressesAndBadSyntax) {
  EXPECT_EQ(Lookup(kContextBind, 0x0a0a0a0a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Lookup(kContextCh, 0x0a0a0a0a).status().code(), StatusCode::kNotFound);
  HnsName bad;
  bad.context = kContextBind;
  bad.individual = "not-an-address";
  EXPECT_EQ(client_.session->Query(bad, kQueryClassHostName, WireValue::OfRecord({}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ReverseNsmTest, ChSweepIsFarCostlierThanBindPtrLookup) {
  HostInfo fiji = bed_.world().network().GetHost(kSunServerHost).value();
  HostInfo dorado = bed_.world().network().GetHost(kXeroxServerHost).value();
  // Warm the meta path for both so only the NSM work differs.
  (void)Lookup(kContextBind, fiji.address);  // hcs:ignore-status(warm-up; only the later timed lookups are asserted)
  (void)Lookup(kContextCh, dorado.address);  // hcs:ignore-status(warm-up; only the later timed lookups are asserted)
  // Fresh addresses (flush NSM caches to force the underlying work).
  client_.FlushNsmCaches();

  double t0 = bed_.world().clock().NowMs();
  ASSERT_TRUE(Lookup(kContextBind, fiji.address).ok());
  double bind_ms = bed_.world().clock().NowMs() - t0;
  t0 = bed_.world().clock().NowMs();
  ASSERT_TRUE(Lookup(kContextCh, dorado.address).ok());
  double ch_ms = bed_.world().clock().NowMs() - t0;

  EXPECT_GT(ch_ms, 2 * bind_ms)
      << "no reverse index: the CH pays authenticated sweeps; BIND pays one PTR lookup";
}

TEST_F(ReverseNsmTest, SweepResultIsCachedLikeAnyOther) {
  HostInfo dorado = bed_.world().network().GetHost(kXeroxServerHost).value();
  ASSERT_TRUE(Lookup(kContextCh, dorado.address).ok());
  bed_.world().stats().Clear();
  ASSERT_TRUE(Lookup(kContextCh, dorado.address).ok());
  EXPECT_EQ(bed_.world().stats().total_messages, 0u);
}

}  // namespace
}  // namespace hcs
