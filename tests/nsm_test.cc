// Unit tests for src/nsm: the concrete NSMs and the host-table system type.
// The central property: NSMs for one query class are interchangeable — the
// caller cannot tell which name service answered.

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/nsm/bind_nsms.h"
#include "src/nsm/ch_nsms.h"
#include "src/nsm/host_table.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

class NsmTest : public ::testing::Test {
 protected:
  NsmTest() : bed_(), nsms_(bed_.MakeLinkedNsms(kClientHost)) {}

  Nsm* Find(const std::string& name) {
    for (auto& nsm : nsms_) {
      if (EqualsIgnoreCase(nsm->info().nsm_name, name)) {
        return nsm.get();
      }
    }
    return nullptr;
  }

  static HnsName Name(const std::string& context, const std::string& individual) {
    HnsName n;
    n.context = context;
    n.individual = individual;
    return n;
  }

  Testbed bed_;
  std::vector<std::shared_ptr<Nsm>> nsms_;
  WireValue no_args_ = WireValue::OfRecord({});
};

// --- HostAddress query class ---------------------------------------------------

TEST_F(NsmTest, HostAddressNsmsShareTheResultFormat) {
  Result<WireValue> bind_result =
      Find(kNsmHostAddrBind)->Query(Name(kContextBind, kSunServerHost), no_args_);
  ASSERT_TRUE(bind_result.ok()) << bind_result.status();
  Result<WireValue> ch_result =
      Find(kNsmHostAddrCh)->Query(Name(kContextCh, kXeroxServerHost), no_args_);
  ASSERT_TRUE(ch_result.ok()) << ch_result.status();

  // Identical interfaces: both results expose the same fields.
  EXPECT_TRUE(bind_result->Uint32Field("address").ok());
  EXPECT_TRUE(ch_result->Uint32Field("address").ok());
  EXPECT_TRUE(bind_result->StringField("host").ok());
  EXPECT_TRUE(ch_result->StringField("host").ok());
}

TEST_F(NsmTest, HostAddressUnknownNames) {
  EXPECT_EQ(Find(kNsmHostAddrBind)
                ->Query(Name(kContextBind, "ghost.cs.washington.edu"), no_args_)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Find(kNsmHostAddrCh)
                ->Query(Name(kContextCh, "Ghost:CSL:Xerox"), no_args_)
                .status()
                .code(),
            StatusCode::kNotFound);
  // A malformed Clearinghouse individual name is rejected without a remote
  // call.
  EXPECT_EQ(Find(kNsmHostAddrCh)
                ->Query(Name(kContextCh, "not-a-ch-name"), no_args_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(NsmTest, NsmCacheAvoidsRemoteCalls) {
  Nsm* nsm = Find(kNsmHostAddrBind);
  ASSERT_TRUE(nsm->Query(Name(kContextBind, kSunServerHost), no_args_).ok());
  bed_.world().stats().Clear();
  ASSERT_TRUE(nsm->Query(Name(kContextBind, kSunServerHost), no_args_).ok());
  EXPECT_EQ(bed_.world().stats().total_messages, 0u);

  // The cache can be flushed through the generic NSM interface.
  ASSERT_NE(nsm->cache(), nullptr);
  nsm->cache()->Clear();
  ASSERT_TRUE(nsm->Query(Name(kContextBind, kSunServerHost), no_args_).ok());
  EXPECT_GT(bed_.world().stats().total_messages, 0u);
}

// --- HRPCBinding query class -------------------------------------------------------

TEST_F(NsmTest, BindingNsmsRunTheNativeBindingProtocols) {
  WireValue sun_args = RecordBuilder().Str("service", kDesiredService).Build();
  Result<WireValue> sun_result =
      Find(kNsmBindingBind)->Query(Name(kContextBindBinding, kSunServerHost), sun_args);
  ASSERT_TRUE(sun_result.ok()) << sun_result.status();
  HrpcBinding sun_binding = HrpcBinding::FromWire(*sun_result).value();
  EXPECT_EQ(sun_binding.port, kDesiredServicePort) << "port came from the portmapper";
  EXPECT_EQ(sun_binding.bind_protocol, BindProtocol::kSunPortmap);

  WireValue courier_args = RecordBuilder().Str("service", kPrintService).Build();
  Result<WireValue> ch_result =
      Find(kNsmBindingCh)->Query(Name(kContextChBinding, kXeroxServerHost), courier_args);
  ASSERT_TRUE(ch_result.ok()) << ch_result.status();
  HrpcBinding ch_binding = HrpcBinding::FromWire(*ch_result).value();
  EXPECT_EQ(ch_binding.port, kPrintServicePort);
  EXPECT_EQ(ch_binding.bind_protocol, BindProtocol::kCourierCh);
  EXPECT_EQ(ch_binding.data_rep, DataRep::kCourier);
}

TEST_F(NsmTest, BindingNsmRequiresServiceArgument) {
  EXPECT_EQ(Find(kNsmBindingBind)
                ->Query(Name(kContextBindBinding, kSunServerHost), no_args_)
                .status()
                .code(),
            StatusCode::kNotFound);  // record has no "service" field
}

TEST_F(NsmTest, BindingNsmUnknownServiceOrHost) {
  WireValue args = RecordBuilder().Str("service", "NoSuchService").Build();
  EXPECT_EQ(Find(kNsmBindingBind)
                ->Query(Name(kContextBindBinding, kSunServerHost), args)
                .status()
                .code(),
            StatusCode::kNotFound);
  WireValue ok_args = RecordBuilder().Str("service", kDesiredService).Build();
  EXPECT_EQ(Find(kNsmBindingBind)
                ->Query(Name(kContextBindBinding, "ghost.cs.washington.edu"), ok_args)
                .status()
                .code(),
            StatusCode::kNotFound);
}

// --- MailboxInfo query class ---------------------------------------------------------

TEST_F(NsmTest, MailboxNsmsShareTheResultFormat) {
  Result<WireValue> bind_result =
      Find(kNsmMailboxBind)->Query(Name(kContextBindMail, "cs.washington.edu"), no_args_);
  ASSERT_TRUE(bind_result.ok()) << bind_result.status();
  EXPECT_EQ(bind_result->StringField("mail_host").value(), "june.cs.washington.edu")
      << "lowest-preference MX relay wins";
  EXPECT_TRUE(bind_result->Uint32Field("preference").ok());

  Result<WireValue> ch_result =
      Find(kNsmMailboxCh)->Query(Name(kContextChMail, "Purcell:CSL:Xerox"), no_args_);
  ASSERT_TRUE(ch_result.ok()) << ch_result.status();
  EXPECT_TRUE(ch_result->StringField("mail_host").ok());
  EXPECT_TRUE(ch_result->Uint32Field("preference").ok());
}

TEST_F(NsmTest, MailboxNsmRejectsMalformedMxRecords) {
  Zone* zone = bed_.public_bind()->FindZone("cs.washington.edu");
  ResourceRecord bad;
  bad.name = "broken.cs.washington.edu";
  bad.type = RrType::kMx;
  bad.rdata = BytesFromString("not-a-valid-mx");
  ASSERT_TRUE(zone->Add(bad).ok());
  EXPECT_EQ(Find(kNsmMailboxBind)
                ->Query(Name(kContextBindMail, "broken.cs.washington.edu"), no_args_)
                .status()
                .code(),
            StatusCode::kProtocolError);
}

// Regression: a two-field MX whose preference is non-numeric or wider than
// u32 used to reach std::stoul and throw (a remote crash — the rdata text
// arrives off the wire). Both must come back as clean protocol errors.
TEST_F(NsmTest, MailboxNsmSurvivesHostileMxPreference) {
  Zone* zone = bed_.public_bind()->FindZone("cs.washington.edu");
  const char* hostile[] = {"evil mailhost", "99999999999999999999 mailhost",
                           "-1 mailhost", " mailhost"};
  int i = 0;
  for (const char* rdata : hostile) {
    ResourceRecord bad;
    bad.name = StrFormat("hostile%d.cs.washington.edu", i++);
    bad.type = RrType::kMx;
    bad.rdata = BytesFromString(rdata);
    ASSERT_TRUE(zone->Add(bad).ok());
    EXPECT_EQ(Find(kNsmMailboxBind)
                  ->Query(Name(kContextBindMail, bad.name), no_args_)
                  .status()
                  .code(),
              StatusCode::kProtocolError)
        << "rdata: " << rdata;
  }
}

// --- Host-table system type ------------------------------------------------------------

TEST(HostTableTest, ServerStoresAndServes) {
  World world;
  ASSERT_TRUE(world.network().AddHost("tek", MachineType::kTektronix4400,
                                      OsType::kUniflex)
                  .ok());
  ASSERT_TRUE(world.network().AddHost("client", MachineType::kSun, OsType::kUnix).ok());
  HostTableServer* table = HostTableServer::InstallOn(&world, "tek").value();
  table->Put("a.local", 1);
  EXPECT_EQ(table->size(), 1u);

  SimNetTransport transport(&world);
  RpcClient client(&world, "client", &transport);
  ASSERT_TRUE(HostTablePut(&client, "tek", "b.local", 2).ok());
  EXPECT_EQ(table->size(), 2u);

  NsmInfo info;
  info.nsm_name = "HostAddrNSM-Tek";
  info.query_class = kQueryClassHostAddress;
  info.ns_name = "Tek";
  HostTableHostAddressNsm nsm(&world, "client", &transport, info, "tek");
  HnsName name;
  name.context = "Uniflex";
  name.individual = "b.local";
  Result<WireValue> result = nsm.Query(name, WireValue::OfRecord({}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->Uint32Field("address").value(), 2u);

  name.individual = "absent.local";
  EXPECT_EQ(nsm.Query(name, WireValue::OfRecord({})).status().code(), StatusCode::kNotFound);
}

// --- Interchangeability through a session -------------------------------------------------

TEST_F(NsmTest, SessionCannotTellWhichServiceAnswered) {
  ClientSetup client = bed_.MakeClient(Arrangement::kAllLinked);
  for (const char* spec : {"BIND!fiji.cs.washington.edu", "CH!Dorado:CSL:Xerox"}) {
    SCOPED_TRACE(spec);
    HnsName name = HnsName::Parse(spec).value();
    Result<WireValue> result =
        client.session->Query(name, kQueryClassHostAddress, no_args_);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->Uint32Field("address").ok());
  }
}

}  // namespace
}  // namespace hcs
