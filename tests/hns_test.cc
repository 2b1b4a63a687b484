// Unit tests for src/hns: names, the HNS cache, the meta store, FindNSM.

#include <gtest/gtest.h>

#include "src/bindns/zone.h"
#include "src/common/strings.h"
#include "src/hns/cache.h"
#include "src/hns/hns.h"
#include "src/hns/meta_store.h"
#include "src/hns/name.h"
#include "src/testbed/testbed.h"
#include "src/workload/engine.h"

namespace hcs {
namespace {

// --- HnsName --------------------------------------------------------------------

TEST(HnsNameTest, ParseAndFormat) {
  Result<HnsName> name = HnsName::Parse("HRPCBinding-BIND!fiji.cs.washington.edu");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->context, "HRPCBinding-BIND");
  EXPECT_EQ(name->individual, "fiji.cs.washington.edu");
  EXPECT_EQ(name->ToString(), "HRPCBinding-BIND!fiji.cs.washington.edu");
}

TEST(HnsNameTest, IndividualNamesKeepNativeSyntax) {
  // Clearinghouse names contain colons; the HNS does not interpret them.
  Result<HnsName> name = HnsName::Parse("CH!Dorado:CSL:Xerox");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->individual, "Dorado:CSL:Xerox");
  // Even '!' may appear inside the individual part (first '!' splits).
  Result<HnsName> odd = HnsName::Parse("CTX!weird!name");
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(odd->individual, "weird!name");
}

TEST(HnsNameTest, RejectsMalformed) {
  EXPECT_FALSE(HnsName::Parse("no-separator").ok());
  EXPECT_FALSE(HnsName::Parse("!name").ok());
  EXPECT_FALSE(HnsName::Parse("ctx!").ok());
  EXPECT_FALSE(HnsName::Parse("bad ctx!name").ok());  // whitespace in context
}

TEST(HnsNameTest, ContextsCaseInsensitiveIndividualsExact) {
  HnsName a = HnsName::Parse("BIND!Fiji").value();
  HnsName b = HnsName::Parse("bind!Fiji").value();
  HnsName c = HnsName::Parse("BIND!fiji").value();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c) << "individual-name semantics belong to the underlying service";
}

TEST(HnsNameTest, ContextValidation) {
  EXPECT_TRUE(ValidateContextName("HRPCBinding-BIND").ok());
  EXPECT_FALSE(ValidateContextName("").ok());
  EXPECT_FALSE(ValidateContextName(std::string(200, 'a')).ok());
  EXPECT_FALSE(ValidateContextName("has!bang").ok());
  EXPECT_FALSE(ValidateContextName("has space").ok());
}

// --- HnsCache --------------------------------------------------------------------

class HnsCacheTest : public ::testing::Test {
 protected:
  World world_;
};

TEST_F(HnsCacheTest, ModeNoneNeverHits) {
  HnsCache cache(&world_, CacheMode::kNone);
  cache.Put("k", WireValue::OfUint32(1), 60);
  EXPECT_FALSE(cache.Get("k").ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(HnsCacheTest, MarshalledAndDemarshalledReturnEqualValues) {
  WireValue value = RecordBuilder().Str("ns", "UW-BIND").U32("n", 7).Build();
  for (CacheMode mode : {CacheMode::kMarshalled, CacheMode::kDemarshalled}) {
    HnsCache cache(&world_, mode);
    cache.Put("k", value, 60);
    Result<WireValue> got = cache.Get("k");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, value);
  }
}

TEST_F(HnsCacheTest, MarshalledHitsCostMoreThanDemarshalled) {
  WireValue value = RecordBuilder().Str("a", std::string(200, 'x')).Build();
  HnsCache marshalled(&world_, CacheMode::kMarshalled);
  HnsCache demarshalled(&world_, CacheMode::kDemarshalled);
  marshalled.Put("k", value, 60);
  demarshalled.Put("k", value, 60);

  double t0 = world_.clock().NowMs();
  (void)marshalled.Get("k");  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double m = world_.clock().NowMs() - t0;
  t0 = world_.clock().NowMs();
  (void)demarshalled.Get("k");  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double d = world_.clock().NowMs() - t0;
  EXPECT_GT(m, 5 * d) << "the Table 3.2 effect: demarshal-per-hit dominates";
}

TEST_F(HnsCacheTest, TtlExpiryIsHonoured) {
  HnsCache cache(&world_, CacheMode::kDemarshalled);
  cache.Put("k", WireValue::OfUint32(1), 10);
  EXPECT_TRUE(cache.Get("k").ok());
  world_.clock().AdvanceMs(10'000.0 + 1.0);
  EXPECT_FALSE(cache.Get("k").ok());
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u) << "expired entries are reaped on access";
}

TEST_F(HnsCacheTest, StatsTrackHitsAndMisses) {
  HnsCache cache(&world_, CacheMode::kMarshalled);
  (void)cache.Get("absent");
  cache.Put("k", WireValue::OfUint32(1), 60);
  (void)cache.Get("k");
  (void)cache.Get("k");
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().inserts, 1u);
  EXPECT_NEAR(cache.stats().HitFraction(), 2.0 / 3.0, 1e-12);
}

TEST_F(HnsCacheTest, RemoveAndClear) {
  HnsCache cache(&world_, CacheMode::kDemarshalled);
  cache.Put("a", WireValue::OfUint32(1), 60);
  cache.Put("b", WireValue::OfUint32(2), 60);
  cache.Remove("a");
  EXPECT_FALSE(cache.Get("a").ok());
  EXPECT_TRUE(cache.Get("b").ok());
  EXPECT_TRUE(cache.CheckInvariants().ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.CheckInvariants().ok());
}

TEST_F(HnsCacheTest, ApproximateBytesRoughlyTracksContent) {
  HnsCache cache(&world_, CacheMode::kMarshalled);
  cache.Put("k", WireValue::OfBlob(Bytes(500, 1)), 60);
  EXPECT_GT(cache.ApproximateBytes(), 500u);
  EXPECT_LT(cache.ApproximateBytes(), 700u);
}

TEST_F(HnsCacheTest, ByteBudgetEvictsInLruOrder) {
  WireValue value = RecordBuilder().Str("blob", std::string(100, 'x')).Build();

  // Size the budget off one real entry so the test is independent of the
  // overhead constant: room for three entries, not four.
  HnsCache probe(&world_, CacheMode::kDemarshalled);
  probe.Put("k1", value, 60);
  size_t per_entry = probe.ApproximateBytes();

  HnsCacheOptions options;
  options.shards = 1;  // all keys in one shard: deterministic LRU order
  options.max_bytes = 3 * per_entry + per_entry / 2;
  HnsCache cache(&world_, CacheMode::kDemarshalled, options);
  cache.Put("k1", value, 60);
  cache.Put("k2", value, 60);
  cache.Put("k3", value, 60);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch k1 so k2 becomes least recently used, then overflow the budget.
  EXPECT_TRUE(cache.Get("k1").ok());
  cache.Put("k4", value, 60);

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_LE(cache.ApproximateBytes(), options.max_bytes);
  EXPECT_FALSE(cache.Get("k2").ok()) << "the LRU entry is the victim";
  EXPECT_TRUE(cache.Get("k1").ok());
  EXPECT_TRUE(cache.Get("k3").ok());
  EXPECT_TRUE(cache.Get("k4").ok());
  EXPECT_TRUE(cache.CheckInvariants().ok()) << "eviction left list/index/bytes out of sync";
}

TEST_F(HnsCacheTest, NegativeEntriesAnswerUntilTheyExpire) {
  HnsCacheOptions options;
  options.negative_ttl_seconds = 5;
  HnsCache cache(&world_, CacheMode::kDemarshalled, options);
  cache.PutNegative("missing-record");

  HnsCache::LookupResult looked = cache.Lookup("missing-record");
  EXPECT_EQ(looked.probe, HnsCache::Probe::kNegativeHit);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
  // Get() reports NotFound, not a plain miss.
  EXPECT_EQ(cache.Get("missing-record").status().code(), StatusCode::kNotFound);

  world_.clock().AdvanceMs(5'000.0 + 1.0);
  EXPECT_EQ(cache.Lookup("missing-record").probe, HnsCache::Probe::kMiss)
      << "an expired negative entry is a plain miss (re-ask upstream)";
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_TRUE(cache.CheckInvariants().ok());
}

TEST_F(HnsCacheTest, GetReportsExpiryForTtlComposition) {
  HnsCache cache(&world_, CacheMode::kDemarshalled);
  cache.Put("short", WireValue::OfUint32(1), 10);
  cache.Put("long", WireValue::OfUint32(2), 600);
  SimTime short_expires = 0;
  SimTime long_expires = 0;
  ASSERT_TRUE(cache.Get("short", &short_expires).ok());
  ASSERT_TRUE(cache.Get("long", &long_expires).ok());
  EXPECT_GT(short_expires, world_.clock().Now());
  EXPECT_LT(short_expires, long_expires)
      << "composition takes the min of the constituent expiries";
}

TEST_F(HnsCacheTest, ShardedCacheAggregatesAcrossShards) {
  HnsCacheOptions options;
  options.shards = 8;
  HnsCache cache(&world_, CacheMode::kDemarshalled, options);
  for (int i = 0; i < 64; ++i) {
    cache.Put(StrFormat("key-%02d", i), WireValue::OfUint32(static_cast<uint32_t>(i)), 60);
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(cache.Get(StrFormat("key-%02d", i)).ok());
  }
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.stats().inserts, 64u);
  EXPECT_EQ(cache.stats().hits, 64u);
  EXPECT_GT(cache.stats().bytes, 0u);
  EXPECT_TRUE(cache.CheckInvariants().ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.ApproximateBytes(), 0u);
  EXPECT_TRUE(cache.CheckInvariants().ok());
}

TEST_F(HnsCacheTest, CompositeEntriesExpire) {
  CompositeBindingCache cache(&world_);
  CompositeEntry entry;
  entry.context = "Ctx";
  entry.query_class = "QC";
  entry.nsm_name = "SomeNSM";
  entry.ns_name = "SomeNS";
  entry.expires = ClockNow(&world_) + MsToSim(10'000.0);
  cache.Put(entry, cache.generation());

  EXPECT_TRUE(cache.Get("ctx", "qc").has_value()) << "keys are case-insensitive";
  world_.clock().AdvanceMs(10'000.0 + 1.0);
  EXPECT_FALSE(cache.Get("Ctx", "QC").has_value());
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

// --- MetaStore (against the live testbed) ------------------------------------------

class MetaStoreTest : public ::testing::Test {
 protected:
  MetaStoreTest() : bed_(), client_(bed_.MakeClient(Arrangement::kAllLinked)) {}

  MetaStore& meta() { return client_.session->local_hns()->meta(); }

  Testbed bed_;
  ClientSetup client_;
};

TEST_F(MetaStoreTest, MappingsResolveRegisteredData) {
  EXPECT_EQ(meta().ContextToNameService(kContextBindBinding).value(), kNsBind);
  EXPECT_EQ(meta().ContextToNameService(kContextCh).value(), kNsCh);
  EXPECT_EQ(meta().NsmNameFor(kNsBind, kQueryClassHrpcBinding).value(), kNsmBindingBind);
  Result<NsmInfo> info = meta().NsmLocation(kNsmBindingBind);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->host, kNsmServerHost);
  EXPECT_EQ(info->query_class, kQueryClassHrpcBinding);
  Result<NameServiceInfo> ns = meta().NameService(kNsBind);
  ASSERT_TRUE(ns.ok());
  EXPECT_EQ(ns->type, "BIND");
}

TEST_F(MetaStoreTest, UnknownEntriesAreNotFound) {
  EXPECT_EQ(meta().ContextToNameService("NoSuchContext").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(meta().NsmNameFor(kNsBind, "NoSuchQueryClass").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(meta().NsmLocation("NoSuchNsm").status().code(), StatusCode::kNotFound);
}

TEST_F(MetaStoreTest, RecordNamingConvention) {
  EXPECT_EQ(MetaStore::ContextRecordName("BIND"), "ctx.bind.hns");
  EXPECT_EQ(MetaStore::NsmMapRecordName("UW-BIND", "HostAddress"),
            "map.hostaddress.uw-bind.hns");
  EXPECT_EQ(MetaStore::NsmLocationRecordName("BindingNSM-BIND"), "loc.bindingnsm-bind.hns");
  EXPECT_EQ(MetaStore::NameServiceRecordName("UW-BIND"), "ns.uw-bind.hns");
}

TEST_F(MetaStoreTest, ReadsAreCachedAndInvalidatedByWrites) {
  (void)meta().ContextToNameService(kContextBind);
  uint64_t lookups = meta().remote_lookups();
  (void)meta().ContextToNameService(kContextBind);
  EXPECT_EQ(meta().remote_lookups(), lookups) << "second read served from cache";

  // Re-registering the context invalidates the cached mapping.
  ASSERT_TRUE(meta().RegisterContext(kContextBind, kNsBind).ok());
  (void)meta().ContextToNameService(kContextBind);
  EXPECT_EQ(meta().remote_lookups(), lookups + 1);
}

TEST_F(MetaStoreTest, UnregisterNsmRemovesBothRecords) {
  ASSERT_TRUE(meta().UnregisterNsm(kNsBind, kQueryClassMailboxInfo).ok());
  EXPECT_EQ(meta().NsmNameFor(kNsBind, kQueryClassMailboxInfo).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(meta().NsmLocation(kNsmMailboxBind).status().code(), StatusCode::kNotFound);
  // Other query classes unaffected.
  EXPECT_TRUE(meta().NsmNameFor(kNsBind, kQueryClassHrpcBinding).ok());
}

TEST_F(MetaStoreTest, RegistrationValidatesInput) {
  EXPECT_EQ(meta().RegisterNameService(NameServiceInfo{}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(meta().RegisterContext("bad context", kNsBind).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(meta().RegisterNsm(NsmInfo{}).code(), StatusCode::kInvalidArgument);
}

TEST_F(MetaStoreTest, PreloadFillsCacheFromZoneTransfer) {
  client_.FlushAll();
  Result<size_t> bytes = meta().Preload();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_GT(*bytes, 1000u);
  EXPECT_LT(*bytes, 4096u) << "the meta information is small (~2KB in the paper)";

  // Every mapping now hits without remote lookups.
  uint64_t lookups = meta().remote_lookups();
  EXPECT_TRUE(meta().ContextToNameService(kContextBind).ok());
  EXPECT_TRUE(meta().NsmNameFor(kNsCh, kQueryClassHostAddress).ok());
  EXPECT_TRUE(meta().NsmLocation(kNsmHostAddrCh).ok());
  EXPECT_EQ(meta().remote_lookups(), lookups);
}

// --- Hns::FindNsm ---------------------------------------------------------------------

TEST(HnsFindNsmTest, ReturnsFullyResolvedBinding) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kRemoteNsms);
  HnsName name;
  name.context = kContextBindBinding;
  name.individual = kSunServerHost;
  Result<NsmHandle> handle =
      client.session->local_hns()->FindNsm(name, kQueryClassHrpcBinding);
  ASSERT_TRUE(handle.ok()) << handle.status();
  EXPECT_EQ(handle->nsm_name, kNsmBindingBind);
  EXPECT_EQ(handle->binding.host, kNsmServerHost);
  EXPECT_NE(handle->binding.address, 0u) << "mapping 3 resolves the NSM host's address";
  EXPECT_NE(handle->binding.port, 0);
}

TEST(HnsFindNsmTest, UnknownContextAndQueryClassFail) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Hns* hns = client.session->local_hns();
  HnsName name;
  name.context = "Hesiod";
  name.individual = "x";
  EXPECT_EQ(hns->FindNsm(name, kQueryClassHostAddress).status().code(),
            StatusCode::kNotFound);
  name.context = kContextBind;
  EXPECT_EQ(hns->FindNsm(name, "FontService").status().code(), StatusCode::kNotFound);
}

TEST(HnsFindNsmTest, LinkNsmRejectsDuplicatesAndEmptyNames) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Hns* hns = client.session->local_hns();
  std::vector<std::shared_ptr<Nsm>> extra = bed.MakeLinkedNsms(kClientHost);
  EXPECT_EQ(hns->LinkNsm(extra.front()).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(hns->HasLinkedNsm(kNsmHostAddrBind));
  EXPECT_FALSE(hns->HasLinkedNsm("NoSuchNSM"));
}

TEST(HnsFindNsmTest, ResolveHostAddressThroughEitherService) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Hns* hns = client.session->local_hns();
  Result<uint32_t> unix_addr = hns->ResolveHostAddress(kContextBind, kSunServerHost);
  ASSERT_TRUE(unix_addr.ok()) << unix_addr.status();
  Result<uint32_t> xerox_addr = hns->ResolveHostAddress(kContextCh, kXeroxServerHost);
  ASSERT_TRUE(xerox_addr.ok()) << xerox_addr.status();
  EXPECT_NE(*unix_addr, *xerox_addr);
  EXPECT_EQ(*unix_addr, bed.world().network().GetHost(kSunServerHost).value().address);
}

// --- Composite binding cache through Hns::FindNsm -------------------------------------

class CompositeFindNsmTest : public ::testing::Test {
 protected:
  CompositeFindNsmTest() {
    TestbedOptions options;
    options.hns_composite_cache = true;
    bed_ = std::make_unique<Testbed>(options);
    client_ = bed_->MakeClient(Arrangement::kAllLinked);
  }

  Hns* hns() { return client_.session->local_hns(); }

  Result<NsmHandle> Find(const char* context, const char* query_class) {
    HnsName name;
    name.context = context;
    name.individual = "whoever";
    return hns()->FindNsm(name, query_class);
  }

  std::unique_ptr<Testbed> bed_;
  ClientSetup client_;
};

TEST_F(CompositeFindNsmTest, WarmFindNsmIsExactlyOneProbe) {
  Result<NsmHandle> cold = Find(kContextBindBinding, kQueryClassHrpcBinding);
  ASSERT_TRUE(cold.ok()) << cold.status();

  hns()->cache().ResetStats();
  hns()->composite_cache().ResetStats();
  Result<NsmHandle> warm = Find(kContextBindBinding, kQueryClassHrpcBinding);
  ASSERT_TRUE(warm.ok()) << warm.status();

  EXPECT_EQ(warm->nsm_name, cold->nsm_name);
  EXPECT_EQ(warm->binding, cold->binding);
  EXPECT_EQ(warm->is_linked(), cold->is_linked());
  CacheStats composite = hns()->composite_cache().stats();
  EXPECT_EQ(composite.hits, 1u);
  EXPECT_EQ(composite.Probes(), 1u);
  EXPECT_EQ(hns()->cache().stats().Probes(), 0u)
      << "a composite hit must not touch the record cache";
}

TEST_F(CompositeFindNsmTest, RegisterNsmInvalidatesAffectedEntries) {
  ASSERT_TRUE(Find(kContextBindBinding, kQueryClassHrpcBinding).ok());
  // An unrelated pair stays cached across the registration.
  ASSERT_TRUE(Find(kContextCh, kQueryClassHostAddress).ok());

  NsmInfo moved = bed_->BindingBindInfo();
  moved.port = 999;
  ASSERT_TRUE(hns()->RegisterNsm(moved).ok());
  EXPECT_GE(hns()->composite_cache().stats().evictions, 1u);

  Result<NsmHandle> fresh = Find(kContextBindBinding, kQueryClassHrpcBinding);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->binding.port, 999) << "stale composed binding would keep the old port";

  hns()->composite_cache().ResetStats();
  ASSERT_TRUE(Find(kContextCh, kQueryClassHostAddress).ok());
  EXPECT_EQ(hns()->composite_cache().stats().hits, 1u)
      << "entries not composed from the re-registered NSM survive";
}

TEST_F(CompositeFindNsmTest, UnregisterNsmInvalidatesAffectedEntries) {
  ASSERT_TRUE(Find(kContextBindMail, kQueryClassMailboxInfo).ok());
  ASSERT_TRUE(hns()->UnregisterNsm(kNsBind, kQueryClassMailboxInfo).ok());
  // A stale composite hit would succeed here; the truth is NotFound.
  EXPECT_EQ(Find(kContextBindMail, kQueryClassMailboxInfo).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CompositeFindNsmTest, RegisterContextInvalidatesItsEntries) {
  Result<NsmHandle> before = Find(kContextBindBinding, kQueryClassHrpcBinding);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->nsm_name, kNsmBindingBind);

  // Rebind the context to the Clearinghouse name service: the cached
  // composition now designates the wrong NSM entirely.
  ASSERT_TRUE(hns()->RegisterContext(kContextBindBinding, kNsCh).ok());
  Result<NsmHandle> after = Find(kContextBindBinding, kQueryClassHrpcBinding);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->nsm_name, kNsmBindingCh);
}

TEST_F(CompositeFindNsmTest, CompositeTtlCapBoundsEntryLifetime) {
  // Meta records that live two hours, preloaded by zone transfer, under the
  // one-hour composite cap: the cap is the min, so an hour later the
  // composite entry is gone while the record cache still answers everything.
  Zone* zone = bed_->meta_bind()->FindZone(MetaStore::kMetaZoneOrigin);
  ASSERT_NE(zone, nullptr);
  std::vector<ResourceRecord> records = zone->All();
  for (ResourceRecord& rr : records) {
    rr.ttl_seconds = 7200;
  }
  ASSERT_TRUE(zone->ReplaceAll(std::move(records), zone->serial() + 1).ok());
  ASSERT_TRUE(hns()->PreloadCache().ok());

  ASSERT_TRUE(Find(kContextBindBinding, kQueryClassHrpcBinding).ok());
  bed_->world().clock().AdvanceMs(3600'000.0 + 1'000.0);
  uint64_t lookups = hns()->meta().remote_lookups();
  hns()->composite_cache().ResetStats();
  ASSERT_TRUE(Find(kContextBindBinding, kQueryClassHrpcBinding).ok());
  EXPECT_EQ(hns()->composite_cache().stats().expirations, 1u);
  EXPECT_EQ(hns()->meta().remote_lookups(), lookups)
      << "records outlive the capped composite entry, so re-composition is local";

  // And the re-composed entry serves the next call as a single probe again.
  hns()->composite_cache().ResetStats();
  ASSERT_TRUE(Find(kContextBindBinding, kQueryClassHrpcBinding).ok());
  EXPECT_EQ(hns()->composite_cache().stats().hits, 1u);
}


// --- Cache behavior under injected faults ---------------------------------------------
// The negative-entry and eviction machinery exercised while a seeded
// FaultInjector degrades the meta path, with CheckInvariants after every
// storm (the chaos-test discipline applied to the record cache).

inline constexpr uint64_t kCacheFaultSeed = 0x5eedcafe;

TEST(CacheFaultTest, NegativeEntriesServeThroughInjectedMetaOutage) {
  Testbed bed;
  FaultInjector injector(FaultConfig{kCacheFaultSeed, {}});
  bed.InstallFaultInjector(&injector);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  MetaStore& meta = client.session->local_hns()->meta();

  // Seed a negative entry while the meta path is healthy.
  EXPECT_EQ(meta.ContextToNameService("NoSuchContext").status().code(),
            StatusCode::kNotFound);
  uint64_t lookups = meta.remote_lookups();

  // Blackhole both meta servers: the cached NotFound keeps answering without
  // touching the (unreachable) network.
  injector.BlackholeEndpoint(kMetaBindHost);
  injector.BlackholeEndpoint(kMetaSecondaryHost);
  EXPECT_EQ(meta.ContextToNameService("NoSuchContext").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(meta.remote_lookups(), lookups) << "answered by the negative entry";
  EXPECT_GE(client.hns_cache->stats().negative_hits, 1u);

  // Past the negative TTL the probe must go upstream again — and now the
  // outage surfaces instead of a stale NotFound.
  bed.world().clock().AdvanceMs(
      (client.hns_cache->options().negative_ttl_seconds + 1) * 1000.0);
  EXPECT_EQ(meta.ContextToNameService("NoSuchContext").status().code(),
            StatusCode::kUnavailable);
  EXPECT_GT(injector.stats().blackholed, 0u);

  Status invariants = client.hns_cache->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

TEST(CacheFaultTest, EvictionStormUnderInjectedLossKeepsCacheConsistent) {
  TestbedOptions options;
  options.hns_cache_mode = CacheMode::kDemarshalled;
  options.hns_cache.shards = 1;
  options.hns_cache.max_bytes = 2048;  // far below the storm's working set
  Testbed bed(options);

  FaultInjector injector(FaultConfig{kCacheFaultSeed, {}});
  bed.InstallFaultInjector(&injector);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  MetaStore& meta = client.session->local_hns()->meta();

  // 20% loss on every endpoint. A registration is several meta writes and
  // restarts wholesale on any drop, so the per-try failure rate is much
  // higher than the per-message rate; the scenario retries at its own level
  // (the sim transport is single-attempt), bounded per call.
  FaultSpec lossy;
  lossy.drop = 0.2;
  injector.SetPlan(FaultPlan{"*", {FaultPhase{0, lossy}}});

  constexpr int kNsms = 40;
  constexpr int kMaxTriesPerCall = 30;
  for (int i = 0; i < kNsms; ++i) {
    NsmInfo info = bed.HostAddrBindInfo();
    info.nsm_name = "EvictNSM-" + std::to_string(i);
    info.query_class = "EvictQC-" + std::to_string(i);

    Status registered = UnavailableError("not attempted");
    for (int t = 0; t < kMaxTriesPerCall && !registered.ok(); ++t) {
      registered = meta.RegisterNsm(info);
    }
    ASSERT_TRUE(registered.ok()) << "nsm " << i << ": " << registered;

    Result<NsmInfo> read_back = UnavailableError("not attempted");
    for (int t = 0; t < kMaxTriesPerCall && !read_back.ok(); ++t) {
      read_back = meta.NsmLocation(info.nsm_name);
    }
    ASSERT_TRUE(read_back.ok()) << "nsm " << i << ": " << read_back.status();
    EXPECT_EQ(read_back->host, info.host);
  }

  CacheStats stats = client.hns_cache->stats();
  EXPECT_GT(stats.evictions, 0u) << "the byte budget never engaged";
  EXPECT_LE(client.hns_cache->ApproximateBytes(), options.hns_cache.max_bytes);
  EXPECT_GT(injector.stats().drops, 0u) << "the loss plan never fired";
  Status invariants = client.hns_cache->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

// --- Cache behaviour under skewed load --------------------------------------

// A byte-budgeted record cache under Zipf traffic: the more the popularity
// concentrates (larger s), the more of the working set fits, so the hit rate
// must rise monotonically with the skew at a fixed budget. Driven by the
// workload engine so the traffic is exactly the paper-style FindNSM mix.
TEST(CacheSkewTest, HitRateRisesMonotonicallyWithZipfSkew) {
  const std::vector<double> skews = {0.2, 0.8, 1.4};
  std::vector<double> hit_rates;
  for (double s : skews) {
    TestbedOptions bed_options;
    bed_options.hns_cache.max_bytes = 8 * 1024;  // far below the full working set
    bed_options.hns_cache.shards = 1;
    Testbed bed(bed_options);
    ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);

    WorkloadOptions options;
    options.seed = 0x5eedcafe;
    options.population = 1'500;
    options.contexts = 96;
    options.zipf_s = s;
    options.arrivals_per_second = 5'000;
    options.mean_queries_per_client = 3.0;
    options.mean_think_ms = 100;
    options.name_services = {kNsBind, kNsCh};
    WorkloadEngine engine(&bed.world(), client.session.get(),
                          client.session->local_hns(), options);
    ASSERT_TRUE(engine.Setup().ok());
    WorkloadReport report = engine.Run();
    ASSERT_EQ(report.counters.queries_failed, 0u);
    ASSERT_GT(report.record_cache.Probes(), 0u);
    hit_rates.push_back(report.record_cache.HitFraction());
  }
  for (size_t i = 1; i < hit_rates.size(); ++i) {
    EXPECT_GT(hit_rates[i], hit_rates[i - 1])
        << "hit rate fell when skew rose from s=" << skews[i - 1] << " to s="
        << skews[i];
  }
}

// A cached NotFound must never outlive a Register of the same name: the
// meta store's Commit purges the record's cache entry (negative
// entries included), so a registration becomes visible immediately instead
// of after the negative TTL.
TEST(CacheSkewTest, NegativeCacheEntryNeverOutlivesARegister) {
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Hns* hns = client.session->local_hns();
  HnsName name = HnsName::Parse("late-ctx!x").value();

  // Miss, then negative hit: the NotFound is being served from the cache.
  EXPECT_EQ(hns->FindNsm(name, kQueryClassHrpcBinding).status().code(),
            StatusCode::kNotFound);
  uint64_t negative_before = client.hns_cache->stats().negative_hits;
  EXPECT_EQ(hns->FindNsm(name, kQueryClassHrpcBinding).status().code(),
            StatusCode::kNotFound);
  EXPECT_GT(client.hns_cache->stats().negative_hits, negative_before)
      << "the second lookup was not answered by the negative cache";

  // Register the context and re-query at the same virtual instant — far
  // inside the negative TTL. The registration must win.
  ASSERT_TRUE(hns->RegisterContext("late-ctx", kNsBind).ok());
  Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
  ASSERT_TRUE(handle.ok())
      << "a stale negative entry outlived the registration: " << handle.status();
  EXPECT_EQ(handle->nsm_name, kNsmBindingBind);
}

}  // namespace
}  // namespace hcs
