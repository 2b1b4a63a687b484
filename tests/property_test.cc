// Property-based tests on the paper's invariants, as parameterized sweeps.

#include <gtest/gtest.h>

#include <set>

#include "src/common/rand.h"
#include "src/common/strings.h"
#include "src/hns/cache.h"
#include "src/hns/name.h"
#include "src/sim/cost_model.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

// --- No-conflict property (§2) ------------------------------------------------
// Because a context maps onto exactly one local name service and the
// local-name -> individual-name mapping is injective, combining previously
// separate systems can never create a conflict in the HNS name space: two
// distinct entities always have distinct HNS names.

class NoConflictTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NoConflictTest, MergingNameSpacesCannotCollide) {
  Rng rng(GetParam());

  // Two "previously separate systems" that reuse the *same* local names —
  // the worst case for a merge.
  std::vector<std::string> local_names;
  for (int i = 0; i < 200; ++i) {
    local_names.push_back(rng.Identifier(1 + rng.Uniform(10)));
  }

  std::set<std::string> hns_names;
  size_t entities = 0;
  for (const char* context : {"SystemA", "SystemB"}) {
    for (const std::string& local : local_names) {
      HnsName name;
      name.context = context;
      name.individual = local;  // identity mapping: trivially injective
      hns_names.insert(name.ToString());
      ++entities;
    }
  }
  // Duplicate local names within one system name the same entity; across
  // systems the context disambiguates, so |names| = systems x |unique local|.
  std::set<std::string> unique_local(local_names.begin(), local_names.end());
  EXPECT_EQ(hns_names.size(), 2 * unique_local.size());
  (void)entities;
}

TEST_P(NoConflictTest, NonInjectiveMappingsWouldCollide) {
  // The counterexample the paper's restriction forbids: a lossy mapping
  // (e.g. case folding of case-*sensitive* local names) breaks the
  // guarantee. This documents why the restriction is "a function producing
  // a unique result" per entity.
  Rng rng(GetParam() * 7919);
  std::set<std::string> collided;
  bool collision = false;
  for (int i = 0; i < 400; ++i) {
    std::string local = rng.Identifier(3);
    if (rng.Bernoulli(0.5)) {
      local[0] = static_cast<char>(local[0] - 'a' + 'A');
    }
    std::string lossy = AsciiToLower(local);  // NOT injective for such names
    collision |= !collided.insert("Ctx!" + lossy).second;
  }
  EXPECT_TRUE(collision);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NoConflictTest, ::testing::Values(1, 17, 23, 99));

// --- Cache TTL property ----------------------------------------------------------

class CacheTtlTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CacheTtlTest, EntryLivesExactlyUntilTtl) {
  World world;
  HnsCache cache(&world, CacheMode::kDemarshalled);
  uint32_t ttl = GetParam();
  cache.Put("k", WireValue::OfUint32(1), ttl);

  // Just before expiry (leaving room for the probe's own simulated cost):
  // hit.
  world.clock().AdvanceTo(MsToSim(static_cast<double>(ttl) * 1000.0 - 2.0));
  EXPECT_TRUE(cache.Get("k").ok()) << "ttl=" << ttl;
  // At expiry: miss.
  world.clock().AdvanceTo(MsToSim(static_cast<double>(ttl) * 1000.0) + 1);
  EXPECT_FALSE(cache.Get("k").ok()) << "ttl=" << ttl;
}

INSTANTIATE_TEST_SUITE_P(Ttls, CacheTtlTest, ::testing::Values(1, 60, 300, 3600, 86400));

// --- Equation (1) monotonicity ------------------------------------------------------
// q* = C(remote) / (C(miss) - C(hit)). The threshold must fall as misses get
// more expensive and rise as the remote call gets more expensive; the HNS
// (many remote calls saved per hit) must always need a smaller q than an NSM
// (one call saved per hit).

struct Eq1Params {
  double remote_call;
  double hit;
  double miss;
};

class Equation1Test : public ::testing::TestWithParam<Eq1Params> {};

TEST_P(Equation1Test, ThresholdBehavesMonotonically) {
  const Eq1Params& p = GetParam();
  auto q = [](double remote, double miss, double hit) { return remote / (miss - hit); };

  double base = q(p.remote_call, p.miss, p.hit);
  EXPECT_GT(base, 0.0);
  EXPECT_LT(q(p.remote_call, p.miss * 2, p.hit), base)
      << "costlier misses favour the remote cache";
  EXPECT_GT(q(p.remote_call * 2, p.miss, p.hit), base)
      << "costlier remote calls favour local linking";
  EXPECT_GT(q(p.remote_call, p.hit + (p.miss - p.hit) / 2, p.hit), base)
      << "smaller miss-hit spread raises the bar";
}

INSTANTIATE_TEST_SUITE_P(CostPoints, Equation1Test,
                         ::testing::Values(Eq1Params{33, 261, 547}, Eq1Params{33, 147, 225},
                                           Eq1Params{50, 80, 400}, Eq1Params{10, 5, 50}));

// --- Cache-mode equivalence over the full system --------------------------------------
// Whatever the cache mode, queries return identical results; only time
// differs. (Sweeps the whole testbed per mode.)

class CacheModeTest : public ::testing::TestWithParam<CacheMode> {};

TEST_P(CacheModeTest, ResultsAreModeIndependent) {
  TestbedOptions options;
  options.hns_cache_mode = GetParam();
  options.nsm_cache_mode = GetParam();
  Testbed bed(options);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);

  WireValue no_args = WireValue::OfRecord({});
  HnsName name = HnsName::Parse("BIND!fiji.cs.washington.edu").value();
  Result<WireValue> first = client.session->Query(name, kQueryClassHostAddress, no_args);
  ASSERT_TRUE(first.ok()) << first.status();
  Result<WireValue> second = client.session->Query(name, kQueryClassHostAddress, no_args);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(first->Uint32Field("address").value(),
            bed.world().network().GetHost(kSunServerHost).value().address);
}

TEST_P(CacheModeTest, WarmLatencyOrdering) {
  TestbedOptions options;
  options.hns_cache_mode = GetParam();
  options.nsm_cache_mode = GetParam();
  Testbed bed(options);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  WireValue no_args = WireValue::OfRecord({});
  HnsName name = HnsName::Parse("BIND!fiji.cs.washington.edu").value();
  (void)client.session->Query(name, kQueryClassHostAddress, no_args);  // hcs:ignore-status(warm-up and timing probes; only clock deltas are asserted)

  double t0 = bed.world().clock().NowMs();
  (void)client.session->Query(name, kQueryClassHostAddress, no_args);  // hcs:ignore-status(warm-up and timing probes; only clock deltas are asserted)
  double warm = bed.world().clock().NowMs() - t0;

  switch (GetParam()) {
    case CacheMode::kNone:
      EXPECT_GT(warm, 100.0) << "no cache: every query pays the full remote path";
      break;
    case CacheMode::kMarshalled:
      EXPECT_GT(warm, 20.0);
      EXPECT_LT(warm, 150.0);
      break;
    case CacheMode::kDemarshalled:
      EXPECT_LT(warm, 20.0) << "demarshalled cache: hits are nearly free";
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CacheModeTest,
                         ::testing::Values(CacheMode::kNone, CacheMode::kMarshalled,
                                           CacheMode::kDemarshalled),
                         [](const auto& param_info) { return CacheModeName(param_info.param); });

// --- Cost-model sanity sweeps ------------------------------------------------------------

TEST(CostModelProperty, CompositionInequalitiesHold) {
  // Stub marshalling dominates hand-coded at every record count.
  for (int records = 1; records <= 32; records *= 2) {
    EXPECT_GT(kCosts.StubDemarshalMs(records), kCosts.HandMarshalMs(records));
    EXPECT_GT(kCosts.StubMarshalMs(records), kCosts.HandMarshalMs(records));
  }
  // Same-host exchanges are cheaper at every payload size.
  for (size_t bytes = 0; bytes <= 1 << 16; bytes = bytes * 2 + 64) {
    EXPECT_LT(kCosts.NetRttMs(true, bytes, bytes), kCosts.NetRttMs(false, bytes, bytes));
  }
  // Authenticated disk-backed Clearinghouse access must dwarf a BIND lookup.
  EXPECT_GT(kCosts.ch_auth_ms + kCosts.ch_disk_ms, 10 * kCosts.bind_lookup_cpu_ms);
}

}  // namespace
}  // namespace hcs
