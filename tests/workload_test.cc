// The workload scenario suite: the million-client engine over the sim
// testbed. Every scenario is seed-replayable — the run's seed comes from
// HCS_WORKLOAD_SEED (default fixed), every random draw inside the engine is
// a pure function of (seed, actor id), and the determinism tests assert the
// whole run's counter fingerprint is byte-identical across same-seed runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "src/common/rand.h"
#include "src/hns/name.h"
#include "src/rpc/fault.h"
#include "src/rpc/server.h"
#include "src/testbed/testbed.h"
#include "src/workload/distributions.h"
#include "src/workload/driver.h"
#include "src/workload/engine.h"

namespace hcs {
namespace {

// HCS_WORKLOAD_SEED wins (how a failing scenario is replayed), else a fixed
// default so CI is deterministic.
uint64_t WorkloadSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("HCS_WORKLOAD_SEED");
    if (env != nullptr && *env != '\0') {
      return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
    }
    return static_cast<uint64_t>(0x5eedf00d);
  }();
  return seed;
}

uint64_t AnnounceSeed(const char* scenario) {
  uint64_t seed = WorkloadSeed();
  std::cout << "[workload] " << scenario << " seed=" << seed
            << " (replay with HCS_WORKLOAD_SEED=" << seed << ")" << std::endl;
  return seed;
}

// --- Distributions ---------------------------------------------------------

TEST(ZipfSamplerTest, EmpiricalFrequenciesMatchPmfByChiSquare) {
  constexpr uint32_t kRanks = 50;
  constexpr uint64_t kDraws = 200'000;
  ZipfSampler zipf(kRanks, /*s=*/1.2);
  Rng rng(AnnounceSeed("zipf-chi-square"));

  std::vector<uint64_t> observed(kRanks, 0);
  std::vector<double> expected(kRanks);
  for (uint32_t r = 0; r < kRanks; ++r) {
    expected[r] = zipf.Pmf(r);
  }
  for (uint64_t i = 0; i < kDraws; ++i) {
    uint32_t rank = zipf.Sample(rng);
    ASSERT_LT(rank, kRanks);
    ++observed[rank];
  }
  // dof = 49; the p = 0.001 critical value is ~85.4. A generator that is
  // even slightly off (wrong exponent, off-by-one rank, biased CDF walk)
  // lands orders of magnitude above this.
  double chi2 = ChiSquareStatistic(observed, expected);
  EXPECT_LT(chi2, 95.0) << "Zipf sample frequencies do not match the PMF";
  // And the PMF itself must be a proper skewed distribution.
  EXPECT_GT(zipf.Pmf(0), zipf.Pmf(kRanks - 1));
  double total = 0;
  for (uint32_t r = 0; r < kRanks; ++r) {
    total += zipf.Pmf(r);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, LargerExponentConcentratesMassAtTheHead) {
  constexpr uint32_t kRanks = 100;
  constexpr uint64_t kDraws = 50'000;
  uint64_t seed = WorkloadSeed();
  auto head_fraction = [&](double s) {
    ZipfSampler zipf(kRanks, s);
    Rng rng(seed);
    uint64_t head = 0;
    for (uint64_t i = 0; i < kDraws; ++i) {
      if (zipf.Sample(rng) == 0) {
        ++head;
      }
    }
    return static_cast<double>(head) / static_cast<double>(kDraws);
  };
  double flat = head_fraction(0.5);
  double skewed = head_fraction(1.5);
  EXPECT_GT(skewed, 2.0 * flat)
      << "s=1.5 should send far more of the traffic to rank 0 than s=0.5";
}

TEST(DistributionsTest, ExponentialInterArrivalHasTheConfiguredMean) {
  constexpr uint64_t kDraws = 100'000;
  constexpr double kRate = 1000.0;  // per second -> mean 1000 us
  Rng rng(WorkloadSeed());
  double total_us = 0;
  for (uint64_t i = 0; i < kDraws; ++i) {
    SimDuration gap = SampleInterArrival(rng, kRate);
    ASSERT_GE(gap, 1);
    total_us += static_cast<double>(gap);
  }
  double mean = total_us / static_cast<double>(kDraws);
  EXPECT_NEAR(mean, 1e6 / kRate, 0.05 * 1e6 / kRate);
}

TEST(DistributionsTest, ChiSquareStatisticSeparatesMatchFromMismatch) {
  std::vector<double> expected = {0.7, 0.2, 0.1};
  std::vector<uint64_t> matching = {7000, 2000, 1000};
  std::vector<uint64_t> mismatched = {1000, 2000, 7000};
  EXPECT_LT(ChiSquareStatistic(matching, expected), 1e-9);
  EXPECT_GT(ChiSquareStatistic(mismatched, expected), 1000.0);
}

TEST(DistributionsTest, PercentilesWalkTheCountsToTheSortedSampleIndex) {
  Rng rng(WorkloadSeed());
  for (size_t n : {size_t{1}, size_t{2}, size_t{1001}}) {
    std::vector<uint64_t> samples;
    LatencyCounts counts;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t value = rng.Uniform(40);  // few values, so many duplicates
      samples.push_back(value);
      ++counts[value];
    }
    std::sort(samples.begin(), samples.end());
    auto sorted_at = [&samples](double q) {
      return samples[static_cast<size_t>(q * static_cast<double>(samples.size() - 1))];
    };
    const Percentiles tails = ComputePercentiles(counts);
    EXPECT_EQ(tails.p50, sorted_at(0.50)) << "n=" << n;
    EXPECT_EQ(tails.p99, sorted_at(0.99)) << "n=" << n;
    EXPECT_EQ(tails.p999, sorted_at(0.999)) << "n=" << n;
  }
  const Percentiles empty = ComputePercentiles(LatencyCounts{});
  EXPECT_EQ(empty.p50, 0u);
  EXPECT_EQ(empty.p999, 0u);
}

// --- Engine scenarios ------------------------------------------------------

WorkloadOptions BaseOptions(uint64_t seed) {
  WorkloadOptions options;
  options.seed = seed;
  options.population = 2'000;
  options.contexts = 16;
  options.zipf_s = 1.0;
  options.arrivals_per_second = 5'000;
  options.mean_queries_per_client = 3.0;
  options.mean_think_ms = 100;
  options.name_services = {kNsBind, kNsCh};
  return options;
}

// One full engine run on a fresh all-linked testbed (composite cache on —
// the arrangement a production resolver would run). `extra_setup_ms` of
// virtual time pass before the engine's own set-up.
Result<WorkloadReport> RunWorkload(const WorkloadOptions& options, double extra_setup_ms = 0) {
  TestbedOptions bed_options;
  bed_options.hns_composite_cache = true;
  Testbed bed(bed_options);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  WorkloadEngine engine(&bed.world(), client.session.get(), client.session->local_hns(),
                        options);
  ChargeMs(&bed.world(), extra_setup_ms);
  HCS_RETURN_IF_ERROR(engine.Setup());
  return engine.Run();
}

TEST(WorkloadEngineTest, PopulationArrivesQueriesAndDeparts) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("population-lifecycle"));
  Result<WorkloadReport> run = RunWorkload(options);
  ASSERT_TRUE(run.ok()) << run.status();
  const WorkloadCounters& c = run->counters;
  EXPECT_EQ(c.arrivals, options.population);
  EXPECT_EQ(c.departures, options.population);
  // Every client issues at least one query and every query is accounted.
  uint64_t total = c.queries_ok + c.queries_not_found + c.queries_failed;
  EXPECT_GE(total, options.population);
  EXPECT_EQ(c.latency_samples, total);
  EXPECT_EQ(c.queries_failed, 0u) << "healthy testbed: no query may fail";
  EXPECT_EQ(c.queries_not_found, 0u) << "every synthetic context is registered";
  EXPECT_GT(run->ended_at_us, 0);
  EXPECT_GT(run->QueriesPerSimSecond(), 0.0);
  // Zipf-concentrated traffic over a composite cache: overwhelmingly warm.
  EXPECT_GT(run->composite_cache.HitFraction(), 0.9);
}

TEST(WorkloadEngineTest, SameSeedRunsAreByteIdentical) {
  WorkloadOptions plain = BaseOptions(AnnounceSeed("determinism"));
  // The second input adds storm toggles and a stampede flush mid-run.
  // Scenario times are absolute virtual times, and this input's set-up
  // ends near 0.6 s, so the flush at 1 s lands among the queries.
  WorkloadOptions shaped = plain;
  shaped.population = 800;
  shaped.contexts = 8;
  shaped.storm_toggles = 10;
  shaped.storm_rate_per_second = 50;
  shaped.storm_nsm = Testbed().BindingBindInfo();
  shaped.storm_nsm.nsm_name = "wl-storm-nsm";
  shaped.stampede_at_us = 1'000'000;
  shaped.stampede_burst = 100;
  for (const WorkloadOptions& options : {plain, shaped}) {
    SCOPED_TRACE(options.storm_toggles > 0 ? "storm and stampede" : "plain");
    Result<WorkloadReport> a = RunWorkload(options);
    Result<WorkloadReport> b = RunWorkload(options);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->counters.Fingerprint(), b->counters.Fingerprint());
    EXPECT_EQ(a->ended_at_us, b->ended_at_us);
    EXPECT_EQ(a->meta_remote_lookups, b->meta_remote_lookups);
    EXPECT_EQ(a->network_messages, b->network_messages);
  }
}

// sim_qps is the throughput of the measured window: the same workload run
// after set-ups of different virtual length reports the same queries per
// second, though it ends at a different virtual time.
TEST(WorkloadEngineTest, SimQpsExcludesSetUp) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("sim-qps-window"));
  options.population = 500;
  Result<WorkloadReport> quick = RunWorkload(options);
  Result<WorkloadReport> slow = RunWorkload(options, /*extra_setup_ms=*/2500);
  ASSERT_TRUE(quick.ok()) << quick.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  EXPECT_EQ(quick->counters.Fingerprint(), slow->counters.Fingerprint())
      << "the window's work must not depend on when it starts";
  EXPECT_NE(quick->ended_at_us, slow->ended_at_us);
  EXPECT_GT(quick->QueriesPerSimSecond(), 0.0);
  EXPECT_EQ(quick->QueriesPerSimSecond(), slow->QueriesPerSimSecond());
}

TEST(WorkloadEngineTest, DifferentSeedsDiverge) {
  WorkloadOptions options = BaseOptions(WorkloadSeed());
  WorkloadOptions other = options;
  other.seed = options.seed + 1;
  Result<WorkloadReport> a = RunWorkload(options);
  Result<WorkloadReport> b = RunWorkload(other);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NE(a->counters.Fingerprint(), b->counters.Fingerprint())
      << "seeds must actually steer the run";
}

// The tentpole scale gate: a million virtual clients at Zipf skew complete
// in bounded wall time with byte-identical counters across same-seed runs.
// HCS_WORKLOAD_POPULATION scales the population down for slow (sanitizer)
// builds; the check.sh workload leg sets it explicitly.
TEST(WorkloadEngineTest, MillionClientZipfRunIsDeterministic) {
  uint32_t population = 1'000'000;
  if (const char* env = std::getenv("HCS_WORKLOAD_POPULATION");
      env != nullptr && *env != '\0') {
    population = static_cast<uint32_t>(std::strtoul(env, nullptr, 0));
  }
  WorkloadOptions options = BaseOptions(AnnounceSeed("million-clients"));
  options.population = population;
  options.contexts = 64;
  options.zipf_s = 1.1;
  options.arrivals_per_second = 20'000;
  options.mean_queries_per_client = 2.0;
  options.mean_think_ms = 50;

  auto t0 = std::chrono::steady_clock::now();
  Result<WorkloadReport> a = RunWorkload(options);
  ASSERT_TRUE(a.ok()) << a.status();
  double first_run_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  Result<WorkloadReport> b = RunWorkload(options);
  ASSERT_TRUE(b.ok()) << b.status();

  const WorkloadCounters& c = a->counters;
  EXPECT_EQ(c.arrivals, population);
  EXPECT_EQ(c.departures, population);
  EXPECT_GE(c.latency_samples, population);
  EXPECT_EQ(c.queries_failed, 0u);
  EXPECT_EQ(a->counters.Fingerprint(), b->counters.Fingerprint())
      << "million-client runs at one seed must be byte-identical";
  EXPECT_EQ(a->ended_at_us, b->ended_at_us);
  std::cout << "[workload] million-clients population=" << population << " queries="
            << (c.queries_ok + c.queries_not_found + c.queries_failed)
            << " sim_qps=" << a->QueriesPerSimSecond()
            << " p50_ms=" << a->p50_ms << " p99_ms=" << a->p99_ms
            << " p999_ms=" << a->p999_ms << " wall_s=" << first_run_s
            << std::endl;
}

TEST(WorkloadEngineTest, ChurnStormFlapsRegistrationsUnderTraffic) {
  Testbed bed;
  WorkloadOptions options = BaseOptions(AnnounceSeed("churn-storm"));
  options.population = 1'500;
  options.contexts = 4;  // small pair space: the storm pair sees real traffic
  options.zipf_s = 0.5;
  options.mean_queries_per_client = 4.0;
  options.storm_toggles = 40;
  options.storm_rate_per_second = 100;
  options.storm_nsm = bed.BindingBindInfo();
  options.storm_nsm.nsm_name = "wl-storm-nsm";

  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  WorkloadEngine engine(&bed.world(), client.session.get(), client.session->local_hns(),
                        options);
  ASSERT_TRUE(engine.Setup().ok());
  WorkloadReport report = engine.Run();
  const WorkloadCounters& c = report.counters;
  EXPECT_EQ(c.unregisters_ok + c.registers_ok, options.storm_toggles);
  EXPECT_GT(c.unregisters_ok, 0u);
  EXPECT_GT(c.registers_ok, 0u);
  // While the storm NSM is unregistered its pair resolves NotFound; while
  // registered it resolves. Both outcomes must actually occur.
  EXPECT_GT(c.queries_not_found, 0u)
      << "no query landed in an unregistered storm window";
  EXPECT_GT(c.queries_ok, c.queries_not_found);
  EXPECT_EQ(c.queries_failed, 0u);
}

TEST(WorkloadEngineTest, FlashCrowdPromotesTheColdestPair) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("flash-crowd"));
  options.zipf_s = 1.3;
  options.flash_crowd_at_us = 400'000;
  options.flash_burst = 500;
  Result<WorkloadReport> run = RunWorkload(options);
  ASSERT_TRUE(run.ok()) << run.status();
  const WorkloadCounters& c = run->counters;
  uint64_t total = c.queries_ok + c.queries_not_found + c.queries_failed;
  // The burst queries ride on top of the population's own.
  EXPECT_GE(total, options.population + options.flash_burst);
  EXPECT_EQ(c.queries_failed, 0u);
  // The burst hammers one (context, class) pair: after its first miss the
  // composite cache absorbs the crowd.
  EXPECT_GT(run->composite_cache.HitFraction(), 0.9);
}

TEST(WorkloadEngineTest, CacheStampedeFlushesAndRecovers) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("stampede"));
  options.stampede_at_us = 400'000;
  options.stampede_burst = 300;
  Result<WorkloadReport> run = RunWorkload(options);
  ASSERT_TRUE(run.ok()) << run.status();
  const WorkloadCounters& c = run->counters;
  EXPECT_EQ(c.cache_flushes, 1u);
  EXPECT_EQ(c.queries_failed, 0u);
  // The flush forces re-resolution: the meta store sees load again and the
  // record cache records fresh misses, yet every query still succeeds.
  EXPECT_GT(run->meta_remote_lookups, 0u);
  EXPECT_GT(run->record_cache.misses, 0u);
}

// Chaos composition: the engine's scenarios run unchanged under a PR 5
// FaultPlan — query failures show up in the counters, and the composed run
// stays deterministic because fault decisions are keyed by (seed, endpoint,
// sequence) just like the engine's own draws.
TEST(WorkloadEngineTest, ComposesWithFaultPlansDeterministically) {
  uint64_t seed = AnnounceSeed("fault-composition");
  auto run_once = [&]() -> Result<WorkloadReport> {
    Testbed bed;
    // The admin client is built before the injector: registrations use the
    // raw transport (faults must not corrupt the fixture).
    ClientSetup admin = bed.MakeClient(Arrangement::kAllLinked);

    FaultConfig config;
    config.seed = seed;
    FaultPlan plan;
    plan.endpoint = kHnsServerHost;
    FaultPhase phase;
    phase.spec.drop = 0.4;
    plan.phases.push_back(phase);
    config.plans.push_back(plan);
    auto injector = std::make_unique<FaultInjector>(config);
    bed.InstallFaultInjector(injector.get());

    ClientSetup faulted = bed.MakeClient(Arrangement::kRemoteHns);
    WorkloadOptions options = BaseOptions(seed);
    options.population = 300;
    options.mean_queries_per_client = 2.0;
    WorkloadEngine engine(&bed.world(), faulted.session.get(),
                          admin.session->local_hns(), options);
    HCS_RETURN_IF_ERROR(engine.Setup());
    WorkloadReport report = engine.Run();
    bed.InstallFaultInjector(nullptr);
    return report;
  };

  Result<WorkloadReport> a = run_once();
  Result<WorkloadReport> b = run_once();
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_GT(a->counters.queries_failed, 0u)
      << "a 40% drop plan on the HNS server must fail some queries";
  EXPECT_GT(a->counters.queries_ok, 0u) << "retries must still land some queries";
  EXPECT_EQ(a->counters.Fingerprint(), b->counters.Fingerprint())
      << "chaos-composed workload must replay byte-identically";
}

// --- The real-socket driver ---------------------------------------------------

TEST(WorkloadDriverTest, AsyncWindowDriverMatchesThreadPerCallSemantics) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "runtime-sweep");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  if (!port.ok()) {
    GTEST_SKIP() << "cannot bind a UDP port: " << port.status();
  }

  SweepPoint blocking =
      DriveClients(*port, /*threads=*/4, /*window=*/1, /*calls_per_thread=*/16);
  EXPECT_EQ(blocking.clients, 4);
  EXPECT_GT(blocking.throughput_qps, 0.0);
  EXPECT_GE(blocking.attempts, 64u);
  EXPECT_EQ(blocking.failed, 0u);

  SweepPoint batched =
      DriveClients(*port, /*threads=*/1, /*window=*/4, /*calls_per_thread=*/64);
  EXPECT_EQ(batched.clients, 4);
  EXPECT_GT(batched.throughput_qps, 0.0);
  EXPECT_GE(batched.attempts, 64u);
  EXPECT_EQ(batched.failed, 0u);
  host.StopAll();
}

TEST(WorkloadDriverTest, ApplicationErrorsCountAsFailedCalls) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "runtime-sweep");
  server.RegisterProcedure(7, 1, [](BytesView) -> Result<Bytes> {
    return NotFoundError("no echo here");
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  if (!port.ok()) {
    GTEST_SKIP() << "cannot bind a UDP port: " << port.status();
  }

  // An application error is an answer, never retried, so every call fails
  // on its first attempt without waiting out a timeout, in both shapes.
  for (const auto& [threads, window] : {std::pair{4, 1}, std::pair{1, 4}}) {
    SweepPoint point = DriveClients(*port, threads, window, /*calls_per_thread=*/16);
    EXPECT_EQ(point.failed, static_cast<uint64_t>(threads * 16)) << "window " << window;
    EXPECT_EQ(point.retries, 0u) << "window " << window;
    EXPECT_EQ(point.throughput_qps, 0.0) << "window " << window;
    EXPECT_EQ(point.latency_us.p50, 0u) << "window " << window;
  }
  host.StopAll();
}

}  // namespace
}  // namespace hcs
