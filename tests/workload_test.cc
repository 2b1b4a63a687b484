// The workload scenario suite: the million-client engine over the sim
// testbed. Every scenario is seed-replayable — the run's seed comes from
// HCS_WORKLOAD_SEED (default fixed), every random draw inside the engine is
// a pure function of (seed, actor id), and the determinism tests assert the
// whole run's counter fingerprint is byte-identical across same-seed runs
// and across trace record/replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
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
#include "src/workload/trace.h"

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

// --- Trace codec -----------------------------------------------------------

TEST(WorkloadTraceTest, RoundTripsHeaderAndEvents) {
  WorkloadTrace trace;
  trace.header.seed = 0xabcdef;
  trace.header.population = 12;
  trace.header.contexts = 3;
  trace.header.zipf_s_micros = 1'250'000;
  for (uint32_t k = 0; k <= static_cast<uint32_t>(TraceEventKind::kCacheFlush); ++k) {
    TraceEvent event;
    event.at_us = 1000 + k;
    event.client = k;
    event.kind = static_cast<TraceEventKind>(k);
    event.pair = 2 * k;
    event.count = k == static_cast<uint32_t>(TraceEventKind::kResolveMany) ? 4 : 0;
    trace.events.push_back(event);
  }

  Result<WorkloadTrace> decoded = WorkloadTrace::Decode(trace.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->header.seed, trace.header.seed);
  EXPECT_EQ(decoded->header.population, trace.header.population);
  EXPECT_EQ(decoded->header.contexts, trace.header.contexts);
  EXPECT_EQ(decoded->header.zipf_s_micros, trace.header.zipf_s_micros);
  EXPECT_EQ(decoded->header.event_count, trace.events.size());
  ASSERT_EQ(decoded->events.size(), trace.events.size());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(decoded->events[i].at_us, trace.events[i].at_us);
    EXPECT_EQ(decoded->events[i].client, trace.events[i].client);
    EXPECT_EQ(decoded->events[i].kind, trace.events[i].kind);
    EXPECT_EQ(decoded->events[i].pair, trace.events[i].pair);
    EXPECT_EQ(decoded->events[i].count, trace.events[i].count);
  }
}

TEST(WorkloadTraceTest, CorruptEventCountFailsCleanlyBeforeAllocating) {
  WorkloadTrace trace;
  TraceEvent event;
  event.at_us = 1;
  event.kind = TraceEventKind::kFindNsm;
  trace.events.push_back(event);
  Bytes wire = trace.Encode();
  // event_count is the u64 at bytes 28..36 of the header
  // (magic,version,population,contexts,zipf = 5 u32s + the u64 seed).
  ASSERT_GE(wire.size(), 36u);
  for (int i = 0; i < 8; ++i) {
    wire[28 + i] = 0xff;
  }
  Result<WorkloadTrace> decoded = WorkloadTrace::Decode(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
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

struct RunOutput {
  WorkloadReport report;
  WorkloadTrace trace;
};

// One full engine run on a fresh all-linked testbed (composite cache on —
// the arrangement a production resolver would run).
Result<RunOutput> RunWorkload(const WorkloadOptions& options) {
  TestbedOptions bed_options;
  bed_options.hns_composite_cache = true;
  Testbed bed(bed_options);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  WorkloadEngine engine(&bed.world(), client.session.get(), client.session->local_hns(),
                        options);
  HCS_RETURN_IF_ERROR(engine.Setup());
  RunOutput out;
  out.report = engine.Run();
  out.trace = engine.trace();
  return out;
}

TEST(WorkloadEngineTest, PopulationArrivesQueriesAndDeparts) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("population-lifecycle"));
  Result<RunOutput> run = RunWorkload(options);
  ASSERT_TRUE(run.ok()) << run.status();
  const WorkloadCounters& c = run->report.counters;
  EXPECT_EQ(c.arrivals, options.population);
  EXPECT_EQ(c.departures, options.population);
  // Every client issues at least one query and every query is accounted.
  uint64_t total = c.queries_ok + c.queries_not_found + c.queries_failed;
  EXPECT_GE(total, options.population);
  EXPECT_EQ(c.latency_samples, total);
  EXPECT_EQ(c.queries_failed, 0u) << "healthy testbed: no query may fail";
  EXPECT_EQ(c.queries_not_found, 0u) << "every synthetic context is registered";
  EXPECT_GT(run->report.ended_at_us, 0);
  EXPECT_GT(run->report.QueriesPerSimSecond(), 0.0);
  // Zipf-concentrated traffic over a composite cache: overwhelmingly warm.
  EXPECT_GT(run->report.composite_cache.HitFraction(), 0.9);
}

TEST(WorkloadEngineTest, SameSeedRunsAreByteIdentical) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("determinism"));
  Result<RunOutput> a = RunWorkload(options);
  Result<RunOutput> b = RunWorkload(options);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->report.counters.Fingerprint(), b->report.counters.Fingerprint());
  EXPECT_EQ(a->report.ended_at_us, b->report.ended_at_us);
  EXPECT_EQ(a->report.meta_remote_lookups, b->report.meta_remote_lookups);
  EXPECT_EQ(a->report.network_messages, b->report.network_messages);
}

TEST(WorkloadEngineTest, DifferentSeedsDiverge) {
  WorkloadOptions options = BaseOptions(WorkloadSeed());
  WorkloadOptions other = options;
  other.seed = options.seed + 1;
  Result<RunOutput> a = RunWorkload(options);
  Result<RunOutput> b = RunWorkload(other);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NE(a->report.counters.Fingerprint(), b->report.counters.Fingerprint())
      << "seeds must actually steer the run";
}

TEST(WorkloadEngineTest, ResolveManyBatchesAreCountedAndConcurrent) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("resolve-many"));
  options.population = 500;
  options.resolve_batch = 4;
  Result<RunOutput> run = RunWorkload(options);
  ASSERT_TRUE(run.ok()) << run.status();
  const WorkloadCounters& c = run->report.counters;
  EXPECT_GT(c.batches, 0u);
  // Each batch contributes `resolve_batch` per-name outcomes.
  uint64_t total = c.queries_ok + c.queries_not_found + c.queries_failed;
  EXPECT_EQ(total, c.batches * options.resolve_batch);
  EXPECT_EQ(c.queries_failed, 0u);
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
  Result<RunOutput> a = RunWorkload(options);
  ASSERT_TRUE(a.ok()) << a.status();
  double first_run_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  Result<RunOutput> b = RunWorkload(options);
  ASSERT_TRUE(b.ok()) << b.status();

  const WorkloadCounters& c = a->report.counters;
  EXPECT_EQ(c.arrivals, population);
  EXPECT_EQ(c.departures, population);
  EXPECT_GE(c.latency_samples, population);
  EXPECT_EQ(c.queries_failed, 0u);
  EXPECT_EQ(a->report.counters.Fingerprint(), b->report.counters.Fingerprint())
      << "million-client runs at one seed must be byte-identical";
  EXPECT_EQ(a->report.ended_at_us, b->report.ended_at_us);
  std::cout << "[workload] million-clients population=" << population << " queries="
            << (c.queries_ok + c.queries_not_found + c.queries_failed)
            << " sim_qps=" << a->report.QueriesPerSimSecond()
            << " p50_ms=" << a->report.p50_ms << " p99_ms=" << a->report.p99_ms
            << " p999_ms=" << a->report.p999_ms << " wall_s=" << first_run_s
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
  Result<RunOutput> run = RunWorkload(options);
  ASSERT_TRUE(run.ok()) << run.status();
  const WorkloadCounters& c = run->report.counters;
  uint64_t total = c.queries_ok + c.queries_not_found + c.queries_failed;
  // The burst queries ride on top of the population's own.
  EXPECT_GE(total, options.population + options.flash_burst);
  EXPECT_EQ(c.queries_failed, 0u);
  // The burst hammers one (context, class) pair: after its first miss the
  // composite cache absorbs the crowd.
  EXPECT_GT(run->report.composite_cache.HitFraction(), 0.9);
}

TEST(WorkloadEngineTest, CacheStampedeFlushesAndRecovers) {
  WorkloadOptions options = BaseOptions(AnnounceSeed("stampede"));
  options.stampede_at_us = 400'000;
  options.stampede_burst = 300;
  Result<RunOutput> run = RunWorkload(options);
  ASSERT_TRUE(run.ok()) << run.status();
  const WorkloadCounters& c = run->report.counters;
  EXPECT_EQ(c.cache_flushes, 1u);
  EXPECT_EQ(c.queries_failed, 0u);
  // The flush forces re-resolution: the meta store sees load again and the
  // record cache records fresh misses, yet every query still succeeds.
  EXPECT_GT(run->report.meta_remote_lookups, 0u);
  EXPECT_GT(run->report.record_cache.misses, 0u);
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

TEST(WorkloadEngineTest, TraceReplayReproducesTheRecordedRun) {
  Testbed record_bed;
  WorkloadOptions options = BaseOptions(AnnounceSeed("trace-replay"));
  options.population = 800;
  options.contexts = 8;
  options.record_trace = true;
  options.storm_toggles = 10;
  options.storm_rate_per_second = 50;
  options.storm_nsm = record_bed.BindingBindInfo();
  options.storm_nsm.nsm_name = "wl-storm-nsm";
  options.stampede_at_us = 400'000;
  options.stampede_burst = 100;

  TestbedOptions bed_options;
  bed_options.hns_composite_cache = true;

  WorkloadReport recorded;
  WorkloadTrace trace;
  {
    Testbed bed(bed_options);
    ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
    WorkloadEngine engine(&bed.world(), client.session.get(),
                          client.session->local_hns(), options);
    ASSERT_TRUE(engine.Setup().ok());
    recorded = engine.Run();
    trace = engine.trace();
  }
  ASSERT_FALSE(trace.events.empty());

  // The trace survives its wire format...
  Result<WorkloadTrace> decoded = WorkloadTrace::Decode(trace.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  // ...and replaying it against an identically-built fresh testbed
  // reproduces the recorded counters exactly — including latencies, since
  // the replay drives the same cache evolution on the same virtual clock.
  {
    Testbed bed(bed_options);
    ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
    WorkloadOptions replay_options = options;
    replay_options.record_trace = false;
    WorkloadEngine engine(&bed.world(), client.session.get(),
                          client.session->local_hns(), replay_options);
    ASSERT_TRUE(engine.Setup().ok());
    Result<WorkloadReport> replayed = engine.Replay(*decoded);
    ASSERT_TRUE(replayed.ok()) << replayed.status();
    EXPECT_EQ(replayed->counters.Fingerprint(), recorded.counters.Fingerprint())
        << "replayed counters diverged from the recorded run";
    EXPECT_EQ(replayed->ended_at_us, recorded.ended_at_us);
  }
}

// --- The real-socket driver ---------------------------------------------------

TEST(WorkloadDriverTest, AsyncWindowDriverMatchesThreadPerCallSemantics) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "runtime-sweep");
  server.RegisterProcedure(7, 1, [](const Bytes& args) -> Result<Bytes> { return args; });
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
  server.RegisterProcedure(7, 1, [](const Bytes&) -> Result<Bytes> {
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
