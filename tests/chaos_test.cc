// Seeded chaos scenarios over the real transport stack. Every probabilistic
// decision comes from a FaultInjector keyed by (seed, endpoint, sequence),
// so each scenario prints its seed and a failing run replays byte-identically
// with HCS_CHAOS_SEED=<seed>. Scenarios assert liveness (calls complete with
// clean Statuses, never hangs or crashes) plus the cross-cutting invariants:
// retries never exceed the transport budget (RetryPolicy::MaxAttempts),
// replies match their requests (trace ids), no composite binding is served
// past its min-constituent TTL, and cache structures stay internally
// consistent (CheckInvariants) after every fault schedule.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/bindns/server.h"
#include "src/common/strings.h"
#include "src/bindns/record.h"
#include "src/hns/cache.h"
#include "src/hns/hns.h"
#include "src/hns/meta_store.h"
#include "src/hns/name.h"
#include "src/rpc/async_client.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/testbed/testbed.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

// The run's seed: HCS_CHAOS_SEED wins (how a failing run is replayed),
// else a fixed default so CI is deterministic.
uint64_t ChaosSeed() {
  static const uint64_t seed = [] {
    const char* env = std::getenv("HCS_CHAOS_SEED");
    if (env != nullptr && *env != '\0') {
      return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
    }
    return static_cast<uint64_t>(0x5eedc0de);
  }();
  return seed;
}

uint64_t AnnounceSeed(const char* scenario) {
  uint64_t seed = ChaosSeed();
  std::cout << "[chaos] " << scenario << " seed=" << seed
            << " (replay with HCS_CHAOS_SEED=" << seed << ")" << std::endl;
  return seed;
}

// One line per scenario with the counters EXPERIMENTS.md tabulates.
void ReportStats(const char* scenario, const FaultStats& stats, int retries = -1,
                 int shed = -1) {
  std::cout << "[chaos] " << scenario << " stats: decisions=" << stats.decisions
            << " drops=" << stats.drops << " dups=" << stats.duplicates
            << " reorders=" << stats.reorders << " corruptions=" << stats.corruptions
            << " delays=" << stats.delays << " blackholed=" << stats.blackholed
            << " server_drops=" << stats.server_drops;
  if (retries >= 0) {
    std::cout << " retries=" << retries;
  }
  if (shed >= 0) {
    std::cout << " shed=" << shed;
  }
  std::cout << std::endl;
}

// Installs the process-global injector for the scenario's lifetime; the
// serving runtimes consult it for inbound traffic.
class ScopedGlobalInjector {
 public:
  explicit ScopedGlobalInjector(FaultInjector* injector) {
    InstallGlobalFaultInjector(injector);
  }
  ~ScopedGlobalInjector() { InstallGlobalFaultInjector(nullptr); }
};

HrpcBinding UdpBinding(uint16_t port, uint32_t program, ControlKind control) {
  HrpcBinding b;
  b.service_name = "chaos-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = TransportKind::kUdp;
  return b;
}

FaultPlan OnePhasePlan(std::string endpoint, FaultSpec spec) {
  FaultPlan plan;
  plan.endpoint = std::move(endpoint);
  plan.phases.push_back(FaultPhase{0, spec});
  return plan;
}

HnsName SunName() {
  return HnsName::Parse(std::string(kContextBindBinding) + "!" + kSunServerHost).value();
}

// --- Injector mechanics ----------------------------------------------------

TEST(ChaosTest, CorruptFrameIsDeterministicAndBounded) {
  uint64_t seed = AnnounceSeed("CorruptFrameIsDeterministicAndBounded");
  Bytes original(64, 0xa5);
  Bytes a = original;
  Bytes b = original;
  FaultInjector::CorruptFrame(&a, seed);
  FaultInjector::CorruptFrame(&b, seed);
  EXPECT_EQ(a, b) << "the same salt must corrupt the same frame the same way";
  EXPECT_NE(a, original);
  // 1..3 bit flips: count differing bits.
  int flipped = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    uint8_t diff = a[i] ^ original[i];
    for (int bit = 0; bit < 8; ++bit) {
      flipped += (diff >> bit) & 1;
    }
  }
  EXPECT_GE(flipped, 1);
  EXPECT_LE(flipped, 3);

  Bytes empty;
  FaultInjector::CorruptFrame(&empty, seed);
  EXPECT_TRUE(empty.empty());
}

TEST(ChaosTest, SameSeedReplaysSameDecisionSequence) {
  uint64_t seed = AnnounceSeed("SameSeedReplaysSameDecisionSequence");
  FaultConfig config;
  config.seed = seed;
  config.plans.push_back(OnePhasePlan("*", [] {
    FaultSpec spec;
    spec.drop = 0.4;
    spec.duplicate = 0.2;
    spec.delay = 0.3;
    spec.corrupt = 0.1;
    return spec;
  }()));

  constexpr int kEndpoints = 4;
  constexpr int kDraws = 200;
  auto fingerprint = [](const FaultDecision& d) {
    return StrFormat("%llu:%d%d%d%d:%lld", static_cast<unsigned long long>(d.sequence),
                     d.drop ? 1 : 0, d.duplicate ? 1 : 0, d.reorder ? 1 : 0, d.corrupt ? 1 : 0,
                     static_cast<long long>(d.delay_ms));
  };

  // Injector A: four threads hammer distinct endpoints concurrently.
  FaultInjector a(config);
  std::vector<std::vector<std::string>> concurrent(kEndpoints);
  {
    std::vector<std::thread> threads;
    for (int e = 0; e < kEndpoints; ++e) {
      threads.emplace_back([&, e] {
        std::string host = "ep" + std::to_string(e);
        for (int i = 0; i < kDraws; ++i) {
          concurrent[e].push_back(fingerprint(a.Decide(host, 1000)));
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }

  // Injector B: the same draws, single-threaded and interleaved differently.
  FaultInjector b(config);
  std::vector<std::vector<std::string>> sequential(kEndpoints);
  for (int i = 0; i < kDraws; ++i) {
    for (int e = kEndpoints - 1; e >= 0; --e) {
      sequential[e].push_back(fingerprint(b.Decide("ep" + std::to_string(e), 1000)));
    }
  }

  for (int e = 0; e < kEndpoints; ++e) {
    EXPECT_EQ(concurrent[e], sequential[e])
        << "endpoint ep" << e << ": per-endpoint decision stream must not depend on "
        << "thread interleaving";
  }

  // And the trace form: two identically-driven injectors emit equal traces.
  FaultInjector c(config);
  FaultInjector d(config);
  c.set_trace_enabled(true);
  d.set_trace_enabled(true);
  for (int i = 0; i < 50; ++i) {
    (void)c.Decide("replay-host", 711);  // hcs:ignore-status(draw consumed for trace comparison only)
    (void)d.Decide("replay-host", 711);  // hcs:ignore-status(draw consumed for trace comparison only)
  }
  EXPECT_EQ(c.TakeTrace(), d.TakeTrace());
}

TEST(ChaosTest, PhasedPlanFollowsItsScheduleOnTheInjectedClock) {
  uint64_t seed = AnnounceSeed("PhasedPlanFollowsItsScheduleOnTheInjectedClock");
  FaultInjector injector(FaultConfig{seed, {}});
  int64_t now_ms = 0;
  injector.SetTimeFn([&now_ms] { return now_ms; });

  FaultPlan plan;
  plan.endpoint = "svc-host";
  plan.phases.push_back(FaultPhase{500, FaultSpec{}});  // healthy half a second
  FaultSpec cut;
  cut.blackhole = true;
  plan.phases.push_back(FaultPhase{1000, cut});  // partitioned one second
  plan.phases.push_back(FaultPhase{0, FaultSpec{}});  // healed forever
  injector.SetPlan(plan);

  for (int64_t t : {int64_t{0}, int64_t{100}, int64_t{499}}) {
    now_ms = t;
    EXPECT_FALSE(injector.Decide("svc-host", 80).blackhole) << "t=" << t;
  }
  for (int64_t t : {int64_t{500}, int64_t{900}, int64_t{1499}}) {
    now_ms = t;
    EXPECT_TRUE(injector.Decide("svc-host", 80).blackhole) << "t=" << t;
  }
  for (int64_t t : {int64_t{1500}, int64_t{5000}, int64_t{1000000}}) {
    now_ms = t;
    EXPECT_FALSE(injector.Decide("svc-host", 80).blackhole)
        << "t=" << t << ": the terminal phase holds forever";
  }

  // Unmatched endpoints are untouched; exact endpoint plans beat host plans.
  EXPECT_TRUE(injector.Decide("other-host", 80).pass());
  FaultSpec drop_all;
  drop_all.drop = 1.0;
  injector.SetPlan(OnePhasePlan("svc-host:99", drop_all));
  now_ms = 2000;  // host plan says healed; the exact plan must win
  EXPECT_TRUE(injector.Decide("svc-host", 99).drop);
}

TEST(ChaosTest, FilterInboundAppliesDecisionsAndCountsDrops) {
  uint64_t seed = AnnounceSeed("FilterInboundAppliesDecisionsAndCountsDrops");
  Bytes message{1, 2, 3, 4};
  ASSERT_TRUE(FilterInboundFrame(nullptr, 80, message.data(), message.size()).ok())
      << "null injector is a no-op";
  EXPECT_EQ(message, (Bytes{1, 2, 3, 4}));

  FaultSpec drop_all;
  drop_all.drop = 1.0;
  FaultInjector dropper(FaultConfig{seed, {OnePhasePlan("local", drop_all)}});
  Status dropped = FilterInboundFrame(&dropper, 9999, message.data(), message.size());
  EXPECT_EQ(dropped.code(), StatusCode::kTimeout);
  EXPECT_EQ(dropper.stats().server_drops, 1u);

  FaultSpec hole;
  hole.blackhole = true;
  FaultInjector blackholer(FaultConfig{seed, {OnePhasePlan("local", hole)}});
  EXPECT_EQ(FilterInboundFrame(&blackholer, 9999, message.data(), message.size()).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(blackholer.stats().blackholed, 1u);

  FaultSpec garble;
  garble.corrupt = 1.0;
  FaultInjector corrupter(FaultConfig{seed, {OnePhasePlan("local", garble)}});
  Bytes corrupted = message;
  ASSERT_TRUE(FilterInboundFrame(&corrupter, 9999, corrupted.data(), corrupted.size()).ok())
      << "corrupted messages are still delivered";
  EXPECT_NE(corrupted, message);
  EXPECT_EQ(corrupter.stats().corruptions, 1u);
}

// --- Client-path chaos on every engine channel -----------------------------
//
// FaultInjectingTransport over a real transport hands its injector to the
// UDP client core, which draws one decision per attempt as it starts. So
// these scenarios run on both ways production issues UDP calls: sync calls
// one at a time, and CallMany batches, both on their caller.

enum class EngineChannel { kSyncUdp, kCallMany };
constexpr EngineChannel kEngineChannels[] = {EngineChannel::kSyncUdp, EngineChannel::kCallMany};

std::string ChannelName(EngineChannel channel) {
  return channel == EngineChannel::kSyncUdp ? "sync-udp" : "call-many";
}

// A dropped attempt waits out its timer, so the lossy scenarios cap every
// attempt at kLossyAttemptMs (UdpTransport's timeout): a 4 s budget then
// holds about a dozen attempts, where the default cap (attempts doubling to
// 1.6 s) holds six, and six drops in a row at 30% loss happen to about one
// call in 1,400.
constexpr int kLossyAttemptMs = 200;

HrpcBinding ChannelBinding(uint16_t port) { return UdpBinding(port, 7, ControlKind::kRaw); }

struct CallOutcome {
  Result<Bytes> reply = UnavailableError("not called");
  RpcCallInfo info;
};

// Makes `count` calls of procedure 1 over `channel`; call i carries
// `payload(i)` under `context()`. Sync UDP calls run one at a time on this
// thread. CallMany puts every call in one batch, unless `one_at_a_time`
// makes each call a batch of one.
std::vector<CallOutcome> RunCalls(EngineChannel channel, RpcClient& client,
                                  const HrpcBinding& binding, int count,
                                  const std::function<Bytes(int)>& payload,
                                  const std::function<RequestContext()>& context,
                                  bool one_at_a_time = false) {
  std::vector<CallOutcome> out(static_cast<size_t>(count));
  std::vector<RpcClient::Request> batch;
  for (int i = 0; i < count; ++i) {
    if (channel == EngineChannel::kSyncUdp) {
      out[i].reply = client.Call(binding, 1, payload(i), context(), &out[i].info);
      continue;
    }
    batch.push_back(RpcClient::Request{binding, 1, payload(i), context()});
    if (one_at_a_time || i + 1 == count) {
      std::vector<RpcCallInfo> infos;
      std::vector<Result<Bytes>> replies = client.CallMany(batch, &infos);
      const size_t first = static_cast<size_t>(i + 1) - batch.size();
      for (size_t k = 0; k < batch.size(); ++k) {
        out[first + k].reply = std::move(replies[k]);
        out[first + k].info = infos[k];
      }
      batch.clear();
    }
  }
  return out;
}

// Reads whatever is still queued on this thread's client socket with one
// unfaulted call to a fresh echo endpoint, counted into `engine`. A
// caller-run path counts a straggling reply only when its thread next
// receives, so a scenario calls this before asserting udp_unmatched exactly.
void DrainStragglers(AsyncClientEngine* engine) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "chaos-drain");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();
  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  client.set_async_engine(engine);
  Result<Bytes> reply = client.Call(ChannelBinding(*port), 1, Bytes{0xd7});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, Bytes{0xd7});
  host.StopAll();
}

// Polls `done` every millisecond until it holds or `limit_ms` passes; the
// caller asserts on the state itself.
void WaitUntil(const std::function<bool()>& done, int64_t limit_ms = 2000) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(limit_ms);
  while (!done() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ChaosTest, EchoSurvivesThirtyPercentLoss) {
  uint64_t seed = AnnounceSeed("EchoSurvivesThirtyPercentLoss");
  for (EngineChannel channel : kEngineChannels) {
    SCOPED_TRACE(ChannelName(channel));
    UdpServerHost host;
    RpcServer server(ControlKind::kRaw, "chaos-echo");
    server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
    Result<uint16_t> port = host.Serve(&server, 0);
    ASSERT_TRUE(port.ok()) << port.status();

    FaultSpec lossy;
    lossy.drop = 0.3;
    FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", lossy)}});
    UdpTransport real(kLossyAttemptMs);
    FaultInjectingTransport faulty(&real, &injector);
    RpcClient client(/*world=*/nullptr, "localclient", &faulty);
    AsyncClientEngine engine;
    client.set_async_engine(&engine);

    constexpr int kCalls = 25;
    constexpr int64_t kBudgetMs = 4000;
    std::vector<CallOutcome> outcomes = RunCalls(
        channel, client, ChannelBinding(*port), kCalls,
        [](int i) { return Bytes{static_cast<uint8_t>(i), 0x5a}; },
        [] { return RequestContext::WithTimeout(kBudgetMs); });
    uint64_t total_attempts = 0;
    int total_retries = 0;
    for (int i = 0; i < kCalls; ++i) {
      const CallOutcome& outcome = outcomes[i];
      ASSERT_TRUE(outcome.reply.ok()) << "call " << i << ": " << outcome.reply.status();
      EXPECT_EQ(*outcome.reply, (Bytes{static_cast<uint8_t>(i), 0x5a})) << "call " << i;
      // Invariant: the retry loop never exceeds what the budget admits.
      EXPECT_LE(outcome.info.attempts, RetryPolicy::MaxAttempts(kBudgetMs)) << "call " << i;
      EXPECT_EQ(outcome.info.retries + 1, outcome.info.attempts) << "call " << i;
      total_attempts += outcome.info.attempts;
      total_retries += static_cast<int>(outcome.info.retries);
    }

    FaultStats stats = injector.stats();
    ReportStats(("EchoSurvivesThirtyPercentLoss/" + ChannelName(channel)).c_str(), stats,
                total_retries, /*shed=*/0);
    EXPECT_EQ(engine.stats().calls, static_cast<uint64_t>(kCalls)) << "the calls ran on the engine";
    EXPECT_EQ(stats.decisions, total_attempts) << "one decision per attempt";
    EXPECT_GT(stats.drops, 0u) << "a 30% plan that never dropped is not running";
    host.StopAll();
  }
  UdpClientSocket::ForThisThread().Close();
}

TEST(ChaosTest, DuplicateStormDeliversEveryReplyToItsCall) {
  uint64_t seed = AnnounceSeed("DuplicateStormDeliversEveryReplyToItsCall");
  for (EngineChannel channel : kEngineChannels) {
    SCOPED_TRACE(ChannelName(channel));
    UdpServerHost host;
    std::atomic<int> handled{0};
    RpcServer server(ControlKind::kRaw, "chaos-dup");
    server.RegisterProcedure(7, 1, [&handled](BytesView args) -> Result<Bytes> {
      ++handled;
      return args.ToBytes();
    });
    Result<uint16_t> port = host.Serve(&server, 0);
    ASSERT_TRUE(port.ok()) << port.status();

    FaultSpec dupy;
    dupy.duplicate = 0.6;
    FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", dupy)}});
    UdpTransport real;
    FaultInjectingTransport faulty(&real, &injector);
    RpcClient client(/*world=*/nullptr, "localclient", &faulty);
    AsyncClientEngine engine;
    client.set_async_engine(&engine);

    constexpr int kCalls = 40;
    std::vector<CallOutcome> outcomes = RunCalls(
        channel, client, ChannelBinding(*port), kCalls,
        [](int i) { return Bytes{static_cast<uint8_t>(i)}; }, [] { return RequestContext{}; });
    for (int i = 0; i < kCalls; ++i) {
      ASSERT_TRUE(outcomes[i].reply.ok()) << "call " << i << ": " << outcomes[i].reply.status();
      EXPECT_EQ(*outcomes[i].reply, Bytes{static_cast<uint8_t>(i)})
          << "call " << i << ": a duplicate's reply leaked into this call";
      EXPECT_EQ(outcomes[i].info.attempts, 1u) << "no deadline: the seed's single attempt";
    }

    FaultStats stats = injector.stats();
    ReportStats(("DuplicateStormDeliversEveryReplyToItsCall/" + ChannelName(channel)).c_str(),
                stats);
    EXPECT_GT(stats.duplicates, 0u);
    EXPECT_EQ(engine.stats().calls, static_cast<uint64_t>(kCalls));
    // Exactly one extra handler invocation per injected duplicate:
    // duplicated traffic is delivered and handled, but never crosses replies
    // between calls. A call returns on its first reply, so wait for the
    // server to finish with the copies; stopping the host sends every reply.
    const int want = kCalls + static_cast<int>(stats.duplicates);
    WaitUntil([&] { return handled.load() >= want; });
    host.StopAll();
    EXPECT_EQ(handled.load(), want);
    // Each extra reply is counted unmatched when this thread next receives:
    // during a later call or the batch, or else in the drain call.
    DrainStragglers(&engine);
    EXPECT_EQ(engine.stats().udp_unmatched, stats.duplicates);
  }
  UdpClientSocket::ForThisThread().Close();
}

TEST(ChaosTest, ReorderAndDelayKeepRepliesMatchedToRequests) {
  uint64_t seed = AnnounceSeed("ReorderAndDelayKeepRepliesMatchedToRequests");
  for (EngineChannel channel : kEngineChannels) {
    SCOPED_TRACE(ChannelName(channel));
    UdpServerHost host;
    RpcServer server(ControlKind::kRaw, "chaos-trace");
    // The handler answers with the trace id the request traveled under: the
    // client can then check that every reply belongs to its own request
    // even while the injector shuffles and delays traffic.
    server.RegisterProcedure(7, 1, [](BytesView) -> Result<Bytes> {
      uint64_t trace = CurrentRequestContext().trace_id;
      Bytes out(8);
      for (int i = 0; i < 8; ++i) {
        out[i] = static_cast<uint8_t>((trace >> (56 - 8 * i)) & 0xff);
      }
      return out;
    });
    Result<uint16_t> port = host.Serve(&server, 0);
    ASSERT_TRUE(port.ok()) << port.status();

    FaultSpec wobble;
    wobble.reorder = 0.3;
    wobble.delay = 0.3;
    wobble.delay_min_ms = 1;
    wobble.delay_max_ms = 5;
    FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", wobble)}});
    AsyncClientEngine engine;

    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 20;
    constexpr int64_t kBudgetMs = 3000;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    std::atomic<int> over_budget{0};
    std::atomic<int> total_retries{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        UdpTransport real;
        FaultInjectingTransport faulty(&real, &injector);
        RpcClient client(/*world=*/nullptr, "localclient", &faulty);
        client.set_async_engine(&engine);
        std::vector<CallOutcome> outcomes = RunCalls(
            channel, client, ChannelBinding(*port), kCallsPerThread,
            [](int) { return Bytes{1}; }, [] { return RequestContext::WithTimeout(kBudgetMs); });
        for (const CallOutcome& outcome : outcomes) {
          total_retries += static_cast<int>(outcome.info.retries);
          if (outcome.info.attempts > RetryPolicy::MaxAttempts(kBudgetMs) ||
              outcome.info.retries + 1 != outcome.info.attempts) {
            ++over_budget;
          }
          if (!outcome.reply.ok() || outcome.reply->size() != 8) {
            ++failures;
            continue;
          }
          uint64_t echoed = 0;
          for (int b = 0; b < 8; ++b) {
            echoed = (echoed << 8) | (*outcome.reply)[b];
          }
          if (echoed != outcome.info.trace_id) {
            ++mismatches;
          }
        }
        UdpClientSocket::ForThisThread().Close();
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    host.StopAll();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0) << "a reply crossed onto the wrong request";
    EXPECT_EQ(over_budget.load(), 0) << "attempts beyond MaxAttempts, or uncounted retries";
    EXPECT_EQ(engine.stats().calls, static_cast<uint64_t>(kThreads * kCallsPerThread));
    FaultStats stats = injector.stats();
    ReportStats(("ReorderAndDelayKeepRepliesMatchedToRequests/" + ChannelName(channel)).c_str(),
                stats, total_retries.load(), failures.load());
    EXPECT_GT(stats.reorders + stats.delays, 0u);
    EXPECT_EQ(stats.delay_ms_total >= stats.delays, true)
        << "every delayed decision injects at least delay_min_ms";
  }
}

// Replay: two identical sequential drop-only runs under one seed draw the
// same decisions in the same order, so each call takes as many attempts in
// the second run as in the first.
TEST(ChaosTest, SameSeedDropRunsReplayDecisionsAndAttempts) {
  uint64_t seed = AnnounceSeed("SameSeedDropRunsReplayDecisionsAndAttempts");
  constexpr int kCalls = 15;
  uint64_t retries_seen = 0;
  for (EngineChannel channel : kEngineChannels) {
    SCOPED_TRACE(ChannelName(channel));
    UdpServerHost host;
    RpcServer server(ControlKind::kRaw, "chaos-replay");
    server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
    Result<uint16_t> port = host.Serve(&server, 0);
    ASSERT_TRUE(port.ok()) << port.status();

    auto run = [&](std::vector<uint32_t>* attempts) {
      FaultSpec lossy;
      lossy.drop = 0.3;
      FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", lossy)}});
      injector.set_trace_enabled(true);
      UdpTransport real(kLossyAttemptMs);
      FaultInjectingTransport faulty(&real, &injector);
      RpcClient client(/*world=*/nullptr, "localclient", &faulty);
      AsyncClientEngine engine;
      client.set_async_engine(&engine);
      std::vector<CallOutcome> outcomes = RunCalls(
          channel, client, ChannelBinding(*port), kCalls,
          [](int i) { return Bytes{static_cast<uint8_t>(i)}; },
          [] { return RequestContext::WithTimeout(4000); }, /*one_at_a_time=*/true);
      for (const CallOutcome& outcome : outcomes) {
        EXPECT_TRUE(outcome.reply.ok()) << outcome.reply.status();
        attempts->push_back(outcome.info.attempts);
      }
      EXPECT_EQ(engine.stats().calls, static_cast<uint64_t>(kCalls));
      return injector.TakeTrace();
    };
    std::vector<uint32_t> first_attempts;
    std::vector<uint32_t> second_attempts;
    const std::vector<std::string> first = run(&first_attempts);
    const std::vector<std::string> second = run(&second_attempts);
    host.StopAll();

    EXPECT_EQ(first, second) << "the same seed drew a different decision sequence";
    EXPECT_EQ(first_attempts, second_attempts) << "a call's attempts did not replay";
    uint64_t total_attempts = 0;
    for (uint32_t attempts : first_attempts) {
      total_attempts += attempts;
    }
    EXPECT_EQ(first.size(), total_attempts) << "one decision per attempt";
    retries_seen += total_attempts - kCalls;
  }
  // A channel's fifteen calls escape a 30% plan about one time in 210, and
  // then replay trivially; both channels do so about once in 44,000 runs.
  EXPECT_GT(retries_seen, 0u) << "a drop plan that never dropped replays trivially";
  UdpClientSocket::ForThisThread().Close();
}

// --- Serve-side chaos through the global injector --------------------------

TEST(ChaosTest, CorruptAndDropInboundStormStaysLive) {
  uint64_t seed = AnnounceSeed("CorruptAndDropInboundStormStaysLive");
  FaultSpec storm;
  storm.corrupt = 0.3;
  storm.drop = 0.25;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("local", storm)}});
  ScopedGlobalInjector installed(&injector);

  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "chaos-inbound");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport udp;
  RpcClient client(/*world=*/nullptr, "localclient", &udp);
  constexpr int kCalls = 25;
  constexpr int64_t kBudgetMs = 1500;
  int successes = 0;
  int total_retries = 0;
  for (int i = 0; i < kCalls; ++i) {
    RpcCallInfo info;
    Result<Bytes> reply = client.Call(UdpBinding(*port, 7, ControlKind::kRaw), 1, Bytes{0x7e},
                                      RequestContext::WithTimeout(kBudgetMs), &info);
    // Liveness: every call returns — success, a budget-bounded timeout, or a
    // clean protocol error when a corrupted frame still decoded. Never a hang.
    if (reply.ok()) {
      ++successes;
    }
    EXPECT_LE(info.attempts, RetryPolicy::MaxAttempts(kBudgetMs)) << "call " << i;
    total_retries += static_cast<int>(info.retries);
  }

  // Snapshot before StopAll — stopping releases the endpoints.
  FaultStats collected = CollectFaultStats(&injector, &host);
  host.StopAll();

  ReportStats("CorruptAndDropInboundStormStaysLive", collected, total_retries,
              kCalls - successes);
  EXPECT_GT(successes, 0) << "a lossy (not blackholed) server must still make progress";
  EXPECT_GT(collected.server_drops, 0u);
  EXPECT_GT(collected.corruptions, 0u);
  // Every injected inbound drop was accounted by the serving runtime too
  // (its per-endpoint counters also cover garbled frames, so >=).
  EXPECT_GE(collected.EndpointDropTotal(), collected.server_drops);
  EXPECT_GT(collected.endpoint_drops.count(*port), 0u);
}

// --- Reply-side scenarios --------------------------------------------------
//
// FaultInjectingTransport's faults are drawn as each attempt starts, so they
// shape requests only. These scenarios fault the reply direction instead
// with seeded chaotic *servers*: every shuffle, duplication, loss and late
// reply is drawn from an mt19937_64 keyed by the scenario seed, so a failing
// run replays byte-identically with HCS_CHAOS_SEED=<seed>.

TEST(ChaosTest, AsyncUdpDuplicateReorderStormMatchesEveryReply) {
  uint64_t seed = AnnounceSeed("AsyncUdpDuplicateReorderStormMatchesEveryReply");
  constexpr int kCalls = 16;

  // A chaotic echo server: collects every request first, then answers in a
  // seed-shuffled order, duplicating some replies and re-sending a few
  // stale ones at the end. The CallMany batch must still hand every call its
  // own payload, and account the leftovers as unmatched datagrams.
  int server_fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(server_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(server_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(getsockname(server_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  uint16_t server_port = ntohs(addr.sin_port);

  std::atomic<int> duplicates_sent{0};
  std::thread server([server_fd, seed, &duplicates_sent] {
    const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
    std::mt19937_64 rng(seed);
    std::vector<Bytes> replies;
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    while (replies.size() < kCalls) {
      uint8_t buf[2048];
      peer_len = sizeof(peer);
      ssize_t n = recvfrom(server_fd, buf, sizeof(buf), 0,
                           reinterpret_cast<sockaddr*>(&peer), &peer_len);
      if (n <= 0) {
        return;
      }
      Bytes request(buf, buf + n);
      Result<RpcCall> call = control.DecodeCall(request);
      if (!call.ok()) {
        continue;
      }
      RpcReplyMsg reply;
      reply.xid = call->xid;
      reply.results = call->args;
      replies.push_back(control.EncodeReply(reply));
    }
    std::shuffle(replies.begin(), replies.end(), rng);
    auto send_reply = [&](const Bytes& reply) {
      (void)sendto(server_fd, reply.data(), reply.size(), 0,
                   reinterpret_cast<sockaddr*>(&peer),
                   peer_len);  // hcs:ignore-status(chaos server; a lost reply is the fault under test)
    };
    for (const Bytes& reply : replies) {
      send_reply(reply);
      if (rng() % 100 < 40) {  // duplicate storm
        send_reply(reply);
        ++duplicates_sent;
      }
    }
    for (int i = 0; i < 3; ++i) {  // stale re-sends, long after the originals
      send_reply(replies[rng() % replies.size()]);
      ++duplicates_sent;
    }
  });

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);

  std::vector<RpcClient::Request> requests;
  for (int i = 0; i < kCalls; ++i) {
    requests.push_back(RpcClient::Request{UdpBinding(server_port, 7, ControlKind::kRaw), 1,
                                          Bytes{static_cast<uint8_t>(i), 0x5a}, {}});
  }
  std::vector<Result<Bytes>> replies = client.CallMany(requests);
  int mismatches = 0;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(replies[i].ok()) << "call " << i << ": " << replies[i].status();
    if (*replies[i] != (Bytes{static_cast<uint8_t>(i), 0x5a})) {
      ++mismatches;
    }
  }
  server.join();
  close(server_fd);

  EXPECT_EQ(mismatches, 0) << "a duplicated or reordered reply crossed calls";
  EXPECT_GT(duplicates_sent.load(), 0) << "a 40% duplicate storm that never fired";
  // Every duplicate lands as an unmatched datagram (its call already
  // ended): during the batch, or in the drain call once the server is done.
  DrainStragglers(&engine);
  EXPECT_EQ(engine.stats().udp_unmatched, static_cast<uint64_t>(duplicates_sent.load()));
  std::cout << "[chaos] AsyncUdpDuplicateReorderStorm duplicates=" << duplicates_sent.load()
            << " unmatched=" << engine.stats().udp_unmatched << std::endl;
}

// Binds a raw UDP socket on an ephemeral loopback port for a hand-written
// chaos server; returns the fd and the port ({-1, 0} on failure).
std::pair<int, uint16_t> BindRawUdpServer() {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return {-1, 0};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return {-1, 0};
  }
  return {fd, ntohs(addr.sin_port)};
}

// The sync twin of the storm above. Sync calls run on their caller over one
// socket per thread, so whatever the server sends beyond a call's answer
// waits in that socket for the thread's next call: every request is
// answered twice, some answers follow a stale reply to an earlier request,
// and the last request is answered only after three stale re-sends. Each
// call must skip all of those and return its own payload; a path that took
// the first datagram as the answer fails here with a mismatched xid.
TEST(ChaosTest, SyncUdpDuplicateAndStaleRepliesNeverAnswerALaterCall) {
  uint64_t seed = AnnounceSeed("SyncUdpDuplicateAndStaleRepliesNeverAnswerALaterCall");
  constexpr int kCalls = 16;  // plus one final call behind the stale re-sends

  auto [server_fd, server_port] = BindRawUdpServer();
  ASSERT_GE(server_fd, 0);
  std::atomic<int> extras_sent{0};
  std::thread server([server_fd, seed, &extras_sent] {
    const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
    std::mt19937_64 rng(seed);
    std::vector<Bytes> answered;
    for (int i = 0; i <= kCalls; ++i) {
      uint8_t buf[2048];
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      ssize_t n = recvfrom(server_fd, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&peer),
                           &peer_len);
      if (n <= 0) {
        return;
      }
      Result<RpcCall> call = control.DecodeCall(Bytes(buf, buf + n));
      if (!call.ok()) {
        return;
      }
      RpcReplyMsg reply;
      reply.xid = call->xid;
      reply.results = call->args;
      Bytes fresh = control.EncodeReply(reply);
      auto send_reply = [&](const Bytes& datagram) {
        (void)sendto(server_fd, datagram.data(), datagram.size(), 0,
                     reinterpret_cast<sockaddr*>(&peer),
                     peer_len);  // hcs:ignore-status(chaos server; a lost reply is the fault under test)
      };
      const int stale = i == kCalls ? 3 : (!answered.empty() && rng() % 100 < 30 ? 1 : 0);
      for (int k = 0; k < stale; ++k) {
        send_reply(answered[rng() % answered.size()]);
        ++extras_sent;
      }
      send_reply(fresh);
      if (i < kCalls) {
        send_reply(fresh);  // the duplicate waits for the next call
        ++extras_sent;
      }
      answered.push_back(std::move(fresh));
    }
  });

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  const HrpcBinding binding = UdpBinding(server_port, 7, ControlKind::kRaw);
  for (int i = 0; i <= kCalls; ++i) {
    const Bytes payload{static_cast<uint8_t>(i), 0x5b};
    Result<Bytes> reply = client.Call(binding, 1, payload);
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, payload) << "call " << i << " was answered by another call's reply";
  }
  server.join();
  close(server_fd);

  // Every extra datagram reached the socket ahead of a later call's answer,
  // so the calls themselves read, dropped and counted all of them.
  AsyncEngineStats stats = engine.stats();
  EXPECT_GT(extras_sent.load(), kCalls);
  EXPECT_EQ(stats.udp_unmatched, static_cast<uint64_t>(extras_sent.load()));
  EXPECT_EQ(stats.calls, static_cast<uint64_t>(kCalls + 1));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kCalls + 1));
  std::cout << "[chaos] SyncUdpDuplicateAndStale extras=" << extras_sent.load()
            << " unmatched=" << stats.udp_unmatched << std::endl;
}

// The chaos invariants on the caller-run path, against a server that loses
// a quarter of the requests and answers some only after the attempt that
// sent them has timed out: every call gets its own payload (no reply
// cross-talk), attempts stay within what the budget admits, and the engine
// counts every retry.
TEST(ChaosTest, SyncUdpLossAndLateRepliesRetryWithinTheBudget) {
  uint64_t seed = AnnounceSeed("SyncUdpLossAndLateRepliesRetryWithinTheBudget");
  constexpr int kCalls = 24;
  constexpr int64_t kBudgetMs = 4000;
  // Longer than the first attempt's budget, shorter than the second's.
  constexpr int kLateMs = RetryPolicy::kAttemptBaseMs + 30;

  auto [server_fd, server_port] = BindRawUdpServer();
  ASSERT_GE(server_fd, 0);
  timeval poll_tv{0, 20 * 1000};
  ASSERT_EQ(setsockopt(server_fd, SOL_SOCKET, SO_RCVTIMEO, &poll_tv, sizeof(poll_tv)), 0);
  std::atomic<bool> stop{false};
  std::atomic<int> lost{0};
  std::atomic<int> late{0};
  std::thread server([&, server_fd] {
    const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
    std::mt19937_64 rng(seed);
    while (!stop.load()) {
      uint8_t buf[2048];
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      ssize_t n = recvfrom(server_fd, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&peer),
                           &peer_len);
      if (n <= 0) {
        continue;  // the poll timeout: look at the stop flag
      }
      Result<RpcCall> call = control.DecodeCall(Bytes(buf, buf + n));
      if (!call.ok()) {
        continue;
      }
      const uint64_t roll = rng() % 100;
      if (roll < 25) {
        ++lost;
        continue;
      }
      if (roll < 40) {
        ++late;
        std::this_thread::sleep_for(std::chrono::milliseconds(kLateMs));
      }
      RpcReplyMsg reply;
      reply.xid = call->xid;
      reply.results = call->args;
      Bytes datagram = control.EncodeReply(reply);
      (void)sendto(server_fd, datagram.data(), datagram.size(), 0,
                   reinterpret_cast<sockaddr*>(&peer),
                   peer_len);  // hcs:ignore-status(chaos server; a lost reply is the fault under test)
    }
  });

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  const HrpcBinding binding = UdpBinding(server_port, 7, ControlKind::kRaw);
  uint64_t total_retries = 0;
  for (int i = 0; i < kCalls; ++i) {
    const Bytes payload{static_cast<uint8_t>(i), 0x6c};
    RpcCallInfo info;
    Result<Bytes> reply =
        client.Call(binding, 1, payload, RequestContext::WithTimeout(kBudgetMs), &info);
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, payload) << "call " << i << " was answered by another call's reply";
    EXPECT_LE(info.attempts, RetryPolicy::MaxAttempts(kBudgetMs)) << "call " << i;
    EXPECT_EQ(info.retries + 1, info.attempts) << "call " << i;
    total_retries += info.retries;
  }
  stop.store(true);
  server.join();
  close(server_fd);
  // Replies to retries that came after the last call returned are still
  // queued on this thread's socket; later tests on this thread start clean.
  UdpClientSocket::ForThisThread().Close();

  AsyncEngineStats stats = engine.stats();
  EXPECT_GT(lost.load() + late.load(), 0) << "a lossy server that never lost anything";
  EXPECT_GT(total_retries, 0u);
  EXPECT_EQ(stats.retries, total_retries);
  EXPECT_EQ(stats.calls, static_cast<uint64_t>(kCalls));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kCalls));
  std::cout << "[chaos] SyncUdpLossAndLateReplies lost=" << lost.load() << " late=" << late.load()
            << " retries=" << total_retries << " unmatched=" << stats.udp_unmatched << std::endl;
}

// An injected hold spends part of its attempt, not extra time on top of it:
// against a peer that never answers, with every send held 150 or 300 ms
// and a 200 ms attempt timeout, an unbudgeted call ends kTimeout after its
// one attempt at about 200 ms, and a call with a 500 ms budget ends at
// about its deadline, on both channels. A receive that starts a full
// timeout after the hold overruns both.
TEST(ChaosTest, HeldSendsEndWithTheirAttemptAndTheCallWithItsBudget) {
  uint64_t seed = AnnounceSeed("HeldSendsEndWithTheirAttemptAndTheCallWithItsBudget");
  constexpr int kAttemptMs = 200;
  constexpr int64_t kBudgetMs = 500;
  auto [hole_fd, hole_port] = BindRawUdpServer();  // bound, never read
  ASSERT_GE(hole_fd, 0);
  for (EngineChannel channel : kEngineChannels) {
    for (int64_t hold_ms : {150, 300}) {
      SCOPED_TRACE(ChannelName(channel) + " hold " + std::to_string(hold_ms) + " ms");
      FaultSpec held;
      held.delay = 1.0;
      held.delay_min_ms = hold_ms;
      held.delay_max_ms = hold_ms;
      FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", held)}});
      UdpTransport real(kAttemptMs);
      FaultInjectingTransport faulty(&real, &injector);
      RpcClient client(/*world=*/nullptr, "localclient", &faulty);
      AsyncClientEngine engine;
      client.set_async_engine(&engine);

      for (bool budgeted : {false, true}) {
        const auto start = std::chrono::steady_clock::now();
        std::vector<CallOutcome> outcomes = RunCalls(
            channel, client, ChannelBinding(hole_port), 1, [](int) { return Bytes{0x48}; },
            [budgeted] {
              return budgeted ? RequestContext::WithTimeout(kBudgetMs) : RequestContext{};
            });
        const int64_t elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
        const CallOutcome& outcome = outcomes[0];
        EXPECT_EQ(outcome.reply.status().code(), StatusCode::kTimeout) << outcome.reply.status();
        EXPECT_EQ(outcome.info.retries + 1, outcome.info.attempts);
        if (budgeted) {
          EXPECT_LE(outcome.info.attempts, RetryPolicy::MaxAttempts(kBudgetMs));
          EXPECT_LT(elapsed_ms, kBudgetMs + 40) << "the call outlived its budget";
        } else {
          EXPECT_EQ(outcome.info.attempts, 1u);
          EXPECT_LT(elapsed_ms, kAttemptMs + 60) << "the attempt outlived its timeout";
        }
        std::cout << "[chaos] HeldSends " << ChannelName(channel) << " hold=" << hold_ms
                  << " budgeted=" << budgeted << " elapsed_ms=" << elapsed_ms
                  << " attempts=" << outcome.info.attempts << std::endl;
      }
      EXPECT_EQ(engine.stats().calls, 2u);
      EXPECT_EQ(injector.stats().delays, injector.stats().decisions) << "every send was held";
    }
  }
  close(hole_fd);
}

// --- Name-service scenarios over real sockets ------------------------------

// A fake modified-BIND on a real socket (the udp_transport_test shape):
// every answer maps a context to "UW-BIND"; NXDOMAIN names contain
// "missing"; `delay_ms` of real time per query.
class FakeMetaBind {
 public:
  explicit FakeMetaBind(int delay_ms) : server_(ControlKind::kRaw, "chaos-meta-bind") {
    server_.RegisterProcedure(
        kBindProgram, kBindProcQuery, [this, delay_ms](BytesView args) -> Result<Bytes> {
          ++queries_;
          HCS_ASSIGN_OR_RETURN(BindQueryRequest request, BindQueryRequest::Decode(args));
          if (delay_ms > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
          }
          BindQueryResponse response;
          if (request.name.find("missing") != std::string::npos) {
            response.rcode = Rcode::kNxDomain;
          } else {
            response.rcode = Rcode::kNoError;
            response.answers = UnspecRecordsFromValue(
                request.name, RecordBuilder().Str("ns", "UW-BIND").Build(), 300);
          }
          return response.Encode();
        });
  }

  Result<uint16_t> Serve(uint16_t port = 0) { return host_.Serve(&server_, port); }
  int queries() const { return queries_.load(); }
  void Stop() { host_.StopAll(); }

 private:
  RpcServer server_;
  UdpServerHost host_;
  std::atomic<int> queries_{0};
};

TEST(ChaosTest, MetaResolutionSurvivesLossAndDuplication) {
  uint64_t seed = AnnounceSeed("MetaResolutionSurvivesLossAndDuplication");
  FakeMetaBind upstream(/*delay_ms=*/0);
  Result<uint16_t> port = upstream.Serve();
  ASSERT_TRUE(port.ok()) << port.status();

  FaultSpec lossy;
  lossy.drop = 0.5;
  lossy.duplicate = 0.25;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("localhost", lossy)}});
  // A dropped attempt waits out its timer. Capped at 100 ms, about 16
  // attempts fit a 4 s budget; at the default cap six do, and at 50% loss
  // six drops in a row happen to one resolution in 64.
  UdpTransport udp(/*timeout_ms=*/100);
  FaultInjectingTransport faulty(&udp, &injector);
  RpcClient rpc(/*world=*/nullptr, "localclient", &faulty);
  AsyncClientEngine engine;
  rpc.set_async_engine(&engine);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  constexpr int kContexts = 16;
  for (int i = 0; i < kContexts; ++i) {
    // Fresh budget per resolution; MetaStore inherits it ambiently.
    ScopedRequestContext scope(RequestContext::WithTimeout(4000));
    Result<std::string> ns = meta.ContextToNameService("LossyCtx" + std::to_string(i));
    ASSERT_TRUE(ns.ok()) << "context " << i << ": " << ns.status();
    EXPECT_EQ(*ns, "UW-BIND");
  }
  upstream.Stop();

  FaultStats stats = injector.stats();
  ReportStats("MetaResolutionSurvivesLossAndDuplication", stats);
  EXPECT_GT(stats.drops, 0u);
  EXPECT_EQ(engine.stats().calls, static_cast<uint64_t>(kContexts))
      << "one meta-store query per context, each on the engine";
  // Invariant: the record cache stayed structurally consistent through the
  // retry/duplication storm.
  Status invariants = cache.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
  EXPECT_EQ(cache.size(), static_cast<size_t>(kContexts));
}

TEST(ChaosTest, MetaServerCrashMidSingleflightRecoversAfterRestart) {
  AnnounceSeed("MetaServerCrashMidSingleflightRecoversAfterRestart");
  FakeMetaBind upstream(/*delay_ms=*/150);
  Result<uint16_t> port = upstream.Serve();
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport udp;
  RpcClient rpc(/*world=*/nullptr, "localclient", &udp);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  // A leader fetch gets in flight, followers pile onto the singleflight,
  // then the server dies mid-exchange. Every caller must get a clean
  // Status — no hang, no crash, no poisoned cache state.
  std::atomic<int> ok_count{0};
  std::atomic<int> failed_clean{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    ScopedRequestContext scope(RequestContext::WithTimeout(800));
    Result<std::string> ns = meta.ContextToNameService("CrashCtx");
    (ns.ok() ? ok_count : failed_clean)++;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      ScopedRequestContext scope(RequestContext::WithTimeout(800));
      Result<std::string> ns = meta.ContextToNameService("CrashCtx");
      (ns.ok() ? ok_count : failed_clean)++;
    });
  }
  upstream.Stop();  // mid-singleflight
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(ok_count.load() + failed_clean.load(), 5) << "every caller returned";

  // Restart on the same port; resolution must recover without a restart of
  // the client stack (a timeout is not negatively cached).
  Result<uint16_t> restarted = upstream.Serve(*port);
  if (!restarted.ok()) {
    restarted = upstream.Serve(0);  // port raced away; any port will do
    ASSERT_TRUE(restarted.ok()) << restarted.status();
    meta.set_meta_port(*restarted);
  }
  {
    ScopedRequestContext scope(RequestContext::WithTimeout(2000));
    Result<std::string> ns = meta.ContextToNameService("CrashCtx");
    ASSERT_TRUE(ns.ok()) << ns.status();
    EXPECT_EQ(*ns, "UW-BIND");
  }
  upstream.Stop();
  Status invariants = cache.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

// A linked HostAddress NSM answering one fixed address: bounds FindNSM's
// recursion without a remote exchange.
class FixedAddressNsm : public Nsm {
 public:
  FixedAddressNsm(NsmInfo info, uint32_t address)
      : info_(std::move(info)), address_(address) {}
  const NsmInfo& info() const override { return info_; }
  Result<WireValue> Query(const HnsName&, const WireValue&) override {
    return RecordBuilder().U32("address", address_).Build();
  }

 private:
  NsmInfo info_;
  uint32_t address_;
};

// Every datagram to the meta authority is delivered twice, updates
// included: the server applies each registration list twice. A record is
// written delete-then-add inside its list, so the second copy rewrites the
// same chunks, and a cold FindNSM after RegisterNsm reads the new binding
// whole (per-operation adds stored each chunk twice, and every later read
// failed with "unspecified-type chunk gap").
TEST(ChaosTest, DuplicatedRegistrationIsIdempotent) {
  uint64_t seed = AnnounceSeed("DuplicatedRegistrationIsIdempotent");
  World world;
  ASSERT_TRUE(world.network().AddHost("metahost", MachineType::kMicroVax, OsType::kUnix).ok());
  BindServerOptions meta_options;
  meta_options.allow_dynamic_update = true;
  meta_options.allow_unspecified_type = true;
  BindServer* meta_bind = BindServer::InstallOn(&world, "metahost", meta_options).value();
  ASSERT_TRUE(meta_bind->AddZone(MetaStore::kMetaZoneOrigin).ok());
  UdpServerHost server_host;
  Result<uint16_t> port = server_host.Serve(meta_bind->rpc(), 0);
  ASSERT_TRUE(port.ok()) << port.status();

  FaultSpec twice;
  twice.duplicate = 1.0;
  FaultInjector injector(FaultConfig{seed, {OnePhasePlan("metahost", twice)}});
  UdpTransport udp;
  FaultInjectingTransport faulty(&udp, &injector);
  HnsOptions options;
  options.meta_server_host = "metahost";
  Hns hns(/*world=*/nullptr, "client", &faulty, options);
  hns.meta().set_meta_port(*port);

  NsmInfo addr_info;
  addr_info.nsm_name = "AddrNSM";
  addr_info.query_class = kQueryClassHostAddress;
  addr_info.ns_name = "UW-BIND";
  addr_info.host = "metahost";
  addr_info.host_context = "hostctx";
  ASSERT_TRUE(hns.LinkNsm(std::make_shared<FixedAddressNsm>(addr_info, 0x7f000001)).ok());
  ASSERT_TRUE(hns.RegisterContext("dupctx", "UW-BIND").ok());
  ASSERT_TRUE(hns.RegisterContext("hostctx", "UW-BIND").ok());
  ASSERT_TRUE(hns.RegisterNsm(addr_info).ok());

  // The location record is over one chunk: its adds are what duplicated.
  NsmInfo info;
  info.nsm_name = "DupNSM";
  info.query_class = kQueryClassHrpcBinding;
  info.ns_name = "UW-BIND";
  info.host = "nsmhost-with-a-long-name-" + std::string(200, 'x');
  info.host_context = "hostctx";
  info.program = 4242;
  info.port = 1001;
  ASSERT_GT(UnspecRecordsFromValue("loc.dupnsm.hns", info.ToWire()).size(), 1u);
  for (uint16_t port_number : {1001, 1002}) {
    info.port = port_number;
    ASSERT_TRUE(hns.RegisterNsm(info).ok());
    hns.cache().Clear();  // cold: the read goes to the authority
    Result<NsmHandle> handle =
        hns.FindNsm(HnsName::Parse("dupctx!anything").value(), kQueryClassHrpcBinding);
    ASSERT_TRUE(handle.ok()) << handle.status();
    EXPECT_EQ(handle->nsm_name, "DupNSM");
    EXPECT_EQ(handle->binding.host, info.host);
    EXPECT_EQ(handle->binding.port, port_number);
    EXPECT_EQ(handle->binding.address, 0x7f000001u);
  }
  server_host.StopAll();

  FaultStats stats = injector.stats();
  ReportStats("DuplicatedRegistrationIsIdempotent", stats);
  EXPECT_EQ(stats.duplicates, stats.decisions) << "every datagram went twice";
  EXPECT_GT(stats.duplicates, 0u);
  Status invariants = hns.cache().CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

// --- Simulated-testbed scenarios -------------------------------------------

TEST(ChaosTest, RegisterStormAcrossHealingPartition) {
  AnnounceSeed("RegisterStormAcrossHealingPartition");
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  MetaStore& meta = client.session->local_hns()->meta();

  // Partition the client away from everything (meta authority included).
  bed.Partition({kClientHost});
  constexpr int kNsms = 8;
  for (int i = 0; i < kNsms; ++i) {
    NsmInfo info = bed.HostAddrBindInfo();
    info.nsm_name = "StormNSM-" + std::to_string(i);
    info.query_class = "StormQC-" + std::to_string(i);
    Status status = meta.RegisterNsm(info);
    ASSERT_FALSE(status.ok()) << "registration crossed a partition";
    EXPECT_EQ(status.code(), StatusCode::kTimeout) << "a cut link looks like loss, not refusal";
  }

  bed.HealPartition();
  for (int i = 0; i < kNsms; ++i) {
    NsmInfo info = bed.HostAddrBindInfo();
    info.nsm_name = "StormNSM-" + std::to_string(i);
    info.query_class = "StormQC-" + std::to_string(i);
    Status status = meta.RegisterNsm(info);
    ASSERT_TRUE(status.ok()) << "registration " << i << " after heal: " << status;
    Result<NsmInfo> read_back = meta.NsmLocation(info.nsm_name);
    ASSERT_TRUE(read_back.ok()) << read_back.status();
    EXPECT_EQ(read_back->host, info.host);
  }
  // And the storm unwinds cleanly.
  for (int i = 0; i < kNsms; ++i) {
    NsmInfo info = bed.HostAddrBindInfo();
    Status status = meta.UnregisterNsm(info.ns_name, "StormQC-" + std::to_string(i));
    EXPECT_TRUE(status.ok()) << "unregister " << i << ": " << status;
  }

  Status invariants = client.hns_cache->CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
}

TEST(ChaosTest, NsmCrashIsUnavailableUntilRestart) {
  AnnounceSeed("NsmCrashIsUnavailableUntilRestart");
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllRemote);
  client.FlushAll();
  WireValue args = RecordBuilder().Str("service", kDesiredService).Build();

  bed.CrashHost(kNsmServerHost);
  Result<WireValue> down = client.session->Query(SunName(), kQueryClassHrpcBinding, args);
  EXPECT_EQ(down.status().code(), StatusCode::kUnavailable);

  bed.RestartHost(kNsmServerHost);
  Result<WireValue> up = client.session->Query(SunName(), kQueryClassHrpcBinding, args);
  EXPECT_TRUE(up.ok()) << up.status();
}

TEST(ChaosTest, TtlExpiryDuringBlackholeServesNothingStale) {
  uint64_t seed = AnnounceSeed("TtlExpiryDuringBlackholeServesNothingStale");
  TestbedOptions options;
  options.hns_composite_cache = true;
  Testbed bed(options);

  FaultInjector injector(FaultConfig{seed, {}});
  bed.InstallFaultInjector(&injector);
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);

  // Warm the composite FindNSM path with the injector healthy.
  Result<NsmHandle> warm = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(client.composite_cache->Get(kContextBindBinding, kQueryClassHrpcBinding)
                  .has_value());

  // Blackhole both meta servers: the availability argument says warm entries
  // keep answering...
  injector.BlackholeEndpoint(kMetaBindHost);
  injector.BlackholeEndpoint(kMetaSecondaryHost);
  Result<NsmHandle> cached = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  EXPECT_TRUE(cached.ok()) << cached.status();

  // ...but only until the min-constituent TTL. Past it, the outage must
  // surface — a stale composite binding must never be served.
  bed.world().clock().AdvanceMs(3601.0 * 1000.0);
  Result<NsmHandle> stale = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  EXPECT_FALSE(stale.ok()) << "a composite binding outlived its constituents' TTL";
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client.composite_cache->Get(kContextBindBinding, kQueryClassHrpcBinding)
                   .has_value());
  EXPECT_GT(injector.stats().blackholed, 0u);

  // Healing the endpoints restores resolution (the sim transport path).
  injector.HealEndpoint(kMetaBindHost);
  injector.HealEndpoint(kMetaSecondaryHost);
  Result<NsmHandle> healed = client.session->FindNsm(SunName(), kQueryClassHrpcBinding);
  EXPECT_TRUE(healed.ok()) << healed.status();

  ReportStats("TtlExpiryDuringBlackholeServesNothingStale", injector.stats());
  Status composite_invariants = client.composite_cache->CheckInvariants();
  EXPECT_TRUE(composite_invariants.ok()) << composite_invariants;
  Status cache_invariants = client.hns_cache->CheckInvariants();
  EXPECT_TRUE(cache_invariants.ok()) << cache_invariants;
}

}  // namespace
}  // namespace hcs
