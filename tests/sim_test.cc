// Unit tests for src/sim: virtual clock, event queue, network, world, and
// an injected delay's charge to the virtual clock.

#include <gtest/gtest.h>

#include <chrono>

#include "src/sim/clock.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/world.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

// --- VirtualClock ---------------------------------------------------------

TEST(VirtualClockTest, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0);
  clock.AdvanceMs(1.5);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 1.5);
  clock.Advance(MsToSim(0.5));
  EXPECT_DOUBLE_EQ(clock.NowMs(), 2.0);
  clock.Reset();
  EXPECT_EQ(clock.Now(), 0);
}

TEST(TimeTest, MsConversionRoundTrips) {
  EXPECT_EQ(MsToSim(1.0), 1000);
  EXPECT_DOUBLE_EQ(SimToMs(MsToSim(123.456)), 123.456);
}

// --- EventQueue -------------------------------------------------------------

TEST(EventQueueTest, RunsInTimestampOrder) {
  VirtualClock clock;
  EventQueue queue(&clock);
  std::vector<int> order;
  queue.ScheduleAt(MsToSim(30), [&] { order.push_back(3); });
  queue.ScheduleAt(MsToSim(10), [&] { order.push_back(1); });
  queue.ScheduleAt(MsToSim(20), [&] { order.push_back(2); });
  EXPECT_EQ(queue.RunUntilIdle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(clock.NowMs(), 30.0);
}

TEST(EventQueueTest, SameTimeEventsRunFifo) {
  VirtualClock clock;
  EventQueue queue(&clock);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.ScheduleAt(MsToSim(10), [&order, i] { order.push_back(i); });
  }
  queue.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  VirtualClock clock;
  EventQueue queue(&clock);
  int fired = 0;
  queue.ScheduleAt(MsToSim(10), [&] { ++fired; });
  queue.ScheduleAt(MsToSim(50), [&] { ++fired; });
  EXPECT_EQ(queue.RunUntil(MsToSim(20)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 20.0);
  EXPECT_EQ(queue.pending(), 1u);
  queue.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PastEventsRunAtCurrentTime) {
  VirtualClock clock;
  EventQueue queue(&clock);
  clock.AdvanceMs(100);
  SimTime fired_at = -1;
  queue.ScheduleAt(MsToSim(10), [&] { fired_at = clock.Now(); });
  queue.RunUntilIdle();
  EXPECT_EQ(fired_at, MsToSim(100));
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  VirtualClock clock;
  EventQueue queue(&clock);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 4) {
      queue.ScheduleAfter(MsToSim(10), chain);
    }
  };
  queue.ScheduleAfter(MsToSim(10), chain);
  queue.RunUntilIdle();
  EXPECT_EQ(depth, 4);
  EXPECT_DOUBLE_EQ(clock.NowMs(), 40.0);
}

// --- Network -----------------------------------------------------------------

TEST(NetworkTest, AddAndLookupHost) {
  Network net;
  Result<uint32_t> addr = net.AddHost("fiji.cs.washington.edu", MachineType::kSun,
                                      OsType::kUnix);
  ASSERT_TRUE(addr.ok());
  EXPECT_NE(*addr, 0u);
  Result<HostInfo> info = net.GetHost("FIJI.cs.Washington.EDU");  // case-insensitive
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->machine, MachineType::kSun);
  EXPECT_EQ(info->address, *addr);
}

TEST(NetworkTest, RejectsDuplicatesAndEmpty) {
  Network net;
  ASSERT_TRUE(net.AddHost("a", MachineType::kMicroVax, OsType::kUnix).ok());
  EXPECT_EQ(net.AddHost("A", MachineType::kMicroVax, OsType::kUnix).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(net.AddHost("", MachineType::kMicroVax, OsType::kUnix).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NetworkTest, UniqueAddresses) {
  Network net;
  uint32_t a = net.AddHost("a", MachineType::kMicroVax, OsType::kUnix).value();
  uint32_t b = net.AddHost("b", MachineType::kMicroVax, OsType::kUnix).value();
  EXPECT_NE(a, b);
}

// --- World ----------------------------------------------------------------------

class EchoService : public SimService {
 public:
  explicit EchoService(World* world, double cpu_ms) : world_(world), cpu_ms_(cpu_ms) {}
  Result<Bytes> HandleMessage(const Bytes& request) override {
    ChargeMs(world_, cpu_ms_);
    return request;
  }

 private:
  World* world_;
  double cpu_ms_;
};

class WorldTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("a", MachineType::kMicroVax, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("b", MachineType::kMicroVax, OsType::kUnix).ok());
  }
  World world_;
};

TEST_F(WorldTest, RoundTripDispatchesAndCharges) {
  EchoService echo(&world_, 5.0);
  ASSERT_TRUE(world_.RegisterService("b", 99, &echo).ok());

  Bytes request{1, 2, 3};
  Result<Bytes> reply = world_.RoundTrip("a", "b", 99, request);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, request);
  // cross-host rtt + 5ms server cpu
  double expected = kCosts.NetRttMs(false, 3, 3) + 5.0;
  EXPECT_NEAR(world_.clock().NowMs(), expected, 1e-3);  // µs clock quantization
  EXPECT_EQ(world_.stats().total_messages, 1u);
  EXPECT_EQ(world_.stats().messages_per_endpoint["b:99"], 1u);
}

TEST_F(WorldTest, SameHostIsCheaper) {
  EchoService echo(&world_, 0.0);
  ASSERT_TRUE(world_.RegisterService("b", 99, &echo).ok());
  double t0 = world_.clock().NowMs();
  (void)world_.RoundTrip("b", "b", 99, Bytes{});  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double same = world_.clock().NowMs() - t0;
  t0 = world_.clock().NowMs();
  (void)world_.RoundTrip("a", "b", 99, Bytes{});  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double cross = world_.clock().NowMs() - t0;
  EXPECT_LT(same, cross);
}

TEST_F(WorldTest, LargerPayloadsCostMore) {
  EchoService echo(&world_, 0.0);
  ASSERT_TRUE(world_.RegisterService("b", 99, &echo).ok());
  double t0 = world_.clock().NowMs();
  (void)world_.RoundTrip("a", "b", 99, Bytes(16, 0));  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double small = world_.clock().NowMs() - t0;
  t0 = world_.clock().NowMs();
  (void)world_.RoundTrip("a", "b", 99, Bytes(8192, 0));  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double large = world_.clock().NowMs() - t0;
  EXPECT_GT(large, small);
}

TEST_F(WorldTest, ErrorsForMissingEndpoints) {
  EXPECT_EQ(world_.RoundTrip("a", "b", 99, Bytes{}).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(world_.RoundTrip("a", "nohost", 99, Bytes{}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(world_.RoundTrip("nohost", "b", 99, Bytes{}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(WorldTest, DuplicateRegistrationRejectedAndUnregisterWorks) {
  EchoService echo(&world_, 0.0);
  ASSERT_TRUE(world_.RegisterService("b", 99, &echo).ok());
  EXPECT_EQ(world_.RegisterService("b", 99, &echo).code(), StatusCode::kAlreadyExists);
  world_.UnregisterService("b", 99);
  EXPECT_FALSE(world_.HasService("b", 99));
  EXPECT_EQ(world_.RoundTrip("a", "b", 99, Bytes{}).status().code(),
            StatusCode::kUnavailable);
}

// --- ChargeMs / ClockNow ------------------------------------------------------------

TEST(ChargeTest, NullWorldChargesNothingAndReadsTheSteadyClock) {
  World world;
  ChargeMs(nullptr, 1000.0);
  EXPECT_EQ(world.clock().Now(), 0);

  auto steady_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  SimTime before = steady_us();
  SimTime now = ClockNow(nullptr);
  SimTime after = steady_us();
  EXPECT_GE(now, before);
  EXPECT_LE(now, after);
}

TEST(ChargeTest, EachChargeTruncatesToWholeMicroseconds) {
  // The seed goldens depend on this: two 78.5 µs charges advance 156 µs,
  // while one charge of their sum advances 157.
  World world;
  ChargeMs(&world, 0.0785);
  ChargeMs(&world, 0.0785);
  EXPECT_EQ(world.clock().Now(), 156);
  EXPECT_EQ(ClockNow(&world), 156);
  ChargeMs(&world, 0.0785 + 0.0785);
  EXPECT_EQ(ClockNow(&world), 156 + 157);
}

// --- Injected delay --------------------------------------------------------------

TEST(InjectedDelayTest, ChargesExactlyTheDrawnDelayToTheVirtualClock) {
  Testbed bed;
  HrpcBinding echo;
  echo.host = kSunServerHost;
  echo.port = kDesiredServicePort;
  echo.program = kDesiredServiceProgram;
  auto exchange_us = [&bed, &echo] {
    RpcClient client(&bed.world(), kClientHost, bed.client_transport());
    SimTime start = bed.world().clock().Now();
    EXPECT_TRUE(client.Call(echo, 1, Bytes{1, 2, 3}).ok());
    return bed.world().clock().Now() - start;
  };
  SimTime plain = exchange_us();

  FaultSpec delay;
  delay.delay = 1.0;
  delay.delay_min_ms = 7;
  delay.delay_max_ms = 7;
  FaultInjector injector(FaultConfig{
      /*seed=*/1,
      {FaultPlan{std::string(kSunServerHost) + ":" + std::to_string(kDesiredServicePort),
                 {{0, delay}}}}});
  bed.InstallFaultInjector(&injector);
  EXPECT_EQ(exchange_us(), plain + 7000);
  EXPECT_EQ(injector.stats().delays, 1u);
}

}  // namespace
}  // namespace hcs
