// The UDP client core over real UDP sockets: CallMany fan-out, caller-run
// sync calls and their counters, calls too large for a datagram, the
// channel-less inline path, late replies to earlier attempts, and a
// mixed-outcome batch run from several threads at once.
//
// Delay-bearing servers are served concurrently with a fixed number of
// loops, so the wall-clock assertions do not depend on the core count; a
// serial endpoint would re-serialize the very concurrency under test.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "src/rpc/async_client.h"
#include "src/rpc/client.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/server.h"
#include "src/rpc/transport.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
}

HrpcBinding UdpBinding(uint16_t port, uint32_t program, ControlKind control) {
  HrpcBinding b;
  b.service_name = "async-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = TransportKind::kUdp;
  return b;
}

TEST(AsyncClientTest, UdpFanOutCompletesEveryFuture) {
  UdpServerHost host;
  RpcServer server(ControlKind::kSunRpc, "async-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);

  constexpr int kCalls = 32;
  std::vector<RpcClient::Request> requests;
  std::vector<Bytes> payloads;
  for (int i = 0; i < kCalls; ++i) {
    XdrEncoder enc;
    enc.PutUint32(static_cast<uint32_t>(i));
    payloads.push_back(enc.Take());
    requests.push_back(
        RpcClient::Request{UdpBinding(*port, 7, ControlKind::kSunRpc), 1, payloads.back(), {}});
  }
  std::vector<RpcCallInfo> infos;
  std::vector<Result<Bytes>> replies = client.CallMany(requests, &infos);
  ASSERT_EQ(replies.size(), size_t{kCalls});
  ASSERT_EQ(infos.size(), size_t{kCalls});
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].status();
    EXPECT_EQ(*replies[i], payloads[i]) << "reply " << i << " matched to the wrong call";
    EXPECT_GE(infos[i].attempts, 1u);
  }
  EXPECT_EQ(engine.stats().completed, static_cast<uint64_t>(kCalls));
  host.StopAll();
}

TEST(AsyncClientTest, UdpInFlightCallsShareTheWallClock) {
  constexpr int kCalls = 16;
  constexpr int kDelayMs = 25;
  UdpServerHost host(/*workers=*/8);
  RpcServer server(ControlKind::kRaw, "async-delay");
  server.RegisterProcedure(7, 1, [kDelayMs](BytesView args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(kDelayMs));
    return args.ToBytes();
  });
  Result<uint16_t> port = host.ServeConcurrent(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);

  Clock::time_point start = Clock::now();
  std::vector<RpcClient::Request> requests(
      kCalls, RpcClient::Request{UdpBinding(*port, 7, ControlKind::kRaw), 1, Bytes{1}, {}});
  for (const Result<Bytes>& reply : client.CallMany(requests)) {
    ASSERT_TRUE(reply.ok());
  }
  int64_t elapsed = ElapsedMs(start);
  // Sequential would cost kCalls * kDelayMs = 400 ms; 16 in flight across 8
  // server workers cost ~2 delays. The bound leaves a wide scheduling margin
  // while still being unreachable by a serialized client.
  EXPECT_LT(elapsed, kCalls * kDelayMs / 2)
      << "async fan-out did not overlap server-side delays";
  host.StopAll();
}

// Sync UDP calls count into the engine's stats and the client-side syscall
// counters: K calls are K calls, K completions and K sends, and an
// unbudgeted call in the steady state costs at most two counted datagram
// syscalls (one send, one receive).
TEST(AsyncClientTest, SyncUdpCallsCountIntoEngineStatsAndClientSyscalls) {
  UdpServerHost host;
  RpcServer server(ControlKind::kSunRpc, "caller-run-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  const HrpcBinding binding = UdpBinding(*port, 7, ControlKind::kSunRpc);
  // Opens this thread's client socket outside the counted window.
  ASSERT_TRUE(client.Call(binding, 1, Bytes{0}).ok());

  constexpr int kCalls = 200;
  const AsyncEngineStats before = engine.stats();
  const UdpIoCounts io_before = SnapshotUdpIoCounters().client;
  for (int i = 0; i < kCalls; ++i) {
    const Bytes payload{static_cast<uint8_t>(i), 0x33};
    RpcCallInfo info;
    Result<Bytes> reply = client.Call(binding, 1, payload, RequestContext{}, &info);
    ASSERT_TRUE(reply.ok()) << "call " << i << ": " << reply.status();
    EXPECT_EQ(*reply, payload);
    EXPECT_EQ(info.attempts, 1u);
  }
  const AsyncEngineStats after = engine.stats();
  const UdpIoCounts io_after = SnapshotUdpIoCounters().client;

  EXPECT_EQ(after.calls - before.calls, uint64_t{kCalls});
  EXPECT_EQ(after.completed - before.completed, uint64_t{kCalls});
  EXPECT_EQ(after.retries - before.retries, 0u);
  EXPECT_EQ(after.udp_unmatched - before.udp_unmatched, 0u);
  EXPECT_EQ(after.udp_send_drops - before.udp_send_drops, 0u);
  const uint64_t sends = io_after.send_syscalls - io_before.send_syscalls;
  const uint64_t receives = io_after.recv_syscalls - io_before.recv_syscalls;
  EXPECT_EQ(sends, uint64_t{kCalls});
  EXPECT_EQ(io_after.recv_datagrams - io_before.recv_datagrams, uint64_t{kCalls});
  EXPECT_LE(sends + receives, uint64_t{2 * kCalls})
      << sends << " sends and " << receives << " receives for " << kCalls << " calls";
  host.StopAll();
}

// A call no datagram can carry (70 KiB against kMaxDatagram) fails
// kResourceExhausted before anything is sent, with or without a budget to
// retry in: no attempt, no client send, and no wait for an attempt timer.
void ExpectOversizedUdpCallFailsUpFront(bool batched) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "oversize-echo");
  server.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  const HrpcBinding binding = UdpBinding(*port, 7, ControlKind::kRaw);
  const Bytes huge(70 * 1024, 0xab);
  for (const RequestContext& context : {RequestContext{}, RequestContext::WithTimeout(1500)}) {
    const UdpIoCounts io_before = SnapshotUdpIoCounters().client;
    const Clock::time_point start = Clock::now();
    RpcCallInfo info;
    Result<Bytes> reply = UnavailableError("not called");
    if (batched) {
      std::vector<RpcCallInfo> infos;
      reply = client.CallMany({RpcClient::Request{binding, 1, huge, context}}, &infos).at(0);
      info = infos.at(0);
    } else {
      reply = client.Call(binding, 1, huge, context, &info);
    }
    const int64_t elapsed_ms = ElapsedMs(start);
    const UdpIoCounts io_after = SnapshotUdpIoCounters().client;
    EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted) << reply.status();
    EXPECT_EQ(info.attempts, 0u);
    EXPECT_EQ(info.retries, 0u);
    EXPECT_EQ(io_after.send_syscalls, io_before.send_syscalls) << "a datagram send was tried";
    EXPECT_EQ(io_after.send_datagrams, io_before.send_datagrams);
    EXPECT_LT(elapsed_ms, 50) << "the call waited instead of failing up front";
  }
  EXPECT_EQ(engine.stats().calls, 2u);
  EXPECT_EQ(engine.stats().udp_send_drops, 0u);
  host.StopAll();
}

TEST(AsyncClientTest, SyncUdpCallTooLargeForADatagramNeverSends) {
  ExpectOversizedUdpCallFailsUpFront(/*batched=*/false);
}

TEST(AsyncClientTest, AsyncUdpCallTooLargeForADatagramNeverSends) {
  ExpectOversizedUdpCallFailsUpFront(/*batched=*/true);
}

TEST(AsyncClientTest, ChannellessTransportCompletesInline) {
  World world;
  ASSERT_TRUE(world.network().AddHost("localclient", MachineType::kMicroVax, OsType::kUnix).ok());
  ASSERT_TRUE(world.network().AddHost("localhost", MachineType::kMicroVax, OsType::kUnix).ok());
  SimNetTransport sim(&world);
  RpcServer server(ControlKind::kSunRpc, "sim-echo");
  std::vector<Bytes> handled;  // the order the calls reached the server
  server.RegisterProcedure(7, 1, [&handled](BytesView args) -> Result<Bytes> {
    handled.push_back(args.ToBytes());
    return args.ToBytes();
  });
  ASSERT_TRUE(world.RegisterService("localhost", 9000, &server).ok());

  RpcClient client(&world, "localclient", &sim);
  HrpcBinding binding = UdpBinding(9000, 7, ControlKind::kSunRpc);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  // No channel → every call of the batch ran inline, one at a time, in
  // request order, without the engine.
  std::vector<RpcCallInfo> infos;
  std::vector<Result<Bytes>> batch = client.CallMany(
      {RpcClient::Request{binding, 1, Bytes{5, 6}, {}}, RpcClient::Request{binding, 1, Bytes{7}, {}}},
      &infos);
  EXPECT_EQ(handled, (std::vector<Bytes>{Bytes{5, 6}, Bytes{7}}));
  EXPECT_EQ(engine.stats().calls, 0u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(infos[0].attempts, 1u);
  EXPECT_EQ(infos[1].attempts, 1u);
  Result<Bytes> sync_reply = client.Call(binding, 1, Bytes{5, 6});
  ASSERT_TRUE(batch[0].ok());
  ASSERT_TRUE(batch[1].ok());
  ASSERT_TRUE(sync_reply.ok());
  EXPECT_EQ(*batch[0], *sync_reply);
  EXPECT_EQ(*batch[1], Bytes{7});
}

// Binds a UDP socket nobody ever reads: calls to it spend their full
// deadline budget and end kTimeout.
int BindBlackHole(uint16_t* port_out) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(fd);
    return -1;
  }
  *port_out = ntohs(addr.sin_port);
  return fd;
}

// A reply to an earlier attempt still answers a caller-run call (every
// attempt carries the call's xid), and the answer to the attempt the
// server saw second, arriving after the call returned, is dropped as
// unmatched by the thread's next call.
TEST(AsyncClientTest, SyncUdpCallTakesALateReplyToAnEarlierAttempt) {
  uint16_t port = 0;
  int fd = BindBlackHole(&port);
  ASSERT_GE(fd, 0);
  std::thread server([fd] {
    const ControlProtocol& control = GetControlProtocol(ControlKind::kSunRpc);
    std::vector<std::pair<sockaddr_in, Bytes>> requests;
    // Hold the first attempt past its budget, answer it once the retry
    // has arrived, then answer the retry too; then echo one more call.
    while (requests.size() < 3) {
      uint8_t buf[2048];
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      ssize_t n = recvfrom(fd, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&peer), &peer_len);
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
      reply.results.push_back(static_cast<uint8_t>(call->context.attempt));
      requests.emplace_back(peer, control.EncodeReply(reply));
      if (requests.size() == 1) {
        continue;  // the first attempt goes unanswered for now
      }
      for (size_t i = requests.size() == 2 ? 0 : 2; i < requests.size(); ++i) {
        const auto& [to, datagram] = requests[i];
        (void)sendto(fd, datagram.data(), datagram.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to),
                     sizeof(to));  // hcs:ignore-status(test server; a lost reply fails the test)
      }
    }
  });

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  const HrpcBinding binding = UdpBinding(port, 7, ControlKind::kSunRpc);
  RpcCallInfo info;
  Result<Bytes> reply =
      client.Call(binding, 1, Bytes{0x41}, RequestContext::WithTimeout(3000), &info);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{0x41, 0})) << "the first attempt's reply answers the call";
  EXPECT_EQ(info.attempts, 2u);
  EXPECT_EQ(info.retries, 1u);

  Result<Bytes> next = client.Call(binding, 1, Bytes{0x42});
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, (Bytes{0x42, 0}));
  server.join();
  close(fd);

  AsyncEngineStats stats = engine.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.udp_unmatched, 1u) << "the retry's own reply reached the next call";
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

// One batch of mixed outcomes, run from several threads at once through one
// engine: live echoes, live calls whose tight deadlines race their delayed
// replies, calls to a black hole, and calls to a live echo whose every
// attempt the fault plan drops. Every call ends with its own echo or
// kTimeout, within what its budget admits and with every retry counted, and
// the batch returns soon after its longest budget. A tight call whose budget
// ran out before its first attempt could start ends kTimeout with no
// attempt.
TEST(AsyncClientTest, MixedOutcomeBatchEndsEveryCallWithinItsBudget) {
  UdpServerHost host(/*workers=*/32);
  RpcServer echo(ControlKind::kSunRpc, "mixed-echo");
  echo.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> { return args.ToBytes(); });
  // Answers after args[1] ms: the same band as the tight deadlines below.
  RpcServer delayed(ControlKind::kSunRpc, "mixed-delayed");
  delayed.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(args[1]));
    return args.ToBytes();
  });
  Result<uint16_t> echo_port = host.Serve(&echo, 0);
  ASSERT_TRUE(echo_port.ok()) << echo_port.status();
  Result<uint16_t> delayed_port = host.ServeConcurrent(&delayed, 0);
  ASSERT_TRUE(delayed_port.ok()) << delayed_port.status();
  Result<uint16_t> dropped_port = host.Serve(&echo, 0);
  ASSERT_TRUE(dropped_port.ok()) << dropped_port.status();
  uint16_t hole_port = 0;
  int hole_fd = BindBlackHole(&hole_port);
  ASSERT_GE(hole_fd, 0);

  // More calls than kMaxUdpBatch, so some wait for an attempt to end.
  constexpr int kBatch = 96;
  constexpr int kThreads = 3;
  // Budgets run to tens of milliseconds, so a scheduling stall between
  // building a request and CallMany cannot shed it before the engine counts
  // it.
  constexpr int64_t kHoleBudgetMs = 50;  // the batch's longest budget
  FaultSpec drop_all;
  drop_all.drop = 1.0;
  FaultInjector injector(FaultConfig{
      /*seed=*/7, {FaultPlan{"localhost:" + std::to_string(*dropped_port), {{0, drop_all}}}}});
  UdpTransport transport;
  FaultInjectingTransport faulty(&transport, &injector);
  AsyncClientEngine engine;
  std::atomic<uint64_t> dropped_attempts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      RpcClient client(nullptr, "localclient", &faulty);
      client.set_async_engine(&engine);
      std::vector<RpcClient::Request> requests;
      std::vector<int64_t> budgets;
      for (int i = 0; i < kBatch; ++i) {
        const uint8_t delay_ms = static_cast<uint8_t>(10 * ((i / 3) % 4));
        const Bytes payload{static_cast<uint8_t>(i), delay_ms};
        if (i % 3 == 0) {  // live, unbudgeted: its echo
          requests.push_back({UdpBinding(*echo_port, 7, ControlKind::kSunRpc), 1, payload, {}});
          budgets.push_back(0);
        } else if (i % 3 == 1) {  // live, 20-30 ms against a 0-30 ms reply
          budgets.push_back(20 + 5 * ((i / 3) % 3));
          requests.push_back({UdpBinding(*delayed_port, 7, ControlKind::kSunRpc), 1, payload,
                              RequestContext::WithTimeout(budgets.back())});
        } else {  // the black hole, or every attempt dropped: kTimeout
          budgets.push_back(kHoleBudgetMs);
          const uint16_t port = (i / 3) % 2 == 0 ? hole_port : *dropped_port;
          requests.push_back({UdpBinding(port, 7, ControlKind::kSunRpc), 1, payload,
                              RequestContext::WithTimeout(kHoleBudgetMs)});
        }
      }
      std::vector<RpcCallInfo> infos;
      const Clock::time_point start = Clock::now();
      std::vector<Result<Bytes>> replies = client.CallMany(requests, &infos);
      const int64_t elapsed_ms = ElapsedMs(start);
      EXPECT_LT(elapsed_ms, kHoleBudgetMs + 100) << "the batch outlived its longest budget";
      ASSERT_EQ(replies.size(), size_t{kBatch});
      for (int i = 0; i < kBatch; ++i) {
        SCOPED_TRACE("call " + std::to_string(i));
        if (replies[i].ok()) {
          EXPECT_EQ(*replies[i], requests[i].args) << "answered by another call's reply";
        } else {
          EXPECT_EQ(replies[i].status().code(), StatusCode::kTimeout) << replies[i].status();
        }
        if (i % 3 == 0) {
          EXPECT_TRUE(replies[i].ok()) << "a live unbudgeted echo failed";
          EXPECT_EQ(infos[i].attempts, 1u);
        } else if (i % 3 == 2) {
          EXPECT_FALSE(replies[i].ok()) << "the black hole or a dropped call answered";
        }
        if (requests[i].binding.port == *dropped_port) {
          dropped_attempts += infos[i].attempts;
        }
        if (budgets[i] > 0) {
          EXPECT_LE(infos[i].attempts, RetryPolicy::MaxAttempts(budgets[i]));
        }
        if (infos[i].attempts == 0) {
          EXPECT_EQ(replies[i].status().code(), StatusCode::kTimeout) << replies[i].status();
        } else {
          EXPECT_EQ(infos[i].retries + 1, infos[i].attempts);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(engine.stats().calls, uint64_t{kThreads * kBatch});
  EXPECT_EQ(engine.stats().completed, uint64_t{kThreads * kBatch});
  // The plan dropped every attempt to its endpoint and none to the others.
  EXPECT_GT(dropped_attempts.load(), 0u);
  EXPECT_EQ(injector.stats().drops, dropped_attempts.load());
  close(hole_fd);
  host.StopAll();
}

}  // namespace
}  // namespace hcs
