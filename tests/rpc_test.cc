// Unit tests for src/rpc: control protocols, client/server runtime,
// bindings, portmapper, transports.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "src/rpc/binding.h"
#include "src/rpc/client.h"
#include "src/rpc/control.h"
#include "src/rpc/portmapper.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/transport.h"
#include "src/rpc/udp_transport.h"
#include "src/wire/xdr.h"

namespace hcs {
namespace {

// --- Control protocols (parameterized over all three) -------------------------

class ControlProtocolTest : public ::testing::TestWithParam<ControlKind> {};

TEST_P(ControlProtocolTest, CallRoundTrip) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcCall call;
  call.xid = 777;
  call.program = 100003;
  call.version = GetParam() == ControlKind::kRaw ? 1 : 2;
  call.procedure = 6;
  call.args = Bytes{1, 2, 3, 4, 5, 6, 7, 8};

  Result<RpcCall> decoded = control.DecodeCall(control.EncodeCall(call));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // Courier transaction ids are 16-bit.
  uint32_t want_xid = GetParam() == ControlKind::kCourier ? (call.xid & 0xffff) : call.xid;
  EXPECT_EQ(decoded->xid, want_xid);
  EXPECT_EQ(decoded->program, call.program);
  EXPECT_EQ(decoded->procedure, call.procedure);
  EXPECT_EQ(decoded->args, call.args);
}

TEST_P(ControlProtocolTest, SuccessReplyRoundTrip) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcReplyMsg reply;
  reply.xid = 99;
  reply.results = Bytes{9, 9, 9, 9};
  Result<RpcReplyMsg> decoded = control.DecodeReply(control.EncodeReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->app_status, StatusCode::kOk);
  EXPECT_EQ(decoded->results, reply.results);
}

TEST_P(ControlProtocolTest, ErrorReplyCarriesStatusAcrossTheWire) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcReplyMsg reply;
  reply.xid = 5;
  reply.app_status = StatusCode::kNotFound;
  reply.error_message = "no such name";
  Result<RpcReplyMsg> decoded = control.DecodeReply(control.EncodeReply(reply));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->app_status, StatusCode::kNotFound);
  EXPECT_EQ(decoded->error_message, "no such name");
}

TEST_P(ControlProtocolTest, GarbageIsRejected) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  EXPECT_FALSE(control.DecodeCall(Bytes{0xde, 0xad}).ok());
  EXPECT_FALSE(control.DecodeReply(Bytes{}).ok());
}

TEST_P(ControlProtocolTest, CallAndReplyAreNotInterchangeable) {
  const ControlProtocol& control = GetControlProtocol(GetParam());
  RpcCall call;
  call.xid = 1;
  call.program = 2;
  call.version = 2;
  call.procedure = 3;
  Bytes call_msg = control.EncodeCall(call);
  EXPECT_FALSE(control.DecodeReply(call_msg).ok());
}

INSTANTIATE_TEST_SUITE_P(AllControls, ControlProtocolTest,
                         ::testing::Values(ControlKind::kSunRpc, ControlKind::kCourier,
                                           ControlKind::kRaw),
                         [](const auto& param_info) { return ControlKindName(param_info.param); });

TEST(SunRpcControlTest, RejectsWrongRpcVersion) {
  // Hand-craft a call with rpcvers=3.
  XdrEncoder enc;
  enc.PutUint32(1);  // xid
  enc.PutUint32(0);  // CALL
  enc.PutUint32(3);  // bad rpc version
  enc.PutUint32(100000);
  enc.PutUint32(2);
  enc.PutUint32(0);
  enc.PutUint32(0);
  enc.PutUint32(0);
  enc.PutUint32(0);
  enc.PutUint32(0);
  const ControlProtocol& control = GetControlProtocol(ControlKind::kSunRpc);
  EXPECT_EQ(control.DecodeCall(enc.bytes()).status().code(), StatusCode::kProtocolError);
}

// --- Binding serialization ------------------------------------------------------

TEST(HrpcBindingTest, WireRoundTrip) {
  HrpcBinding b;
  b.service_name = "nfs";
  b.host = "fiji.cs.washington.edu";
  b.address = 0x80950104;
  b.port = 2049;
  b.program = 100003;
  b.version = 2;
  b.data_rep = DataRep::kCourier;
  b.transport = TransportKind::kSpp;
  b.control = ControlKind::kCourier;
  b.bind_protocol = BindProtocol::kCourierCh;

  Result<HrpcBinding> decoded = HrpcBinding::FromWire(b.ToWire());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, b);
}

TEST(HrpcBindingTest, RejectsOutOfRangeComponents) {
  WireValue bad = RecordBuilder()
                      .Str("service", "s")
                      .Str("host", "h")
                      .U32("address", 0)
                      .U32("port", 70000)  // > 65535
                      .U32("program", 1)
                      .U32("version", 1)
                      .U32("data_rep", 0)
                      .U32("transport", 0)
                      .U32("control", 0)
                      .U32("bind_protocol", 0)
                      .Build();
  EXPECT_EQ(HrpcBinding::FromWire(bad).status().code(), StatusCode::kProtocolError);

  WireValue bad_enum = RecordBuilder()
                           .Str("service", "s")
                           .Str("host", "h")
                           .U32("address", 0)
                           .U32("port", 1)
                           .U32("program", 1)
                           .U32("version", 1)
                           .U32("data_rep", 9)  // no such data rep
                           .U32("transport", 0)
                           .U32("control", 0)
                           .U32("bind_protocol", 0)
                           .Build();
  EXPECT_EQ(HrpcBinding::FromWire(bad_enum).status().code(), StatusCode::kProtocolError);
}

// --- Client/server over the simulated network ------------------------------------

class RpcRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("client", MachineType::kSun, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("server", MachineType::kSun, OsType::kUnix).ok());
  }

  HrpcBinding MakeBinding(ControlKind control, uint16_t port, uint32_t program) {
    HrpcBinding b;
    b.service_name = "test";
    b.host = "server";
    b.port = port;
    b.program = program;
    b.version = 2;
    b.control = control;
    return b;
  }

  World world_;
};

TEST_F(RpcRuntimeTest, EndToEndCallAllProtocols) {
  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
    SCOPED_TRACE(ControlKindName(kind));
    uint16_t port = static_cast<uint16_t>(1000 + static_cast<int>(kind));
    RpcServer server(kind, "test");
    server.RegisterProcedure(42, 1, [](const Bytes& args) -> Result<Bytes> {
      Bytes out = args;
      out.push_back(0xff);
      return out;
    });
    ASSERT_TRUE(world_.RegisterService("server", port, &server).ok());

    SimNetTransport transport(&world_);
    RpcClient client(&world_, "client", &transport);
    Result<Bytes> reply = client.Call(MakeBinding(kind, port, 42), 1, Bytes{1, 2});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{1, 2, 0xff}));
  }
}

TEST_F(RpcRuntimeTest, UnknownProcedureIsUnimplemented) {
  RpcServer server(ControlKind::kRaw, "test");
  ASSERT_TRUE(world_.RegisterService("server", 1000, &server).ok());
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);
  Result<Bytes> reply = client.Call(MakeBinding(ControlKind::kRaw, 1000, 42), 7, Bytes{});
  EXPECT_EQ(reply.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RpcRuntimeTest, HandlerErrorRoundTripsAsStatus) {
  RpcServer server(ControlKind::kSunRpc, "test");
  server.RegisterProcedure(42, 1, [](const Bytes&) -> Result<Bytes> {
    return PermissionDeniedError("credentials rejected");
  });
  ASSERT_TRUE(world_.RegisterService("server", 1000, &server).ok());
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);
  Result<Bytes> reply = client.Call(MakeBinding(ControlKind::kSunRpc, 1000, 42), 1, Bytes{});
  EXPECT_EQ(reply.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(reply.status().message(), "credentials rejected");
}

TEST_F(RpcRuntimeTest, CourierCallsCostMoreThanSunRpc) {
  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier}) {
    uint16_t port = static_cast<uint16_t>(1000 + static_cast<int>(kind));
    auto server = std::make_unique<RpcServer>(kind, "t");
    server->RegisterProcedure(42, 1, [](const Bytes& a) -> Result<Bytes> { return a; });
    RpcServer* raw = world_.OwnService(std::move(server));
    ASSERT_TRUE(world_.RegisterService("server", port, raw).ok());
  }
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);

  double t0 = world_.clock().NowMs();
  (void)client.Call(MakeBinding(ControlKind::kSunRpc, 1000, 42), 1, Bytes{});  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double sun = world_.clock().NowMs() - t0;
  t0 = world_.clock().NowMs();
  (void)client.Call(MakeBinding(ControlKind::kCourier, 1001, 42), 1, Bytes{});  // hcs:ignore-status(timing probe; only the clock delta is asserted)
  double courier = world_.clock().NowMs() - t0;
  EXPECT_GT(courier, sun);
}

TEST_F(RpcRuntimeTest, LoopbackTransportWorksWithoutAWorld) {
  RpcServer server(ControlKind::kRaw, "test");
  server.RegisterProcedure(42, 1, [](const Bytes& a) -> Result<Bytes> { return a; });
  LoopbackTransport loopback;
  ASSERT_TRUE(loopback.Register(1000, &server).ok());
  EXPECT_EQ(loopback.Register(1000, &server).code(), StatusCode::kAlreadyExists);

  RpcClient client(/*world=*/nullptr, "anywhere", &loopback);
  Result<Bytes> reply = client.Call(MakeBinding(ControlKind::kRaw, 1000, 42), 1, Bytes{5});
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, Bytes{5});

  loopback.Unregister(1000);
  EXPECT_EQ(client.Call(MakeBinding(ControlKind::kRaw, 1000, 42), 1, Bytes{}).status().code(),
            StatusCode::kUnavailable);
}

// --- Portmapper --------------------------------------------------------------------

TEST_F(RpcRuntimeTest, PortmapperSetGetUnset) {
  PortMapper* pm = PortMapper::InstallOn(&world_, "server").value();
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);

  // Not registered yet.
  EXPECT_EQ(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoUdp).status().code(),
            StatusCode::kNotFound);

  pm->SetMapping(100003, 2, kIpProtoUdp, 2049);
  EXPECT_EQ(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoUdp).value(), 2049);
  // Different protocol is a different mapping.
  EXPECT_FALSE(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoTcp).ok());

  pm->UnsetMapping(100003, 2, kIpProtoUdp);
  EXPECT_FALSE(PortMapper::GetPort(&client, "server", 100003, 2, kIpProtoUdp).ok());
}

TEST_F(RpcRuntimeTest, PortmapperSetViaRpc) {
  (void)PortMapper::InstallOn(&world_, "server").value();  // hcs:ignore-status(install helper; value() aborts on failure, handle unused)
  SimNetTransport transport(&world_);
  RpcClient client(&world_, "client", &transport);

  HrpcBinding pmap;
  pmap.host = "server";
  pmap.port = kPortmapperPort;
  pmap.program = kPortmapperProgram;
  pmap.version = 2;
  pmap.control = ControlKind::kSunRpc;

  XdrEncoder enc;
  enc.PutUint32(300001);
  enc.PutUint32(1);
  enc.PutUint32(kIpProtoUdp);
  enc.PutUint32(5555);
  Result<Bytes> set_reply = client.Call(pmap, kPmapProcSet, enc.Take());
  ASSERT_TRUE(set_reply.ok()) << set_reply.status();
  XdrDecoder dec(*set_reply);
  EXPECT_EQ(dec.GetUint32().value(), 1u);  // freshly registered

  EXPECT_EQ(PortMapper::GetPort(&client, "server", 300001, 1, kIpProtoUdp).value(), 5555);
}


// --- RetryPolicy: the budgeted-call retry schedule -----------------------------

TEST(RetryPolicyTest, AttemptBudgetsDoubleFromBaseAndCapAtSixteenX) {
  constexpr int64_t kPlenty = int64_t{1} << 40;
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(0, kPlenty), 100);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(1, kPlenty), 200);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(2, kPlenty), 400);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(3, kPlenty), 800);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(4, kPlenty), 1600);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(5, kPlenty), 1600) << "doubling caps at 16x base";
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(40, kPlenty), 1600);
  // Never beyond the remaining overall budget.
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(0, 40), 40);
  EXPECT_EQ(RetryPolicy::AttemptBudgetMs(3, 150), 150);
}

TEST(RetryPolicyTest, BackoffDoublesToTheCap) {
  int64_t backoff = RetryPolicy::kBackoffBaseMs;
  std::vector<int64_t> schedule;
  for (int i = 0; i < 8; ++i) {
    schedule.push_back(backoff);
    backoff = RetryPolicy::NextBackoffMs(backoff);
  }
  EXPECT_EQ(schedule, (std::vector<int64_t>{10, 20, 40, 80, 160, 250, 250, 250}));
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  for (uint64_t trace : {uint64_t{1}, uint64_t{0xdeadbeef}, uint64_t{42}}) {
    for (uint32_t attempt = 0; attempt < 6; ++attempt) {
      int64_t first = RetryPolicy::JitteredBackoffMs(trace, attempt, 40, 1000);
      int64_t again = RetryPolicy::JitteredBackoffMs(trace, attempt, 40, 1000);
      EXPECT_EQ(first, again) << "a given (trace, attempt) must replay its jitter";
      EXPECT_GE(first, 20) << "at least backoff/2";
      EXPECT_LE(first, 40) << "at most the full backoff";
    }
  }
  // The schedule varies across attempts (it is jitter, not a constant).
  std::set<int64_t> distinct;
  for (uint32_t attempt = 0; attempt < 16; ++attempt) {
    distinct.insert(RetryPolicy::JitteredBackoffMs(7, attempt, 200, 10000));
  }
  EXPECT_GT(distinct.size(), 1u);
  // Capped by the remaining budget.
  EXPECT_EQ(RetryPolicy::JitteredBackoffMs(1, 0, 40, 7), 7);
}

TEST(RetryPolicyTest, MaxAttemptsMatchesTheMinimumSleepSchedule) {
  EXPECT_EQ(RetryPolicy::MaxAttempts(0), 1u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(-5), 1u);
  // The minimum post-attempt sleeps run 5, 10, 20, 40, 80, 125, 125, ... ms
  // (backoff/2 with the 250 ms cap): a budget of 5 ms is spent after the
  // first sleep, 6 ms admits exactly one more attempt, and so on.
  EXPECT_EQ(RetryPolicy::MaxAttempts(1), 1u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(5), 1u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(6), 2u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(100), 5u);
  EXPECT_EQ(RetryPolicy::MaxAttempts(2000), 20u);
  uint32_t previous = 0;
  for (int64_t budget = 1; budget <= 600; ++budget) {
    uint32_t attempts = RetryPolicy::MaxAttempts(budget);
    EXPECT_GE(attempts, previous) << "budget " << budget;
    previous = attempts;
  }
}

// A raw UDP echo server for the retry schedule: it ignores the first
// `ignore` requests and echoes the rest, recording when each request
// arrived and the attempt counter it carried on the wire.
class ForgetfulUdpServer {
 public:
  struct Arrival {
    std::chrono::steady_clock::time_point at;
    uint32_t attempt = 0;
  };

  explicit ForgetfulUdpServer(int ignore) : ignore_(ignore) {
    fd_ = socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    timeval poll_tv{0, 20 * 1000};  // how often the loop looks at stop_
    EXPECT_EQ(setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &poll_tv, sizeof(poll_tv)), 0);
    thread_ = std::thread([this] { Serve(); });
  }

  ~ForgetfulUdpServer() {
    (void)Stop();
    close(fd_);
  }

  uint16_t port() const { return port_; }

  // Stops the server once its queue is drained; returns every arrival.
  std::vector<Arrival> Stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return arrivals_;
  }

 private:
  void Serve() {
    const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
    while (true) {
      uint8_t buf[2048];
      sockaddr_in peer{};
      socklen_t peer_len = sizeof(peer);
      ssize_t n = recvfrom(fd_, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&peer),
                           &peer_len);
      if (n <= 0) {
        if (stop_.load()) {
          return;  // stopping, and nothing is queued
        }
        continue;
      }
      const auto at = std::chrono::steady_clock::now();
      Result<RpcCall> call = control.DecodeCall(Bytes(buf, buf + n));
      if (!call.ok()) {
        continue;
      }
      arrivals_.push_back(Arrival{at, call->context.attempt});
      if (static_cast<int>(arrivals_.size()) <= ignore_) {
        continue;
      }
      RpcReplyMsg reply;
      reply.xid = call->xid;
      reply.results = call->args;
      Bytes datagram = control.EncodeReply(reply);
      (void)sendto(fd_, datagram.data(), datagram.size(), 0, reinterpret_cast<sockaddr*>(&peer),
                   peer_len);  // hcs:ignore-status(test server; a lost reply shows as a retry)
    }
  }

  const int ignore_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<Arrival> arrivals_;  // the server thread's until Stop joins it
  std::thread thread_;
};

HrpcBinding RawUdpBinding(uint16_t port) {
  HrpcBinding b;
  b.host = "localhost";
  b.port = port;
  b.program = 7;
  b.version = 1;
  b.control = ControlKind::kRaw;
  b.transport = TransportKind::kUdp;
  return b;
}

TEST(RetryPolicyTest, CallRetriesOnTheExactScheduleAndSucceeds) {
  ForgetfulUdpServer server(/*ignore=*/2);
  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "client", &transport);
  constexpr int64_t kBudgetMs = 5000;
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(RawUdpBinding(server.port()), 1, Bytes{5, 6},
                                    RequestContext::WithTimeout(kBudgetMs), &info);
  std::vector<ForgetfulUdpServer::Arrival> arrivals = server.Stop();
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{5, 6}));
  EXPECT_EQ(info.attempts, 3u);
  EXPECT_EQ(info.retries, 2u);
  ASSERT_EQ(arrivals.size(), 3u) << "one datagram per attempt";
  int64_t backoff_ms = RetryPolicy::kBackoffBaseMs;
  for (uint32_t k = 0; k < arrivals.size(); ++k) {
    EXPECT_EQ(arrivals[k].attempt, k) << "the attempt counter is re-marshalled per try";
    if (k + 1 == arrivals.size()) {
      break;
    }
    // Attempt k+1 leaves after attempt k's whole budget (the doubling
    // sequence: the budget is almost untouched) plus its jittered backoff,
    // which is at least 5 ms. Attempts time out on a millisecond clock, so
    // allow 1.5 ms for its rounding and the server's wake-up.
    const double gap_ms =
        std::chrono::duration<double, std::milli>(arrivals[k + 1].at - arrivals[k].at).count();
    const int64_t backoff =
        RetryPolicy::JitteredBackoffMs(info.trace_id, k, backoff_ms, kBudgetMs);
    EXPECT_GE(backoff, 5);
    EXPECT_GE(gap_ms, RetryPolicy::AttemptBudgetMs(k, kBudgetMs) + backoff - 1.5)
        << "attempt " << k << " budget " << RetryPolicy::AttemptBudgetMs(k, kBudgetMs)
        << " ms, backoff " << backoff << " ms";
    backoff_ms = RetryPolicy::NextBackoffMs(backoff_ms);
  }
}

TEST(RetryPolicyTest, CallStopsAtTheDeadlineWithinMaxAttempts) {
  ForgetfulUdpServer server(/*ignore=*/1 << 20);  // never answers
  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "client", &transport);
  constexpr int64_t kBudgetMs = 300;
  RpcCallInfo info;
  const auto start = std::chrono::steady_clock::now();
  Result<Bytes> reply = client.Call(RawUdpBinding(server.port()), 1, Bytes{1},
                                    RequestContext::WithTimeout(kBudgetMs), &info);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  std::vector<ForgetfulUdpServer::Arrival> arrivals = server.Stop();
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_GE(info.attempts, 2u) << "the budget admits retries";
  EXPECT_LE(info.attempts, RetryPolicy::MaxAttempts(kBudgetMs))
      << "attempts beyond the budget's admission are forbidden";
  EXPECT_EQ(info.retries + 1, info.attempts);
  ASSERT_EQ(arrivals.size(), info.attempts) << "every attempt, and only those, hit the wire";
  for (uint32_t k = 0; k < arrivals.size(); ++k) {
    EXPECT_EQ(arrivals[k].attempt, k);
  }
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            kBudgetMs + 250)
      << "the call outlived its deadline";
}

TEST(RetryPolicyTest, NoDeadlineMeansTheSeedsSingleAttempt) {
  ForgetfulUdpServer server(/*ignore=*/1 << 20);
  UdpTransport transport(/*timeout_ms=*/200);
  RpcClient client(/*world=*/nullptr, "client", &transport);
  RpcCallInfo info;
  Result<Bytes> reply =
      client.Call(RawUdpBinding(server.port()), 1, Bytes{1}, RequestContext{}, &info);
  std::vector<ForgetfulUdpServer::Arrival> arrivals = server.Stop();
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(info.attempts, 1u);
  EXPECT_EQ(info.retries, 0u);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].attempt, 0u);
}

}  // namespace
}  // namespace hcs
