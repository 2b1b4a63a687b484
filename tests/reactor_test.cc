// Serving-runtime tests (ctest label `concurrency`; TSan-clean under
// -DHCS_SANITIZE=thread):
//
//   - Serve after StopAll on a UdpServerHost.
//   - End-to-end echo for every control protocol on the UDP serve loops.
//   - RequestContext deadline semantics: client-side shed before send,
//     dispatch-time shed when queue delay eats the budget, ambient
//     inheritance across a server hop, NSM budget checks, and per-attempt
//     retry with backoff against a flaky endpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/hns/hns.h"
#include "src/hns/meta_store.h"
#include "src/hns/name.h"
#include "src/nsm/host_table.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

HrpcBinding LoopbackBinding(uint16_t port, uint32_t program, ControlKind control) {
  HrpcBinding b;
  b.service_name = "reactor-test";
  b.host = "localhost";
  b.port = port;
  b.program = program;
  b.version = 2;
  b.control = control;
  b.transport = TransportKind::kUdp;
  return b;
}

// StopAll stops and joins the UDP loops; Serve on the same host afterwards
// must start fresh ones.
TEST(ReactorTest, ServeAfterStopAllRestartsTheLoops) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "restart-echo");
  server.RegisterProcedure(7, 1, [](const Bytes& args) -> Result<Bytes> { return args; });

  UdpTransport udp;
  RpcClient udp_client(/*world=*/nullptr, "localclient", &udp);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    Result<uint16_t> port = host.Serve(&server, 0);
    ASSERT_TRUE(port.ok()) << port.status();
    Result<Bytes> reply =
        udp_client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1, Bytes{9, 8, 7});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{9, 8, 7}));

    host.StopAll();
  }
}

TEST(ReactorTest, EchoOverLoopsAllControlProtocols) {
  UdpServerHost host;
  UdpTransport udp;
  RpcClient udp_client(/*world=*/nullptr, "localclient", &udp);

  std::vector<std::unique_ptr<RpcServer>> keepalive;
  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
    SCOPED_TRACE(ControlKindName(kind));
    auto server = std::make_unique<RpcServer>(kind, "reactor-echo");
    server->RegisterProcedure(7, 1, [](const Bytes& args) -> Result<Bytes> {
      Bytes out = args;
      out.push_back(0x42);
      return out;
    });

    Result<uint16_t> udp_port = host.Serve(server.get(), 0);
    ASSERT_TRUE(udp_port.ok()) << udp_port.status();
    Result<Bytes> reply =
        udp_client.Call(LoopbackBinding(*udp_port, 7, kind), 1, Bytes{1, 2, 3});
    ASSERT_TRUE(reply.ok()) << reply.status();
    EXPECT_EQ(*reply, (Bytes{1, 2, 3, 0x42}));

    keepalive.push_back(std::move(server));
  }
  host.StopAll();
}

// --- RequestContext deadline semantics --------------------------------------

TEST(ReactorTest, ClientShedsSpentBudgetBeforeSending) {
  UdpServerHost host;
  std::atomic<int> invocations{0};
  RpcServer server(ControlKind::kRaw, "never-called");
  server.RegisterProcedure(7, 1, [&](const Bytes& args) -> Result<Bytes> {
    ++invocations;
    return args;
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1,
                                    Bytes{1}, RequestContext::WithTimeout(0), &info);
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(info.attempts, 0u) << "a spent budget must shed before the first send";
  EXPECT_NE(info.trace_id, 0u);

  // Give any stray datagram time to arrive; none may.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(invocations.load(), 0);
  host.StopAll();
}

TEST(ReactorTest, QueueDelayCountsAgainstTheBudget) {
  // One serial endpoint whose handler holds the loop for 250 ms. A second
  // request with a 100 ms budget arrives while the first is being served
  // and waits in the socket queue; by the time it is dispatched its
  // deadline, rebased on the kernel's receive time, has passed, so the
  // server sheds it without invoking the handler.
  UdpServerHost host;
  std::atomic<int> invocations{0};
  RpcServer server(ControlKind::kRaw, "slow-serial");
  server.RegisterProcedure(7, 1, [&](const Bytes& args) -> Result<Bytes> {
    ++invocations;
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    return args;
  });
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  std::thread front([&] {
    UdpTransport transport(/*timeout_ms=*/2000);
    RpcClient client(/*world=*/nullptr, "localclient", &transport);
    Result<Bytes> reply =
        client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1, Bytes{1});
    EXPECT_TRUE(reply.ok()) << reply.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  UdpTransport transport(/*timeout_ms=*/2000);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  Result<Bytes> reply = client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1,
                                    Bytes{2}, RequestContext::WithTimeout(100));
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);
  front.join();

  // Let the serial queue drain fully, then confirm the budgeted request was
  // shed at dispatch rather than served late.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(invocations.load(), 1) << "the expired request must be shed, not served";
  host.StopAll();
}

TEST(ReactorTest, AmbientContextPropagatesAcrossServerHop) {
  // front's handler burns the whole budget, then makes a nested call to
  // `backend` without passing a context: the ambient (decoded) context must
  // be inherited, found expired, and shed before the nested send.
  UdpServerHost host;
  std::atomic<int> backend_invocations{0};
  RpcServer backend(ControlKind::kRaw, "backend");
  backend.RegisterProcedure(8, 1, [&](const Bytes& args) -> Result<Bytes> {
    ++backend_invocations;
    return args;
  });
  Result<uint16_t> backend_port = host.Serve(&backend, 0);
  ASSERT_TRUE(backend_port.ok()) << backend_port.status();

  UdpTransport nested_transport;
  RpcClient nested_client(/*world=*/nullptr, "fronthost", &nested_transport);
  RpcServer front(ControlKind::kRaw, "front");
  front.RegisterProcedure(7, 1, [&](const Bytes& args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return nested_client.Call(LoopbackBinding(*backend_port, 8, ControlKind::kRaw), 1, args);
  });
  Result<uint16_t> front_port = host.Serve(&front, 0);
  ASSERT_TRUE(front_port.ok()) << front_port.status();

  UdpTransport transport(/*timeout_ms=*/2000);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  Result<Bytes> reply = client.Call(LoopbackBinding(*front_port, 7, ControlKind::kRaw), 1,
                                    Bytes{1}, RequestContext::WithTimeout(100));
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(backend_invocations.load(), 0)
      << "the nested call must inherit the ambient deadline and shed";
  host.StopAll();
}

TEST(ReactorTest, NsmShedsQueryWhenAmbientBudgetSpent) {
  UdpTransport transport;
  NsmInfo info;
  info.nsm_name = "HostTableNSM";
  info.query_class = kQueryClassHostAddress;
  info.ns_name = "HostTable";
  info.host = "tablehost";
  info.host_context = "hostctx";
  HostTableHostAddressNsm nsm(/*world=*/nullptr, "client", &transport, info, "tablehost");

  HnsName name;
  name.context = "hostctx";
  name.individual = "fiji";

  ScopedRequestContext scope(RequestContext::WithTimeout(0));
  Result<WireValue> result = nsm.Query(name, WireValue::OfRecord({}));
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout)
      << "an NSM must shed a query whose budget is already spent";
}

TEST(ReactorTest, HnsFindNsmShedsOnEntryWithoutMetaTraffic) {
  UdpTransport transport;
  HnsOptions options;
  options.meta_server_host = "metahost";
  Hns hns(/*world=*/nullptr, "client", &transport, options);

  HnsName name;
  name.context = "anyctx";
  name.individual = "x";
  Result<NsmHandle> handle =
      hns.FindNsm(name, kQueryClassHrpcBinding, RequestContext::WithTimeout(0));
  EXPECT_EQ(handle.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(hns.meta().remote_lookups(), 0u)
      << "a shed FindNSM must not touch the meta store";
}

// A service whose first `failures` requests are dropped (no reply), after
// which it delegates — the flaky-endpoint case the per-attempt retry loop
// exists for.
class FlakyService : public SimService {
 public:
  FlakyService(SimService* inner, int failures) : inner_(inner), failures_(failures) {}

  Result<Bytes> HandleMessage(const Bytes& request) override {
    if (failures_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      return UnavailableError("flaky: dropping this request");
    }
    return inner_->HandleMessage(request);
  }

 private:
  SimService* inner_;
  std::atomic<int> failures_;
};

TEST(ReactorTest, BudgetedCallRetriesThroughTransientLoss) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "flaky-echo");
  server.RegisterProcedure(7, 1, [](const Bytes& args) -> Result<Bytes> { return args; });
  FlakyService flaky(&server, /*failures=*/2);
  Result<uint16_t> port = host.Serve(&flaky, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  // Short per-try transport timeout, generous overall budget: the first two
  // attempts are dropped on the floor and time out; the third succeeds.
  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  RpcCallInfo info;
  Result<Bytes> reply = client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1,
                                    Bytes{5, 6}, RequestContext::WithTimeout(5000), &info);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, (Bytes{5, 6}));
  EXPECT_EQ(info.attempts, 3u);
  EXPECT_EQ(info.retries, 2u);
  host.StopAll();
}

TEST(ReactorTest, UnbudgetedCallStaysSingleAttempt) {
  UdpServerHost host;
  RpcServer server(ControlKind::kRaw, "flaky-once");
  server.RegisterProcedure(7, 1, [](const Bytes& args) -> Result<Bytes> { return args; });
  FlakyService flaky(&server, /*failures=*/1);
  Result<uint16_t> port = host.Serve(&flaky, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport(/*timeout_ms=*/100);
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  RpcCallInfo info;
  Result<Bytes> reply =
      client.Call(LoopbackBinding(*port, 7, ControlKind::kRaw), 1, Bytes{1},
                  RequestContext{}, &info);
  EXPECT_EQ(reply.status().code(), StatusCode::kTimeout)
      << "without a deadline there is no retry license";
  EXPECT_EQ(info.attempts, 1u);
  EXPECT_EQ(info.retries, 0u);
  host.StopAll();
}

// Singleflight followers must not outwait their own deadline when the
// leader's upstream fetch is slow.
TEST(ReactorTest, SingleflightFollowerHonorsItsOwnDeadline) {
  UdpServerHost host;
  RpcServer slow_bind(ControlKind::kRaw, "slow-meta");
  slow_bind.RegisterProcedure(
      kBindProgram, kBindProcQuery, [](const Bytes&) -> Result<Bytes> {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return UnavailableError("never answers in time");
      });
  Result<uint16_t> port = host.ServeConcurrent(&slow_bind, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport(/*timeout_ms=*/600);
  RpcClient rpc(/*world=*/nullptr, "localclient", &transport);
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled);
  MetaStore meta(&rpc, "localhost", "", &cache);
  meta.set_meta_port(*port);

  // Leader: no deadline, blocks on the slow upstream.
  std::thread leader([&] { (void)meta.ContextToNameService("sharedctx"); });  // hcs:ignore-status(leader blocks by design; the follower's deadline is the assertion)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Follower with a 100 ms budget: must give up on the coalesced wait when
  // its own deadline passes, not when the leader's fetch resolves.
  auto t0 = std::chrono::steady_clock::now();
  Result<std::string> ns = meta.ContextToNameService(
      "sharedctx", nullptr, RequestContext::WithTimeout(100));
  auto waited =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(ns.status().code(), StatusCode::kTimeout);
  EXPECT_LT(waited, 300) << "the follower outwaited its own deadline";
  leader.join();
  host.StopAll();
}

}  // namespace
}  // namespace hcs
