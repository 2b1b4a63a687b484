// Tests for the simulated connection-oriented transport, StreamNetTransport:
// the first exchange with an endpoint pays connection set-up on the virtual
// clock, later ones ride the cached connection, and closing it or losing
// the peer forces re-establishment. No socket and no thread.

#include <gtest/gtest.h>

#include <memory>

#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/rpc/stream_transport.h"

namespace hcs {
namespace {

class StreamTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("client", MachineType::kSun, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("server", MachineType::kSun, OsType::kUnix).ok());
    server_ = std::make_unique<RpcServer>(ControlKind::kSunRpc, "stream-test");
    server_->RegisterProcedure(9, 1, [](const Bytes& args) -> Result<Bytes> { return args; });
    ASSERT_TRUE(world_.RegisterService("server", 2000, server_.get()).ok());
  }

  HrpcBinding Binding() {
    HrpcBinding b;
    b.host = "server";
    b.port = 2000;
    b.program = 9;
    b.version = 2;
    b.control = ControlKind::kSunRpc;
    b.transport = TransportKind::kTcp;
    return b;
  }

  World world_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(StreamTransportTest, FirstCallPaysConnectionSetup) {
  StreamNetTransport stream(&world_);
  RpcClient client(&world_, "client", &stream);

  double t0 = world_.clock().NowMs();
  ASSERT_TRUE(client.Call(Binding(), 1, Bytes{1}).ok());
  double first = world_.clock().NowMs() - t0;
  t0 = world_.clock().NowMs();
  ASSERT_TRUE(client.Call(Binding(), 1, Bytes{1}).ok());
  double second = world_.clock().NowMs() - t0;

  EXPECT_GT(first, second) << "connection setup charged once";
  EXPECT_NEAR(first - second,
              world_.costs().NetRttMs(false, 0, 0) + world_.costs().tcp_connect_cpu_ms,
              1e-3);
  EXPECT_EQ(stream.connects(), 1u);
  EXPECT_EQ(stream.open_connections(), 1u);
}

TEST_F(StreamTransportTest, CloseForcesReestablishment) {
  StreamNetTransport stream(&world_);
  RpcClient client(&world_, "client", &stream);
  ASSERT_TRUE(client.Call(Binding(), 1, Bytes{1}).ok());
  stream.CloseConnection("client", "server", 2000);
  ASSERT_TRUE(client.Call(Binding(), 1, Bytes{1}).ok());
  EXPECT_EQ(stream.connects(), 2u);

  stream.CloseAll();
  EXPECT_EQ(stream.open_connections(), 0u);
  ASSERT_TRUE(client.Call(Binding(), 1, Bytes{1}).ok());
  EXPECT_EQ(stream.connects(), 3u);
}

TEST_F(StreamTransportTest, ServerDeathDropsTheConnection) {
  StreamNetTransport stream(&world_);
  RpcClient client(&world_, "client", &stream);
  ASSERT_TRUE(client.Call(Binding(), 1, Bytes{1}).ok());
  EXPECT_EQ(stream.open_connections(), 1u);

  world_.UnregisterService("server", 2000);
  EXPECT_FALSE(client.Call(Binding(), 1, Bytes{1}).ok());
  EXPECT_EQ(stream.open_connections(), 0u) << "a dead peer kills the cached connection";

  // Server restarts; the client reconnects transparently (the failed call
  // rode the stale connection, so this is the second establishment).
  ASSERT_TRUE(world_.RegisterService("server", 2000, server_.get()).ok());
  ASSERT_TRUE(client.Call(Binding(), 1, Bytes{1}).ok());
  EXPECT_EQ(stream.connects(), 2u);
}

TEST_F(StreamTransportTest, ConnectionsArePerEndpointAndDirection) {
  ASSERT_TRUE(world_.network().AddHost("other", MachineType::kSun, OsType::kUnix).ok());
  auto second_server = std::make_unique<RpcServer>(ControlKind::kSunRpc, "s2");
  second_server->RegisterProcedure(9, 1,
                                   [](const Bytes& args) -> Result<Bytes> { return args; });
  ASSERT_TRUE(world_.RegisterService("server", 2001, second_server.get()).ok());

  StreamNetTransport stream(&world_);
  RpcClient client(&world_, "client", &stream);
  HrpcBinding b1 = Binding();
  HrpcBinding b2 = Binding();
  b2.port = 2001;
  ASSERT_TRUE(client.Call(b1, 1, Bytes{1}).ok());
  ASSERT_TRUE(client.Call(b2, 1, Bytes{1}).ok());
  EXPECT_EQ(stream.open_connections(), 2u) << "one connection per (peer, port)";
}

}  // namespace
}  // namespace hcs
