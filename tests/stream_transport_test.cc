// Tests for the connection-oriented transports: the simulated
// StreamNetTransport, and calls over the real-socket TcpStreamTransport
// (the async engine's stream channel) against hostile peers: a reply
// dribbled one byte at a time across the nonblocking socket, a bogus length
// prefix, and a request too large for any frame.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/rpc/async_client.h"
#include "src/rpc/client.h"
#include "src/rpc/reactor.h"
#include "src/rpc/server.h"
#include "src/rpc/stream_transport.h"
#include "src/rpc/udp_transport.h"

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

// --- Real-socket framing regressions ---------------------------------------

// A hand-rolled TCP server, one connection per exchange: reads the client's
// framed raw-protocol call whole, then answers it as the test asks.
class DribblingServer {
 public:
  DribblingServer() {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(listen(fd_, 1), 0);
  }

  ~DribblingServer() {
    Join();
    close(fd_);
  }

  uint16_t port() const { return port_; }
  int listen_fd() const { return fd_; }

  // Serves one exchange: the echo reply, header and payload, written one
  // byte at a time with small pauses, the worst-case dribbling peer.
  void ServeOneDribbled() {
    Join();
    thread_ = std::thread([this] {
      int conn = accept(fd_, nullptr, nullptr);
      ASSERT_GE(conn, 0);
      Bytes reply = FramedEchoReply(ReadFramedCall(conn));
      // Pause after each byte so each really does land in its own segment
      // at the client.
      for (uint8_t byte : reply) {
        ASSERT_EQ(send(conn, &byte, 1, MSG_NOSIGNAL), 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      close(conn);
    });
  }

  // Serves one exchange whose reply header announces an absurd frame size.
  void ServeOneOversizedHeader() {
    Join();
    thread_ = std::thread([this] {
      int conn = accept(fd_, nullptr, nullptr);
      ASSERT_GE(conn, 0);
      (void)ReadFramedCall(conn);
      uint8_t bogus[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GB frame
      ASSERT_EQ(send(conn, bogus, 4, MSG_NOSIGNAL), 4);
      close(conn);
    });
  }

 private:
  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Reads one length-prefixed frame whole (empty on a short read).
  static Bytes ReadFramedCall(int conn) {
    uint8_t header[4];
    if (recv(conn, header, 4, MSG_WAITALL) != 4) {
      return Bytes{};
    }
    uint32_t frame_len = (static_cast<uint32_t>(header[0]) << 24) |
                         (static_cast<uint32_t>(header[1]) << 16) |
                         (static_cast<uint32_t>(header[2]) << 8) |
                         static_cast<uint32_t>(header[3]);
    Bytes payload(frame_len);
    if (recv(conn, payload.data(), frame_len, MSG_WAITALL) != static_cast<ssize_t>(frame_len)) {
      return Bytes{};
    }
    return payload;
  }

  // The framed raw-protocol reply echoing a call's args under its xid.
  static Bytes FramedEchoReply(const Bytes& frame) {
    const ControlProtocol& control = GetControlProtocol(ControlKind::kRaw);
    Result<RpcCall> call = control.DecodeCall(frame);
    EXPECT_TRUE(call.ok()) << call.status();
    RpcReplyMsg reply;
    reply.xid = call.ok() ? call->xid : 0;
    reply.results = call.ok() ? call->args : Bytes{};
    Bytes body = control.EncodeReply(reply);
    Bytes framed{static_cast<uint8_t>(body.size() >> 24), static_cast<uint8_t>(body.size() >> 16),
                 static_cast<uint8_t>(body.size() >> 8), static_cast<uint8_t>(body.size())};
    framed.insert(framed.end(), body.begin(), body.end());
    return framed;
  }

  int fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

HrpcBinding RawStreamBinding(uint16_t port) {
  HrpcBinding b;
  b.host = "localhost";
  b.port = port;
  b.program = 7;
  b.version = 1;
  b.control = ControlKind::kRaw;
  b.transport = TransportKind::kTcp;
  return b;
}

TEST(TcpStreamTransportTest, ReassemblesDribbledReply) {
  DribblingServer server;
  server.ServeOneDribbled();

  TcpStreamTransport transport(/*timeout_ms=*/5000);
  RpcClient client(/*world=*/nullptr, "client", &transport);
  Bytes message{0xde, 0xad, 0xbe, 0xef, 0x01};
  Result<Bytes> reply = client.Call(RawStreamBinding(server.port()), 1, message);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(*reply, message) << "partial reads must reassemble the full frame";
}

TEST(TcpStreamTransportTest, RejectsFrameBeyondCap) {
  DribblingServer server;
  server.ServeOneOversizedHeader();

  TcpStreamTransport transport(/*timeout_ms=*/2000);
  RpcClient client(/*world=*/nullptr, "client", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  Result<Bytes> reply = client.Call(RawStreamBinding(server.port()), 1, Bytes{1});
  EXPECT_EQ(reply.status().code(), StatusCode::kProtocolError)
      << "a bogus length prefix means the stream is desynchronized: " << reply.status();
  EXPECT_EQ(engine.stats().stream_connects, 1u);

  // The poisoned connection is gone, not pooled: the next call dials a
  // fresh one and is answered on it.
  server.ServeOneDribbled();
  Result<Bytes> again = client.Call(RawStreamBinding(server.port()), 1, Bytes{2});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, Bytes{2});
  EXPECT_EQ(engine.stats().stream_connects, 2u);
}

// A request no stream frame can carry fails kResourceExhausted before the
// engine dials or sends anything, with or without a budget to retry in.
TEST(TcpStreamTransportTest, RejectsOversizedOutboundMessage) {
  DribblingServer server;  // listens, never accepts
  TcpStreamTransport transport;
  RpcClient client(/*world=*/nullptr, "client", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  const Bytes huge(kMaxStreamFrame + 16, 0xab);
  for (const RequestContext& context : {RequestContext{}, RequestContext::WithTimeout(1500)}) {
    RpcCallInfo info;
    const auto start = std::chrono::steady_clock::now();
    Result<Bytes> reply = client.Call(RawStreamBinding(server.port()), 1, huge, context, &info);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(reply.status().code(), StatusCode::kResourceExhausted) << reply.status();
    EXPECT_EQ(info.attempts, 0u);
    EXPECT_EQ(info.retries, 0u);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 500)
        << "the call waited instead of failing up front";
  }
  EXPECT_EQ(engine.stats().stream_connects, 0u) << "nothing may be dialed for it";
  pollfd pending{server.listen_fd(), POLLIN, 0};
  EXPECT_EQ(poll(&pending, 1, 0), 0) << "a connection reached the server";
}

// An echo SimService for driving the reactor's stream path directly.
class RawEchoService : public SimService {
 public:
  Result<Bytes> HandleMessage(const Bytes& request) override { return request; }
};

TEST(TcpStreamTransportTest, ReactorReassemblesDribbledRequest) {
  UdpServerHost host;
  RawEchoService echo;
  Result<uint16_t> port = host.ServeStream(&echo, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  // Hand-rolled blocking client that dribbles the framed request into the
  // reactor one byte at a time, then expects the whole echo back.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(*port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  Bytes payload{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> framed{0, 0, 0, static_cast<uint8_t>(payload.size())};
  framed.insert(framed.end(), payload.begin(), payload.end());
  for (uint8_t byte : framed) {
    ASSERT_EQ(send(fd, &byte, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::vector<uint8_t> reply(framed.size());
  ASSERT_EQ(recv(fd, reply.data(), reply.size(), MSG_WAITALL),
            static_cast<ssize_t>(reply.size()));
  EXPECT_EQ(reply, framed) << "the reactor must reassemble a dribbled frame";
  close(fd);
  host.StopAll();
}

TEST(TcpStreamTransportTest, ReactorClosesConnectionOnOversizedFrame) {
  UdpServerHost host;
  RawEchoService echo;
  Result<uint16_t> port = host.ServeStream(&echo, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(*port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  uint8_t bogus[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(send(fd, bogus, 4, MSG_NOSIGNAL), 4);
  // The reactor must hang up on the framing violation: the next read sees
  // EOF, not a reply.
  uint8_t byte;
  EXPECT_EQ(recv(fd, &byte, 1, MSG_WAITALL), 0)
      << "a frame beyond the cap must close the connection";
  close(fd);
  host.StopAll();
}

}  // namespace
}  // namespace hcs
