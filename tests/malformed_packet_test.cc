// Malformed packets against live servers on real sockets. The decode sweep
// (decode_sweep_test.cc) proves each decoder is total in isolation; these
// tests prove the property end to end: a BIND, Clearinghouse, portmapper, or
// HNS server fed truncated and garbage frames over 127.0.0.1 must answer
// with a protocol-level error reply or drop the frame cleanly — never crash,
// desynchronize, or wedge the serve loop. Liveness is asserted after every
// storm by a well-formed RpcClient::Call on the same endpoint.
//
// Endpoints run on UdpServerHost's serve loops. Attack datagrams go out raw
// on the thread's UdpClientSocket.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/bindns/server.h"
#include "src/ch/server.h"
#include "src/hns/hns.h"
#include "src/hns/servers.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/client.h"
#include "src/rpc/control.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/portmapper.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"

namespace hcs {
namespace {

// One live server endpoint under attack.
struct Target {
  std::string label;
  RpcServer* rpc = nullptr;
  uint32_t program = 0;
  uint32_t procedure = 0;
};

Bytes PatternBytes(size_t n) {
  Bytes out(n, 0);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  return out;
}

// A structurally valid call whose args are empty: it reaches the handler,
// which fails to decode the args and answers with an in-protocol error.
Bytes ValidCall(const Target& target) {
  RpcCall call;
  call.xid = 7;
  call.program = target.program;
  call.version = 2;
  call.procedure = target.procedure;
  return GetControlProtocol(target.rpc->control_kind()).EncodeCall(call);
}

// A binding that reaches `target`'s program at UDP `port`.
HrpcBinding TargetBinding(const Target& target, uint16_t port) {
  HrpcBinding b;
  b.host = "localhost";
  b.port = port;
  b.program = target.program;
  b.version = 2;
  b.control = target.rpc->control_kind();
  b.transport = TransportKind::kUdp;
  return b;
}

// The liveness probe: a well-formed call with empty args. The handler fails
// to decode them and answers with an in-protocol error, which is fine; only
// a transport failure (no well-formed reply matched the call) is not.
void ExpectAnswered(const Target& target, const Result<Bytes>& reply) {
  const StatusCode code = reply.status().code();
  EXPECT_TRUE(reply.ok() || (code != StatusCode::kTimeout && code != StatusCode::kUnavailable))
      << target.label << " wedged after garbage: " << reply.status();
}

std::vector<Bytes> AttackFrames(const Target& target) {
  Bytes valid = ValidCall(target);
  std::vector<Bytes> frames;
  frames.push_back(Bytes{});
  frames.push_back(Bytes{0xde, 0xad, 0xbe, 0xef});
  frames.push_back(PatternBytes(64));
  frames.push_back(Bytes(valid.begin(), valid.begin() + static_cast<long>(valid.size() / 3)));
  frames.push_back(Bytes(valid.begin(), valid.begin() + static_cast<long>(2 * valid.size() / 3)));
  for (size_t offset : {size_t{0}, valid.size() / 2, valid.size() - 1}) {
    Bytes corrupted = valid;
    corrupted[offset] = static_cast<uint8_t>(corrupted[offset] ^ 0xff);
    frames.push_back(corrupted);
  }
  return frames;
}

// Builds one world with all four server flavors and serves each over the
// given host. Returns the (target, port) list.
class MalformedPacketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(world_.network().AddHost("ns", MachineType::kMicroVax, OsType::kUnix).ok());
    ASSERT_TRUE(world_.network().AddHost("ch", MachineType::kXeroxD, OsType::kXde).ok());
    ASSERT_TRUE(world_.network().AddHost("hub", MachineType::kMicroVax, OsType::kUnix).ok());

    BindServer* bind = BindServer::InstallOn(&world_, "ns", BindServerOptions{}).value();
    targets_.push_back({"bind", bind->rpc(), kBindProgram, kBindProcQuery});

    ChServerOptions ch_options;
    ch_options.require_authentication = false;
    ChServer* ch = ChServer::InstallOn(&world_, "ch", ch_options).value();
    targets_.push_back({"clearinghouse", ch->rpc(), kClearinghouseProgram,
                        kChProcRetrieveItem});

    PortMapper* pmap = PortMapper::InstallOn(&world_, "hub").value();
    targets_.push_back({"portmapper", pmap->server(), kPortmapperProgram,
                        kPmapProcGetPort});

    HnsOptions hns_options;
    hns_options.meta_server_host = "ns";
    HnsServer* hns = HnsServer::InstallOn(&world_, "hub", hns_options).value();
    targets_.push_back({"hns", hns->rpc(), kHnsProgram, kHnsProcFindNsm});
  }

  World world_;
  std::vector<Target> targets_;
};

TEST_F(MalformedPacketTest, UdpServersSurviveGarbageAndStayLive) {
  UdpServerHost host;
  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "client", &transport);
  UdpClientSocket& socket = UdpClientSocket::ForThisThread();

  for (Target& target : targets_) {
    SCOPED_TRACE(target.label);
    Result<uint16_t> port = host.Serve(target.rpc, 0);
    ASSERT_TRUE(port.ok()) << port.status();
    const ControlProtocol& control = GetControlProtocol(target.rpc->control_kind());

    for (Bytes frame : AttackFrames(target)) {
      SCOPED_TRACE("frame size " + std::to_string(frame.size()));
      std::vector<UdpReply> attack(1);  // a batch of one
      attack[0].peer.sin_family = AF_INET;
      attack[0].peer.sin_port = htons(*port);
      attack[0].peer.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      attack[0].peer_len = sizeof(attack[0].peer);
      attack[0].payload = std::move(frame);
      Result<size_t> sent = socket.Send(attack);
      ASSERT_TRUE(sent.ok()) << sent.status();
      // Short wait: the common outcome for garbage is a silent drop, and
      // each drop costs the client its full wait.
      Result<UdpFrame*> reply = socket.Receive(/*timeout_ms=*/150);
      if (reply.ok() && *reply != nullptr) {
        // Whatever came back must be a well-formed reply (an in-protocol
        // error is the expected answer to structurally valid junk).
        Bytes datagram((*reply)->data, (*reply)->data + (*reply)->size);
        EXPECT_TRUE(control.DecodeReply(datagram).ok())
            << target.label << " answered garbage with garbage";
      } else {
        // Clean drop: silence, not a crashed endpoint (liveness below).
        EXPECT_TRUE(reply.ok() || reply.status().code() == StatusCode::kUnavailable)
            << reply.status().ToString();
      }
    }

    // The storm must leave the endpoint serving: a well-formed call gets a
    // well-formed reply that matches it.
    ExpectAnswered(target,
                   client.Call(TargetBinding(target, *port), target.procedure, Bytes{}));
  }
  host.StopAll();
}

}  // namespace
}  // namespace hcs
