// A real UDP transport over 127.0.0.1: the same RpcServer objects that run
// in the simulation can be served on actual sockets, and RpcClient can call
// them through UdpTransport. Demonstrates that the HRPC component split is
// genuine — the control protocols and stubs are byte-level real, and only
// the transport is swapped.
//
// UdpServerHost serves every UDP endpoint with one kind of loop, run to
// completion on its own thread: receive a batch (recvmmsg), filter and
// dispatch each frame, answer the batch (sendmmsg). Serve runs one loop per
// endpoint, so its handlers never overlap, and it takes up to 16 datagrams
// per receive; ServeConcurrent runs several loops on the same socket, each
// taking one datagram per receive. Services must stay alive until
// StopAll()/destruction. Simulated-time charging is a no-op on this path
// (pass a null World to RpcClient).

#ifndef HCS_SRC_RPC_UDP_TRANSPORT_H_
#define HCS_SRC_RPC_UDP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/rpc/transport.h"

namespace hcs {

// Serves SimService instances on real UDP sockets bound to 127.0.0.1.
class UdpServerHost {
 public:
  // Datagrams one receive takes. A Serve loop batches its receives, which
  // beat a batch of one in alternating pairs (DESIGN.md §13,
  // EXPERIMENTS.md B18); ServeConcurrent loops take one each, so a queued
  // request never waits behind another loop's batch.
  static constexpr int kSerialRecvBatch = 16;
  static constexpr int kConcurrentRecvBatch = 1;

  // `workers` is the number of loops a ServeConcurrent endpoint runs (0 =
  // min(8, max(2, hardware threads))).
  explicit UdpServerHost(int workers = 0);
  ~UdpServerHost() { StopAll(); }

  UdpServerHost(const UdpServerHost&) = delete;
  UdpServerHost& operator=(const UdpServerHost&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and serves `service` on UDP with
  // one loop. Handler invocations for this endpoint never overlap (the
  // seed's contract — the sim-era services are not thread-safe). Returns
  // the bound port.
  HCS_NODISCARD Result<uint16_t> Serve(SimService* service, uint16_t port = 0);

  // Like Serve, but declares `service` thread-safe: `workers` loops share
  // the socket, each receiving one datagram per call, so up to `workers`
  // handlers run at once.
  HCS_NODISCARD Result<uint16_t> ServeConcurrent(SimService* service, uint16_t port = 0);

  // Stops every serve loop and closes the sockets. Idempotent; Serve may be
  // called again afterwards.
  void StopAll();

  // Per-endpoint drop counters (port → dropped datagrams). Drops cover
  // garbled or truncated requests, undeliverable replies, and datagrams the
  // fault injector discarded inbound. Snapshot before StopAll() — stopping
  // releases the endpoints. Chaos tests assert on these counts instead of
  // sleeping.
  std::map<uint16_t, uint64_t> dropped_by_endpoint() const;

 private:
  // State the loops of one endpoint share; stable address for the threads.
  struct LoopState {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> dropped{0};
    std::atomic<int> running{0};  // loops that have not exited yet
  };
  struct Endpoint {
    int fd = -1;
    uint16_t port = 0;
    std::unique_ptr<LoopState> state;
    std::vector<std::thread> loops;
  };

  // One serve loop of an endpoint; see udp_transport.cc.
  static void ServeLoop(int fd, uint16_t port, SimService* service, int batch,
                        LoopState* state);
  HCS_NODISCARD Result<uint16_t> ServeUdp(SimService* service, uint16_t port, bool concurrent);

  const int workers_;
  mutable Mutex mutex_{"udp-server-host"};
  std::vector<Endpoint> endpoints_ HCS_GUARDED_BY(mutex_);
};

// Client-side transport over 127.0.0.1: only a channel spec. RpcClient
// drives it through the kUdpDatagram channel: Call and CallMany run their
// calls on the calling thread's socket, matching replies by xid
// (src/rpc/async_client.h).
class UdpTransport : public Transport {
 public:
  // `timeout_ms` bounds each attempt; expiry surfaces as kTimeout.
  explicit UdpTransport(int timeout_ms = 2000) : timeout_ms_(timeout_ms) {}

  AsyncChannelSpec async_channel() const override {
    return AsyncChannelSpec{AsyncChannelKind::kUdpDatagram, timeout_ms_};
  }

 private:
  int timeout_ms_;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_UDP_TRANSPORT_H_
