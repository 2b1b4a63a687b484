// Transport component: carries one framed message to a server endpoint and
// returns the response. Implementations:
//   - SimNetTransport: over the simulated internetwork (virtual-clock time),
//   - UdpTransport (udp_transport.h): real UDP on 127.0.0.1. It is a channel
//     spec and nothing else; each call's own thread does its socket I/O
//     (src/rpc/async_client.h).

#ifndef HCS_SRC_RPC_TRANSPORT_H_
#define HCS_SRC_RPC_TRANSPORT_H_

#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/sim/world.h"

namespace hcs {

class FaultInjector;

// How (and whether) a transport exposes a channel the RPC client can drive
// itself (src/rpc/async_client.h) instead of calling RoundTrip. kNone means
// Call and CallMany run the blocking path inline — the behavior-preserving
// default for the simulated transport, and for a fault wrapper around it.
enum class AsyncChannelKind {
  kNone,
  // xid-matched datagrams on the calling thread's own socket, for Call and
  // CallMany alike.
  kUdpDatagram,
};

struct AsyncChannelSpec {
  AsyncChannelKind kind = AsyncChannelKind::kNone;
  // Per-attempt timeout ceiling the client applies (the transport's own
  // default timeout; the retry budget can only shorten it).
  int default_timeout_ms = 2000;
  // Client-side faults drawn once per attempt, as it starts
  // (FaultInjectingTransport sets it; null: none).
  FaultInjector* faults = nullptr;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Sends `message` from a process on `from_host` to the server listening at
  // (`to_host`, `port`) and returns its response, in one attempt. Only
  // channel-less transports implement it: a transport with a channel is
  // driven through the channel, never through this exchange.
  HCS_NODISCARD virtual Result<Bytes> RoundTrip(const std::string& from_host,
                                                const std::string& to_host, uint16_t port,
                                                const Bytes& message) {
    (void)from_host;
    (void)message;
    return InternalError("no blocking exchange to " + to_host + ":" + std::to_string(port) +
                         ": this transport's calls run on its channel");
  }

  // The channel this transport exposes to the client runtime. Default:
  // none — Call and CallMany then complete via the blocking RoundTrip
  // path, byte-identical to the seed's synchronous client.
  virtual AsyncChannelSpec async_channel() const { return {}; }
};

// Transport over the simulated internetwork. Endpoints are the services
// registered with the World; latency is charged to the virtual clock.
class SimNetTransport : public Transport {
 public:
  explicit SimNetTransport(World* world) : world_(world) {}

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override {
    return world_->RoundTrip(from_host, to_host, port, message);
  }

 private:
  World* world_;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_TRANSPORT_H_
