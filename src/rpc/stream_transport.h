// StreamNetTransport: the connection-oriented transports of the testbed
// (TCP/IP on the Unix side, XNS SPP on the Xerox side) over the simulated
// network. Unlike the datagram transport, the first exchange with an
// endpoint pays a connection-establishment round trip; the connection is
// then cached and later exchanges ride it. Closing (or a server restart)
// forces re-establishment.
//
// This is the fourth HRPC transport component; the cost difference between
// datagram and stream transports is visible to the colocation experiments
// exactly as it was to the 1987 prototype's 22-38 ms Sun-vs-Courier spread.
// It has no real-socket twin: real sockets carry UDP only
// (src/rpc/udp_transport.h).

#ifndef HCS_SRC_RPC_STREAM_TRANSPORT_H_
#define HCS_SRC_RPC_STREAM_TRANSPORT_H_

#include <cstdint>
#include <set>
#include <string>

#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

class StreamNetTransport : public Transport {
 public:
  explicit StreamNetTransport(World* world) : world_(world) {}

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override;

  // Drops one cached connection (peer closed / timeout); the next exchange
  // re-establishes it.
  void CloseConnection(const std::string& from_host, const std::string& to_host,
                       uint16_t port);
  // Drops every cached connection (process restart).
  void CloseAll() { established_.clear(); }

  size_t open_connections() const { return established_.size(); }
  uint64_t connects() const { return connects_; }

 private:
  static std::string Key(const std::string& from_host, const std::string& to_host,
                         uint16_t port);

  World* world_;
  std::set<std::string> established_;
  uint64_t connects_ = 0;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_STREAM_TRANSPORT_H_
