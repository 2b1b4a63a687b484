#include "src/rpc/stream_transport.h"

#include "src/common/strings.h"

namespace hcs {

std::string StreamNetTransport::Key(const std::string& from_host, const std::string& to_host,
                                    uint16_t port) {
  return AsciiToLower(from_host) + ">" + AsciiToLower(to_host) + ":" + std::to_string(port);
}

Result<Bytes> StreamNetTransport::RoundTrip(const std::string& from_host,
                                            const std::string& to_host, uint16_t port,
                                            const Bytes& message) {
  std::string key = Key(from_host, to_host, port);
  if (established_.count(key) == 0) {
    // Connection establishment: a handshake round trip before any data
    // moves (SYN/SYN-ACK/ACK, or the SPP equivalent).
    bool same_host = EqualsIgnoreCase(from_host, to_host);
    world_->ChargeMs(world_->costs().NetRttMs(same_host, 0, 0) +
                     world_->costs().tcp_connect_cpu_ms);
    ++connects_;
    established_.insert(key);
  }
  Result<Bytes> response = world_->RoundTrip(from_host, to_host, port, message);
  if (!response.ok() && response.status().code() == StatusCode::kUnavailable) {
    // Peer gone: the connection is dead too.
    established_.erase(key);
  }
  return response;
}

void StreamNetTransport::CloseConnection(const std::string& from_host,
                                         const std::string& to_host, uint16_t port) {
  established_.erase(Key(from_host, to_host, port));
}

}  // namespace hcs

