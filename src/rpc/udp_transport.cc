#include "src/rpc/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"

namespace hcs {

namespace {

sockaddr_in LoopbackAddress(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// Creates, binds, and reports a loopback UDP socket.
Result<int> BindLoopback(uint16_t port, uint16_t* bound_port_out) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return UnavailableError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  sockaddr_in addr = LoopbackAddress(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("bind(127.0.0.1:%u): %s", port, std::strerror(saved)));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    int saved = errno;
    close(fd);
    return UnavailableError(StrFormat("getsockname(): %s", std::strerror(saved)));
  }
  *bound_port_out = ntohs(addr.sin_port);
  return fd;
}

// A requested loop count: > 0 wins; 0 = min(8, max(2, hardware threads)).
int ResolveWorkerCount(int requested) {
  if (requested > 0) {
    return requested;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(8u, std::max(2u, hw)));
}

}  // namespace

UdpServerHost::UdpServerHost(int workers) : workers_(ResolveWorkerCount(workers)) {}

// One serve loop, run to completion: a blocking recvmmsg takes up to
// `batch` datagrams, each frame is filtered and dispatched on this thread,
// and the batch's replies leave in one sendmmsg. Each frame gets its own
// fault decision and its own arrival time; a zero-byte frame (StopAll's
// wake) gets neither and is never dispatched; an unsendable reply is a
// drop. Exits at the first receive after `state->stop` is raised; the owner
// closes the socket only after every loop has exited.
void UdpServerHost::ServeLoop(int fd, uint16_t port, SimService* service, int batch,
                              LoopState* state) {
  UdpRecvBatch recv_batch(batch, kMaxDatagram, UdpIoSide::kServer);
  // Debug builds stamp every view built over the batch arena with its
  // generation; a view that survives past the next Recv (which Resets the
  // arena) aborts on access instead of reading recycled bytes.
  ScopedArenaViewBinding view_binding(recv_batch.debug_arena());
  std::vector<UdpReply> replies;
  while (!state->stop.load(std::memory_order_acquire)) {
    int count = recv_batch.Recv(fd);
    if (count < 0 || state->stop.load(std::memory_order_acquire)) {
      break;  // stopping, or a hard socket error
    }
    replies.clear();
    for (int i = 0; i < count; ++i) {
      UdpFrame& frame = recv_batch.frame(i);
      if (frame.size == 0) {
        continue;
      }
      if (frame.truncated) {
        // The kernel cut the datagram short (MSG_TRUNC); it would decode
        // as garbage, so drop it whole.
        state->dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Queue time counts against the request's budget: the decoded
      // deadline is rebased on the kernel's receive time.
      ScopedReceiveTimestamp stamp(frame.arrival_ms);
      Status admitted = FilterInboundFrame(GlobalFaultInjector(), port, frame.data, frame.size);
      if (!admitted.ok()) {
        state->dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Result<Bytes> response = service->HandleFrame(frame.data, frame.size);
      if (!response.ok()) {
        // Garbled request: drop it, as UDP servers do; the client times out.
        state->dropped.fetch_add(1, std::memory_order_relaxed);
        HCS_LOG(Debug) << "udp server dropping garbled request: " << response.status();
        continue;
      }
      UdpReply reply;
      reply.peer = frame.peer;
      reply.peer_len = frame.peer_len;
      reply.payload = std::move(response).value();
      replies.push_back(std::move(reply));
    }
    size_t sent = SendReplies(fd, replies, UdpIoSide::kServer);
    if (sent < replies.size()) {
      state->dropped.fetch_add(static_cast<uint64_t>(replies.size() - sent),
                               std::memory_order_relaxed);
    }
  }
  state->running.fetch_sub(1, std::memory_order_release);
}

Result<uint16_t> UdpServerHost::Serve(SimService* service, uint16_t port) {
  return ServeUdp(service, port, /*concurrent=*/false);
}

Result<uint16_t> UdpServerHost::ServeConcurrent(SimService* service, uint16_t port) {
  return ServeUdp(service, port, /*concurrent=*/true);
}

Result<uint16_t> UdpServerHost::ServeUdp(SimService* service, uint16_t port, bool concurrent) {
  uint16_t bound_port = 0;
  HCS_ASSIGN_OR_RETURN(int fd, BindLoopback(port, &bound_port));
  EnableArrivalStamps(fd);

  const int loops = concurrent ? workers_ : 1;
  const int batch = concurrent ? kConcurrentRecvBatch : kSerialRecvBatch;
  Endpoint endpoint;
  endpoint.fd = fd;
  endpoint.port = bound_port;
  endpoint.state = std::make_unique<LoopState>();
  endpoint.state->running.store(loops, std::memory_order_relaxed);
  for (int i = 0; i < loops; ++i) {
    endpoint.loops.emplace_back(ServeLoop, fd, bound_port, service, batch,
                                endpoint.state.get());
  }

  MutexLock lock(mutex_);
  endpoints_.push_back(std::move(endpoint));
  return bound_port;
}

std::map<uint16_t, uint64_t> UdpServerHost::dropped_by_endpoint() const {
  MutexLock lock(mutex_);
  std::map<uint16_t, uint64_t> out;
  for (const Endpoint& endpoint : endpoints_) {
    out[endpoint.port] += endpoint.state->dropped.load(std::memory_order_relaxed);
  }
  return out;
}

void UdpServerHost::StopAll() {
  MutexLock lock(mutex_);
  for (Endpoint& endpoint : endpoints_) {
    // Raise the stop flag, then wake every loop with a zero-byte datagram
    // the endpoint sends itself. A wake can go unused (a loop that exits on
    // queued traffic) or be lost (a full receive queue), so they repeat
    // every 5 ms (50 polls) until every loop has exited. The socket is
    // closed only after the joins — closing a live fd out from under a
    // receive races with fd reuse.
    LoopState& state = *endpoint.state;
    state.stop.store(true, std::memory_order_release);
    const sockaddr_in self = LoopbackAddress(endpoint.port);
    for (int round = 0; state.running.load(std::memory_order_acquire) > 0; ++round) {
      if (round % 50 == 0) {
        for (int i = state.running.load(std::memory_order_acquire); i > 0; --i) {
          // hcs:raw-datagram(the stop wake a loop sends its own socket; not RPC traffic)
          (void)sendto(endpoint.fd, nullptr, 0, 0, reinterpret_cast<const sockaddr*>(&self),
                       sizeof(self));
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (std::thread& loop : endpoint.loops) {
      loop.join();
    }
    close(endpoint.fd);
  }
  endpoints_.clear();
}

}  // namespace hcs
