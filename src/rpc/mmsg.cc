#include "src/rpc/mmsg.h"

#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/strings.h"

namespace hcs {

namespace {

struct UdpIoCounters {
  std::atomic<uint64_t> recv_syscalls{0};
  std::atomic<uint64_t> recv_datagrams{0};
  std::atomic<uint64_t> send_syscalls{0};
  std::atomic<uint64_t> send_datagrams{0};

  void CountRecv(uint64_t datagrams) {
    recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    recv_datagrams.fetch_add(datagrams, std::memory_order_relaxed);
  }
  void CountSend(uint64_t datagrams) {
    send_syscalls.fetch_add(1, std::memory_order_relaxed);
    send_datagrams.fetch_add(datagrams, std::memory_order_relaxed);
  }
  UdpIoCounts Load() const {
    UdpIoCounts out;
    out.recv_syscalls = recv_syscalls.load(std::memory_order_relaxed);
    out.recv_datagrams = recv_datagrams.load(std::memory_order_relaxed);
    out.send_syscalls = send_syscalls.load(std::memory_order_relaxed);
    out.send_datagrams = send_datagrams.load(std::memory_order_relaxed);
    return out;
  }
};

UdpIoCounters& Counters(UdpIoSide side) {
  static UdpIoCounters server;
  static UdpIoCounters client;
  return side == UdpIoSide::kServer ? server : client;
}

// Room for one SCM_TIMESTAMPNS message per received datagram.
constexpr size_t kControlBytes = CMSG_SPACE(sizeof(timespec));
constexpr size_t kControlWords = (kControlBytes + sizeof(uint64_t) - 1) / sizeof(uint64_t);

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// The realtime SO_TIMESTAMPNS stamp a receive left in `hdr`, in ns; 0 when
// the message carries none.
int64_t KernelStampNs(msghdr* hdr) {
  for (cmsghdr* c = CMSG_FIRSTHDR(hdr); c != nullptr; c = CMSG_NXTHDR(hdr, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
      timespec ts{};
      std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
      return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
    }
  }
  return 0;
}

int RealRecvmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  return recvmmsg(fd, msgs, vlen, flags, nullptr);
}

int RealSendmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  return sendmmsg(fd, msgs, vlen, flags);
}

std::atomic<RecvmmsgFn> g_recvmmsg{&RealRecvmmsg};
std::atomic<SendmmsgFn> g_sendmmsg{&RealSendmmsg};
std::atomic<bool> g_mmsg_available{true};

// An errno meaning "this kernel/emulation layer does not do batched
// datagram syscalls" rather than "this call failed": degrade permanently.
bool IsUnsupportedErrno(int err) { return err == ENOSYS || err == EOPNOTSUPP; }

#if HCS_VIEW_DEBUG_ENABLED
// Partial-batch poisoning (DESIGN.md §13 rule R3): after a Recv lands
// `count` of `capacity` frames, everything the kernel did not fill is
// re-trapped — the tail of each received slot past its datagram, and every
// unreceived slot. A decoder that walks past frame.size, or dispatch code
// that touches a neighboring slot, hits poison instead of stale bytes.
// Without ASan there is nothing to do: the canary the arena's Reset
// scribbled is still in every byte the kernel did not write.
void PoisonUnreceivedSpans(uint8_t* slots, size_t slot_bytes, const UdpFrame* frames,
                           int count, int capacity) {
  if (!DebugPoisonTraps()) {
    return;
  }
  for (int i = 0; i < count; ++i) {
    uint8_t* slot = slots + static_cast<size_t>(i) * slot_bytes;
    DebugPoisonSpan(slot + frames[i].size, slot_bytes - frames[i].size);
  }
  DebugPoisonSpan(slots + static_cast<size_t>(count) * slot_bytes,
                  static_cast<size_t>(capacity - count) * slot_bytes);
}
#endif

}  // namespace

UdpIoSnapshot SnapshotUdpIoCounters() {
  UdpIoSnapshot out;
  out.server = Counters(UdpIoSide::kServer).Load();
  out.client = Counters(UdpIoSide::kClient).Load();
  return out;
}

void EnableArrivalStamps(int fd) {
  int on = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &on, sizeof(on));
}

void SetMmsgSyscallsForTest(RecvmmsgFn recv_fn, SendmmsgFn send_fn) {
  g_recvmmsg.store(recv_fn != nullptr ? recv_fn : &RealRecvmmsg, std::memory_order_release);
  g_sendmmsg.store(send_fn != nullptr ? send_fn : &RealSendmmsg, std::memory_order_release);
}

bool MmsgAvailable() { return g_mmsg_available.load(std::memory_order_acquire); }

void ResetMmsgAvailabilityForTest() { g_mmsg_available.store(true, std::memory_order_release); }

UdpRecvBatch::UdpRecvBatch(int capacity, size_t slot_bytes, UdpIoSide side)
    : capacity_(capacity < 1 ? 1 : capacity),
      slot_bytes_(slot_bytes < 1 ? 1 : slot_bytes),
      side_(side),
      arena_(static_cast<size_t>(capacity_) * slot_bytes_),
      frames_(static_cast<size_t>(capacity_)),
      msgs_(static_cast<size_t>(capacity_)),
      iovs_(static_cast<size_t>(capacity_)),
      control_(static_cast<size_t>(capacity_) * kControlWords) {}

int UdpRecvBatch::Recv(int fd) {
  arena_.Reset();
  uint8_t* slots = arena_.Allocate(static_cast<size_t>(capacity_) * slot_bytes_);
  for (int i = 0; i < capacity_; ++i) {
    UdpFrame& f = frames_[static_cast<size_t>(i)];
    f.peer = sockaddr_in{};
    iovs_[static_cast<size_t>(i)].iov_base = slots + static_cast<size_t>(i) * slot_bytes_;
    iovs_[static_cast<size_t>(i)].iov_len = slot_bytes_;
    // A zeroed header reads as "no control data" even when the receive
    // leaves msg_controllen untouched (an injected fake syscall).
    uint64_t* control = &control_[static_cast<size_t>(i) * kControlWords];
    std::memset(control, 0, sizeof(cmsghdr));
    mmsghdr& m = msgs_[static_cast<size_t>(i)];
    std::memset(&m, 0, sizeof(m));
    m.msg_hdr.msg_name = &f.peer;
    m.msg_hdr.msg_namelen = sizeof(f.peer);
    m.msg_hdr.msg_iov = &iovs_[static_cast<size_t>(i)];
    m.msg_hdr.msg_iovlen = 1;
    m.msg_hdr.msg_control = control;
    m.msg_hdr.msg_controllen = kControlBytes;
  }

  if (MmsgAvailable()) {
    RecvmmsgFn recv_fn = g_recvmmsg.load(std::memory_order_acquire);
    int n;
    do {
      n = recv_fn(fd, msgs_.data(), static_cast<unsigned int>(capacity_), MSG_WAITFORONE);
    } while (n < 0 && errno == EINTR);
    if (n >= 0) {
      Counters(side_).CountRecv(static_cast<uint64_t>(n));
      for (int i = 0; i < n; ++i) {
        frames_[static_cast<size_t>(i)].size = msgs_[static_cast<size_t>(i)].msg_len;
      }
      LandFrames(slots, n);
      return n;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return 0;
    }
    if (!IsUnsupportedErrno(errno)) {
      return -1;
    }
    g_mmsg_available.store(false, std::memory_order_release);
    // Fall through to the single-shot loop below.
  }

  // Single-shot fallback: the same frames, one recvmsg per datagram. The
  // first read may block (on a blocking socket); the rest never do, so a
  // drained queue ends the batch instead of stalling it.
  int count = 0;
  while (count < capacity_) {
    int flags = count == 0 ? MSG_TRUNC : (MSG_DONTWAIT | MSG_TRUNC);
    ssize_t n = recvmsg(fd, &msgs_[static_cast<size_t>(count)].msg_hdr, flags);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (count == 0) {
        return -1;
      }
      break;
    }
    Counters(side_).CountRecv(1);
    // With MSG_TRUNC, recvmsg reports the datagram's full length even when
    // the slot cut it short; LandFrames clamps it to the slot.
    frames_[static_cast<size_t>(count)].size = static_cast<size_t>(n);
    ++count;
  }
  LandFrames(slots, count);
  return count;
}

void UdpRecvBatch::LandFrames(uint8_t* slots, int count) {
  // One clock pair per batch converts the kernel's realtime stamps onto the
  // steady clock that deadlines live on; both are read only when needed.
  const int64_t steady_ns = count > 0 ? ClockNs(CLOCK_MONOTONIC) : 0;
  int64_t real_ns = 0;  // read at the first stamped frame
  for (int i = 0; i < count; ++i) {
    UdpFrame& f = frames_[static_cast<size_t>(i)];
    msghdr& hdr = msgs_[static_cast<size_t>(i)].msg_hdr;
    f.peer_len = hdr.msg_namelen;
    f.data = slots + static_cast<size_t>(i) * slot_bytes_;
    f.truncated = (hdr.msg_flags & MSG_TRUNC) != 0 || f.size > slot_bytes_;
    f.size = std::min(f.size, slot_bytes_);
    int64_t stamp_ns = KernelStampNs(&hdr);
    if (stamp_ns != 0 && real_ns == 0) {
      real_ns = ClockNs(CLOCK_REALTIME);
    }
    int64_t age_ns = stamp_ns != 0 ? std::max<int64_t>(0, real_ns - stamp_ns) : 0;
    f.arrival_ms = (steady_ns - age_ns) / 1000000;
  }
#if HCS_VIEW_DEBUG_ENABLED
  PoisonUnreceivedSpans(slots, slot_bytes_, frames_.data(), count, capacity_);
#endif
}

size_t SendReplies(int fd, std::vector<UdpReply>& replies, UdpIoSide side) {
  if (replies.empty()) {
    return 0;
  }

  if (MmsgAvailable()) {
    std::vector<mmsghdr> msgs(replies.size());
    std::vector<iovec> iovs(replies.size());
    for (size_t i = 0; i < replies.size(); ++i) {
      iovs[i].iov_base = replies[i].payload.data();
      iovs[i].iov_len = replies[i].payload.size();
      std::memset(&msgs[i], 0, sizeof(msgs[i]));
      msgs[i].msg_hdr.msg_name = &replies[i].peer;
      msgs[i].msg_hdr.msg_namelen = replies[i].peer_len;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    size_t sent = 0;
    SendmmsgFn send_fn = g_sendmmsg.load(std::memory_order_acquire);
    while (sent < replies.size()) {
      int n = send_fn(fd, msgs.data() + sent, static_cast<unsigned int>(replies.size() - sent),
                      MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (IsUnsupportedErrno(errno)) {
          g_mmsg_available.store(false, std::memory_order_release);
          break;  // resume from `sent` on the single-shot path below
        }
        // EAGAIN or a hard error mid-batch: abandon the remainder (UDP
        // drop semantics); the caller accounts for the shortfall.
        return sent;
      }
      Counters(side).CountSend(static_cast<uint64_t>(n));
      sent += static_cast<size_t>(n);
    }
    if (sent == replies.size()) {
      return sent;
    }
    // Unsupported: finish the batch single-shot, starting where sendmmsg
    // left off.
    size_t done = sent;
    for (size_t i = done; i < replies.size(); ++i) {
      if (sendto(fd, replies[i].payload.data(), replies[i].payload.size(), 0,
                 reinterpret_cast<const sockaddr*>(&replies[i].peer), replies[i].peer_len) < 0) {
        return done;
      }
      Counters(side).CountSend(1);
      ++done;
    }
    return done;
  }

  size_t done = 0;
  for (const UdpReply& reply : replies) {
    ssize_t n;
    do {
      n = sendto(fd, reply.payload.data(), reply.payload.size(), 0,
                 reinterpret_cast<const sockaddr*>(&reply.peer), reply.peer_len);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return done;
    }
    Counters(side).CountSend(1);
    ++done;
  }
  return done;
}

UdpClientSocket::UdpClientSocket() : inbox_(/*capacity=*/1, kMaxDatagram, UdpIoSide::kClient) {}

UdpClientSocket::~UdpClientSocket() { Close(); }

UdpClientSocket& UdpClientSocket::ForThisThread() {
  thread_local UdpClientSocket socket;
  return socket;
}

Status UdpClientSocket::Open() {
  if (fd_ >= 0) {
    return Status::Ok();
  }
  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return UnavailableError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  return Status::Ok();
}

void UdpClientSocket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
    timeout_ms_ = 0;
  }
}

Result<size_t> UdpClientSocket::Send(std::vector<UdpReply>& datagrams) {
  HCS_RETURN_IF_ERROR(Open());
  return SendReplies(fd_, datagrams, UdpIoSide::kClient);
}

Result<UdpFrame*> UdpClientSocket::Receive(int64_t timeout_ms) {
  HCS_RETURN_IF_ERROR(Open());
  timeout_ms = std::max<int64_t>(timeout_ms, 1);  // 0 would mean "block forever"
  if (timeout_ms != timeout_ms_) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    if (setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0) {
      return UnavailableError(StrFormat("setsockopt(SO_RCVTIMEO): %s", std::strerror(errno)));
    }
    timeout_ms_ = timeout_ms;
  }
  const int count = inbox_.Recv(fd_);
  if (count < 0) {
    return UnavailableError(StrFormat("recvmmsg(): %s", std::strerror(errno)));
  }
  return count == 0 ? nullptr : &inbox_.frame(0);
}

}  // namespace hcs
