// Batched UDP I/O: recvmmsg/sendmmsg wrappers shared by UdpServerHost's
// serve loops and each thread's blocking client socket (UdpClientSocket,
// below), which carries every UDP call: they all run on their caller. One
// syscall moves up to a batch of datagrams in
// either direction; each received frame is a view into the batch's arena
// (src/common/arena.h), so decode and dispatch run without a per-datagram
// copy. Outside this file's .cc no code in src/ may call a datagram
// syscall without a tagged reason (tools/lint_failpaths.py rule 8).
//
// Availability and fallback. The first recvmmsg/sendmmsg that fails with
// ENOSYS (or EINVAL from an emulation layer that rejects the vectors) flips
// a process-global flag and every subsequent batch call degrades to a
// recvmsg/sendto loop with identical semantics — same frames, same order,
// same partial-completion accounting — so the serving runtimes never need a
// second code path.
//
// Arrival time. Each frame carries the steady-clock time the kernel
// received it, taken from the SO_TIMESTAMPNS stamp when the socket asked
// for one (EnableArrivalStamps), so time a request waits in the socket
// queue counts against its budget. A message without a stamp is stamped
// when Recv lands it.
//
// Partial completion is the contract, not an error: Recv returns however
// many datagrams were ready, SendReplies returns how many datagrams the
// kernel accepted. Callers MUST consume those counts
// (tools/lint_failpaths.py enforces this for raw recvmmsg/sendmmsg calls).
//
// Tests inject fake syscalls (SetMmsgSyscallsForTest) to exercise ENOSYS
// fallback, partial sends, and EAGAIN mid-batch deterministically.

#ifndef HCS_SRC_RPC_MMSG_H_
#define HCS_SRC_RPC_MMSG_H_

#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/common/bytes.h"
#include "src/common/result.h"

namespace hcs {

// The most attempts one CallMany batch keeps in flight.
constexpr int kMaxUdpBatch = 64;

// The largest UDP payload IPv4 can carry (65,535 less the IP and UDP
// headers): every receive slot's size, and the largest call the UDP client
// will send.
constexpr size_t kMaxDatagram = 65507;

// --- Syscall counters (relaxed; bench_runner derives syscalls/req) ---------
// Every server and client datagram syscall goes through these wrappers, so
// the counters are complete; each call names the side it counts toward.
enum class UdpIoSide {
  kServer,  // UdpServerHost's serve loops
  kClient,  // UdpClientSocket, which carries every client call
};
struct UdpIoCounts {
  uint64_t recv_syscalls = 0;
  uint64_t recv_datagrams = 0;
  uint64_t send_syscalls = 0;
  uint64_t send_datagrams = 0;
};
struct UdpIoSnapshot {
  UdpIoCounts server;
  UdpIoCounts client;
};
UdpIoSnapshot SnapshotUdpIoCounters();

// Asks the kernel to stamp every datagram `fd` receives (SO_TIMESTAMPNS).
// The kernel turns stamping on asynchronously, so datagrams in the first
// few milliseconds may be stamped only when they are received.
void EnableArrivalStamps(int fd);

// --- Test injection ---------------------------------------------------------
using RecvmmsgFn = int (*)(int fd, mmsghdr* msgs, unsigned int vlen, int flags);
using SendmmsgFn = int (*)(int fd, mmsghdr* msgs, unsigned int vlen, int flags);
// Replaces the batched syscalls (nullptr restores the real ones). Tests
// pair this with restoration in their teardown.
void SetMmsgSyscallsForTest(RecvmmsgFn recv_fn, SendmmsgFn send_fn);
// False once a batched syscall reported it is unsupported; every batch call
// then uses the single-shot fallback.
bool MmsgAvailable();
void ResetMmsgAvailabilityForTest();

// One received datagram: a view into the owning batch's arena, valid until
// the next Recv() on that batch (DESIGN.md §13 lifetime rules). `data` is
// writable — the fault injector corrupts frames in place.
struct UdpFrame {
  sockaddr_in peer{};
  socklen_t peer_len = 0;
  uint8_t* data = nullptr;
  size_t size = 0;
  // The datagram exceeded the batch's slot size and was cut short by the
  // kernel (MSG_TRUNC). Callers drop such frames — a truncated RPC would
  // decode as garbage anyway.
  bool truncated = false;
  // Steady-clock ms at which the kernel received the datagram: its
  // SO_TIMESTAMPNS stamp converted from the realtime clock, or the time of
  // the Recv call when the message carried no stamp.
  int64_t arrival_ms = 0;
};

// A reusable receive batch: `capacity` slots of `slot_bytes` each, landed
// in one arena block per Recv, counted toward `side`.
class UdpRecvBatch {
 public:
  UdpRecvBatch(int capacity, size_t slot_bytes, UdpIoSide side);

  UdpRecvBatch(const UdpRecvBatch&) = delete;
  UdpRecvBatch& operator=(const UdpRecvBatch&) = delete;

  // Receives up to capacity() datagrams. The first read waits for a
  // datagram as the socket allows: a blocking socket blocks (until its
  // SO_RCVTIMEO, when set), a nonblocking one does not. Later reads never
  // wait, so a drained queue ends the batch. Returns the number of frames
  // landed (0 = nothing ready), or -1 on a hard socket error (errno
  // preserved). Invalidates the previous Recv's frames.
  int Recv(int fd);

  int capacity() const { return capacity_; }
  size_t slot_bytes() const { return slot_bytes_; }
  UdpFrame& frame(int i) { return frames_[static_cast<size_t>(i)]; }

  // The arena backing this batch's frames, exposed for the view-lifetime
  // debug binding (ScopedArenaViewBinding) and its generation counter —
  // NOT for allocating into. Dispatch code must treat the batch as the
  // sole owner of this arena (DESIGN.md §13 rule L2).
  Arena* debug_arena() { return &arena_; }

 private:
  // Fills the landed frames' fields from their message headers.
  void LandFrames(uint8_t* slots, int count);

  const int capacity_;
  const size_t slot_bytes_;
  const UdpIoSide side_;
  Arena arena_;
  std::vector<UdpFrame> frames_;
  std::vector<mmsghdr> msgs_;
  std::vector<iovec> iovs_;
  // Per-slot control buffers for the SO_TIMESTAMPNS stamp.
  std::vector<uint64_t> control_;
};

// One staged reply. `payload` is owned (encode targets move into it).
struct UdpReply {
  sockaddr_in peer{};
  socklen_t peer_len = 0;
  Bytes payload;
};

// Sends `replies` with as few sendmmsg calls as possible, consuming partial
// completions (a short count resumes from the first unsent message).
// Returns how many datagrams the kernel accepted; on EAGAIN or a hard error
// mid-batch the remainder is abandoned — UDP semantics, the caller counts
// the shortfall as drops and the peer retries. Counted toward `side`.
size_t SendReplies(int fd, std::vector<UdpReply>& replies, UdpIoSide side);

// The calling thread's blocking client datagram socket, opened on first use
// and reused across calls. It carries every UDP call, each on its caller:
// RpcClient::Call and CallMany (AsyncClientEngine::CallManyOnCaller). Sends
// and receives go through the wrappers above, counted toward
// UdpIoSide::kClient. A datagram an earlier call left queued (a duplicate
// reply, or one that outlived its attempt) is what the next Receive
// returns first; the xid-matched path skips it and counts it unmatched.
class UdpClientSocket {
 public:
  static UdpClientSocket& ForThisThread();

  ~UdpClientSocket();
  UdpClientSocket(const UdpClientSocket&) = delete;
  UdpClientSocket& operator=(const UdpClientSocket&) = delete;

  // Sends the staged `datagrams` with one SendReplies, opening the socket
  // when needed, and returns how many the kernel accepted; the shortfall
  // is a drop.
  HCS_NODISCARD Result<size_t> Send(std::vector<UdpReply>& datagrams);

  // Waits up to `timeout_ms` (at least 1 ms) for one datagram and returns
  // its frame, valid until the next receive; nullptr when none arrived in
  // time, kUnavailable on a socket error.
  HCS_NODISCARD Result<UdpFrame*> Receive(int64_t timeout_ms);

  // Closes the socket, dropping whatever is queued on it. The next Send
  // opens a new one on a new port.
  void Close();

 private:
  UdpClientSocket();
  HCS_NODISCARD Status Open();

  int fd_ = -1;
  int64_t timeout_ms_ = 0;  // the SO_RCVTIMEO in force; 0 = not set yet
  UdpRecvBatch inbox_;      // one slot, the size of any datagram
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_MMSG_H_
