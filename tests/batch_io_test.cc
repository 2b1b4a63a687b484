// Batched UDP I/O and the serve loop built on it (ctest label
// `concurrency`; run under -DHCS_SANITIZE=thread too): the
// recvmmsg/sendmmsg wrappers, their single-shot fallback,
// partial-completion handling, truncation inside a batch, per-frame (never
// per-batch) fault decisions, kernel arrival stamps, zero-byte datagrams,
// concurrent loops on one socket, and the server/client split of the
// syscall counters. Syscall fakes are injected with SetMmsgSyscallsForTest
// so ENOSYS/EAGAIN/partial cases are deterministic, not host-dependent.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/arena.h"
#include "src/rpc/async_client.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"

namespace hcs {
namespace {

// --- Arena ------------------------------------------------------------------

TEST(ArenaTest, AllocateAlignAndGrow) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);

  uint8_t* a = arena.Allocate(10);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0xab, 10);
  uint8_t* b = arena.Allocate(1, 64);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_GE(arena.bytes_used(), 11u);

  // Force growth past the first block; earlier memory stays valid and
  // intact until Reset.
  uint8_t* big = arena.Allocate(1 << 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xcd, 1 << 16);
  EXPECT_EQ(a[0], 0xab);
  EXPECT_GE(arena.bytes_capacity(), (1u << 16));
}

TEST(ArenaTest, ResetCoalescesToHighWaterBlock) {
  Arena arena(64);
  (void)arena.Allocate(64);
  (void)arena.Allocate(4096);  // second block
  size_t high_water = arena.bytes_capacity();
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  // After Reset the high-water capacity is one contiguous block: an
  // allocation of the full prior footprint must not grow capacity.
  uint8_t* p = arena.Allocate(high_water);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.bytes_capacity(), high_water);
}

// --- Socket helpers ---------------------------------------------------------

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// Binds an ephemeral loopback UDP socket of `type` (SOCK_DGRAM, possibly
// | SOCK_NONBLOCK); aborts the test on failure.
int BindUdp(uint16_t* port_out, int type = SOCK_DGRAM) {
  int fd = socket(AF_INET, type, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = Loopback(0);
  EXPECT_EQ(bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port_out = ntohs(addr.sin_port);
  return fd;
}

void SendTo(int fd, uint16_t port, const Bytes& payload) {
  sockaddr_in addr = Loopback(port);
  ASSERT_EQ(sendto(fd, payload.data(), payload.size(), 0,
                   reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            static_cast<ssize_t>(payload.size()));
}

// Waits up to a second for a datagram to be queued on `fd`.
bool WaitReadable(int fd) {
  pollfd readable{fd, POLLIN, 0};
  return poll(&readable, 1, 1000) == 1;
}

// --- UdpRecvBatch over real sockets -----------------------------------------

TEST(BatchIoTest, PartialBatchLandsQueuedDatagrams) {
  uint16_t port = 0;
  // Nonblocking: the last read must find the queue empty, not wait on it.
  int fd = BindUdp(&port, SOCK_DGRAM | SOCK_NONBLOCK);
  int sender = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  SendTo(sender, port, Bytes{1});
  SendTo(sender, port, Bytes{2, 2});
  SendTo(sender, port, Bytes{3, 3, 3});

  UdpRecvBatch batch(16, 512, UdpIoSide::kServer);
  // Once something is queued, a receive returns what is there — here all
  // three, well short of capacity.
  ASSERT_TRUE(WaitReadable(fd));
  int n = batch.Recv(fd);
  int total = n;
  // The kernel may deliver the burst across polls; sweep until all three.
  while (total < 3) {
    ASSERT_TRUE(WaitReadable(fd));
    UdpRecvBatch more(16, 512, UdpIoSide::kServer);
    int m = more.Recv(fd);
    ASSERT_GT(m, 0);
    total += m;
  }
  EXPECT_EQ(total, 3);
  ASSERT_GE(n, 1);
  EXPECT_EQ(batch.frame(0).size, 1u);
  EXPECT_EQ(batch.frame(0).data[0], 1);
  EXPECT_FALSE(batch.frame(0).truncated);

  // Nothing left: a batch read on the nonblocking socket reports zero
  // frames instead of waiting.
  UdpRecvBatch empty(16, 512, UdpIoSide::kServer);
  EXPECT_EQ(empty.Recv(fd), 0);
  close(sender);
  close(fd);
}

TEST(BatchIoTest, OversizedDatagramIsFlaggedTruncatedOthersSurvive) {
  uint16_t port = 0;
  int fd = BindUdp(&port);
  int sender = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  SendTo(sender, port, Bytes(100, 0xee));  // exceeds the 16-byte slot
  SendTo(sender, port, Bytes{7, 8, 9});

  UdpRecvBatch batch(8, 16, UdpIoSide::kServer);
  int total = 0;
  bool saw_truncated = false, saw_small = false;
  while (total < 2) {
    int n = batch.Recv(fd);
    ASSERT_GT(n, 0);
    for (int i = 0; i < n; ++i) {
      if (batch.frame(i).truncated) {
        saw_truncated = true;
        EXPECT_EQ(batch.frame(i).size, 16u);  // cut to the slot
      } else {
        saw_small = true;
        EXPECT_EQ(batch.frame(i).size, 3u);
        EXPECT_EQ(batch.frame(i).data[0], 7);
      }
    }
    total += n;
  }
  EXPECT_TRUE(saw_truncated);
  EXPECT_TRUE(saw_small);
  close(sender);
  close(fd);
}

// --- Injected syscall failures ----------------------------------------------

int FailEnosysRecvmmsg(int, mmsghdr*, unsigned int, int) {
  errno = ENOSYS;
  return -1;
}

int FailEnosysSendmmsg(int, mmsghdr*, unsigned int, int) {
  errno = ENOSYS;
  return -1;
}

// Accepts at most one message per call: every SendReplies batch completes
// only through repeated partial-completion consumption.
int OneAtATimeSendmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  return sendmmsg(fd, msgs, vlen > 0 ? 1 : 0, flags);
}

std::atomic<int> g_eagain_after{0};

// Accepts one message, then reports EAGAIN for the rest of the batch.
int EagainAfterOneSendmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  if (g_eagain_after.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    errno = EAGAIN;
    return -1;
  }
  return sendmmsg(fd, msgs, vlen > 0 ? 1 : 0, flags);
}

class MmsgFakeGuard {
 public:
  MmsgFakeGuard(RecvmmsgFn recv_fn, SendmmsgFn send_fn) {
    SetMmsgSyscallsForTest(recv_fn, send_fn);
  }
  ~MmsgFakeGuard() {
    SetMmsgSyscallsForTest(nullptr, nullptr);
    ResetMmsgAvailabilityForTest();
  }
};

TEST(BatchIoTest, EnosysRecvFlipsToSingleShotFallbackPermanently) {
  MmsgFakeGuard guard(&FailEnosysRecvmmsg, &FailEnosysSendmmsg);

  uint16_t port = 0;
  int fd = BindUdp(&port);
  int sender = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(sender, 0);
  SendTo(sender, port, Bytes{4, 5});

  ASSERT_TRUE(MmsgAvailable());
  UdpRecvBatch batch(8, 512, UdpIoSide::kServer);
  int n = batch.Recv(fd);
  // The ENOSYS recvmmsg flipped availability and the same Recv call
  // finished the job over recvfrom — identical frames, no caller retry.
  ASSERT_EQ(n, 1);
  EXPECT_FALSE(MmsgAvailable());
  EXPECT_EQ(batch.frame(0).size, 2u);
  EXPECT_EQ(batch.frame(0).data[0], 4);

  // Sends also run single-shot now, with the same completion accounting.
  std::vector<UdpReply> replies(2);
  for (size_t i = 0; i < replies.size(); ++i) {
    replies[i].peer = Loopback(port);
    replies[i].peer_len = sizeof(sockaddr_in);
    replies[i].payload = Bytes{static_cast<uint8_t>(i)};
  }
  EXPECT_EQ(SendReplies(sender, replies, UdpIoSide::kServer), 2u);
  close(sender);
  close(fd);
}

TEST(BatchIoTest, SendRepliesConsumesPartialCompletions) {
  MmsgFakeGuard guard(nullptr, &OneAtATimeSendmmsg);

  uint16_t port = 0;
  int rx = BindUdp(&port);
  int tx = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(tx, 0);

  std::vector<UdpReply> replies(5);
  for (size_t i = 0; i < replies.size(); ++i) {
    replies[i].peer = Loopback(port);
    replies[i].peer_len = sizeof(sockaddr_in);
    replies[i].payload = Bytes{static_cast<uint8_t>(i + 1)};
  }
  // Each fake call accepts one datagram; SendReplies must resume from the
  // first unsent message until the whole batch is out.
  EXPECT_EQ(SendReplies(tx, replies, UdpIoSide::kServer), 5u);

  std::vector<bool> seen(6, false);
  for (int i = 0; i < 5; ++i) {
    uint8_t buf[8];
    ssize_t n = recv(rx, buf, sizeof(buf), 0);
    ASSERT_EQ(n, 1);
    seen[buf[0]] = true;
  }
  for (int v = 1; v <= 5; ++v) {
    EXPECT_TRUE(seen[static_cast<size_t>(v)]) << "datagram " << v << " missing";
  }
  close(tx);
  close(rx);
}

TEST(BatchIoTest, EagainMidBatchAbandonsRemainderAndReportsCount) {
  g_eagain_after.store(1, std::memory_order_relaxed);
  MmsgFakeGuard guard(nullptr, &EagainAfterOneSendmmsg);

  uint16_t port = 0;
  int rx = BindUdp(&port);
  int tx = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(tx, 0);

  std::vector<UdpReply> replies(4);
  for (size_t i = 0; i < replies.size(); ++i) {
    replies[i].peer = Loopback(port);
    replies[i].peer_len = sizeof(sockaddr_in);
    replies[i].payload = Bytes{static_cast<uint8_t>(i + 1)};
  }
  // One accepted, then EAGAIN: the shortfall is the caller's to account —
  // exactly the count contract tools/lint_failpaths.py enforces at raw
  // call sites.
  EXPECT_EQ(SendReplies(tx, replies, UdpIoSide::kServer), 1u);
  close(tx);
  close(rx);
}

// --- Batched serving: truncation, fault decisions, end-to-end ---------------

Bytes EncodeEchoCall(uint32_t xid, const Bytes& args) {
  RpcCall call;
  call.xid = xid;
  call.program = 7;
  call.version = 2;
  call.procedure = 1;
  call.args = args;
  return GetControlProtocol(ControlKind::kSunRpc).EncodeCall(call);
}

// Fires `count` requests at `port` from one socket without waiting between
// sends (so the server's recvmmsg sees real multi-frame batches), then
// counts the replies.
int BurstEcho(uint16_t port, int count) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{2, 0};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  for (int i = 0; i < count; ++i) {
    Bytes frame = EncodeEchoCall(static_cast<uint32_t>(i + 1), Bytes{0xaa});
    sockaddr_in addr = Loopback(port);
    EXPECT_EQ(sendto(fd, frame.data(), frame.size(), 0, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              static_cast<ssize_t>(frame.size()));
  }
  int replies = 0;
  std::vector<uint8_t> buf(2048);
  while (replies < count) {
    ssize_t n = recv(fd, buf.data(), buf.size(), 0);
    if (n < 0) {
      break;  // timeout: report what arrived
    }
    ++replies;
  }
  close(fd);
  return replies;
}

// An echo service on one serve loop: a serial one, which takes up to
// UdpServerHost::kSerialRecvBatch datagrams per receive, or a one-loop
// ServeConcurrent endpoint, which takes one.
class EchoServerFixture {
 public:
  explicit EchoServerFixture(bool concurrent = false)
      : host_(/*workers=*/1), server_(ControlKind::kSunRpc, "batch-echo") {
    server_.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
      return args.ToBytes();
    });
    Result<uint16_t> port = concurrent ? host_.ServeConcurrent(&server_, 0)
                                       : host_.Serve(&server_, 0);
    EXPECT_TRUE(port.ok()) << port.status();
    port_ = port.ok() ? *port : 0;
  }

  uint16_t port() const { return port_; }
  UdpServerHost& host() { return host_; }

 private:
  UdpServerHost host_;
  RpcServer server_;
  uint16_t port_ = 0;
};

TEST(BatchIoTest, BatchedEchoRoundTrips) {
  EchoServerFixture fixture;
  EXPECT_EQ(BurstEcho(fixture.port(), 32), 32);
  fixture.host().StopAll();
}

// The size of the one datagram TruncatingRecvmmsg marks, and how many
// frames it has marked.
std::atomic<size_t> g_truncate_size{0};
std::atomic<int> g_truncated_frames{0};

// The real recvmmsg, then MSG_TRUNC on every landed frame of exactly
// g_truncate_size bytes: the kernel's report of a datagram cut to its slot,
// which no real datagram can draw from a kMaxDatagram slot.
int TruncatingRecvmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  int n = recvmmsg(fd, msgs, vlen, flags, nullptr);
  for (int i = 0; i < n; ++i) {
    if (msgs[i].msg_len == g_truncate_size.load()) {
      msgs[i].msg_hdr.msg_flags |= MSG_TRUNC;
      g_truncated_frames.fetch_add(1);
    }
  }
  return n;
}

TEST(BatchIoTest, OversizedDatagramInBatchIsDroppedNeighborsAnswered) {
  // A well-formed echo call the fake marks truncated: only the truncation
  // check stands between it and an answer.
  Bytes marked = EncodeEchoCall(999, Bytes(1000, 0x5a));
  g_truncate_size.store(marked.size());
  g_truncated_frames.store(0);
  MmsgFakeGuard guard(&TruncatingRecvmmsg, nullptr);
  EchoServerFixture fixture;

  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = Loopback(fixture.port());
  ASSERT_EQ(sendto(fd, marked.data(), marked.size(), 0, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            static_cast<ssize_t>(marked.size()));

  // The truncated frame is dropped (counted), its batch neighbors answer.
  EXPECT_EQ(BurstEcho(fixture.port(), 16), 16);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  uint64_t dropped = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    dropped = fixture.host().dropped_by_endpoint()[fixture.port()];
    if (dropped >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(dropped, 1u);
  EXPECT_EQ(dropped, 1u) << "only the marked frame may be dropped";
  EXPECT_EQ(g_truncated_frames.load(), 1);
  // Nothing answered the marked call.
  timeval tv{0, 100 * 1000};
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  uint8_t buf[16];
  EXPECT_LT(recv(fd, buf, sizeof(buf), 0), 0) << "a truncated frame was answered";
  close(fd);
  fixture.host().StopAll();
}

TEST(BatchIoTest, FaultDecisionsArePerFrameNotPerBatch) {
  FaultConfig config;
  config.seed = 20260808;
  FaultPlan plan;
  plan.endpoint = "local";  // every local serve port
  FaultPhase phase;
  phase.spec.drop = 1.0;  // drop everything: decisions == frames is provable
  plan.phases.push_back(phase);
  config.plans.push_back(plan);
  FaultInjector injector(config);
  InstallGlobalFaultInjector(&injector);

  EchoServerFixture fixture;
  constexpr int kFrames = 24;
  // All dropped: BurstEcho gets zero replies back.
  EXPECT_EQ(BurstEcho(fixture.port(), kFrames), 0);

  // Every frame of every batch must have drawn its own decision; a
  // per-batch decision would leave decisions well short of kFrames.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  FaultStats stats;
  while (std::chrono::steady_clock::now() < deadline) {
    stats = injector.stats();
    if (stats.decisions >= kFrames) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stats.decisions, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(stats.server_drops, static_cast<uint64_t>(kFrames));
  fixture.host().StopAll();
  InstallGlobalFaultInjector(nullptr);
}

TEST(BatchIoTest, DecisionSequenceMatchesSingleShotServing) {
  // The same traffic against a batching serial loop and a one-loop
  // concurrent endpoint (one datagram per receive) must consume identical
  // per-endpoint decision streams: pure function of (seed, endpoint,
  // sequence), independent of batch geometry. Serve both one after the
  // other and compare traces.
  auto run = [](bool concurrent, std::vector<std::string>* trace_out) {
    FaultConfig config;
    config.seed = 7;
    FaultPlan plan;
    plan.endpoint = "local";
    FaultPhase phase;
    phase.spec.drop = 1.0;  // swallow everything: no replies to wait on
    plan.phases.push_back(phase);
    config.plans.push_back(plan);
    FaultInjector injector(config);
    injector.set_trace_enabled(true);
    InstallGlobalFaultInjector(&injector);

    EchoServerFixture fixture(concurrent);
    EXPECT_EQ(BurstEcho(fixture.port(), 12), 0);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline &&
           injector.stats().decisions < 12) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    fixture.host().StopAll();
    InstallGlobalFaultInjector(nullptr);
    // Traces are "endpoint#sequence:flags"; strip the port (ephemeral,
    // differs between the two servers) down to "#sequence:flags".
    std::vector<std::string> trace = injector.TakeTrace();
    for (std::string& line : trace) {
      size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line = line.substr(hash);
      }
    }
    *trace_out = trace;
  };

  std::vector<std::string> batched, single;
  run(/*concurrent=*/false, &batched);
  run(/*concurrent=*/true, &single);
  ASSERT_EQ(batched.size(), 12u);
  EXPECT_EQ(batched, single);
}

// --- The serve loop ----------------------------------------------------------

TEST(ServeLoopTest, ConcurrentLoopsOverlapSlowHandlersAndStopAllJoinsThem) {
  constexpr int kLoops = 4;
  constexpr int kHandlerMs = 100;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  RpcServer server(ControlKind::kSunRpc, "slow-echo");
  server.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(kHandlerMs));
    finished.fetch_add(1);
    return args.ToBytes();
  });
  UdpServerHost host(/*workers=*/kLoops);
  Result<uint16_t> port = host.ServeConcurrent(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  // One request per loop: served one at a time they would take 400 ms.
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(BurstEcho(*port, kLoops), kLoops);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(elapsed, 2 * kHandlerMs) << "the loops did not serve the requests side by side";

  // A request still in its handler when StopAll runs: StopAll must wait for
  // that loop (and wake the idle ones) before it returns.
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  Bytes call = EncodeEchoCall(99, Bytes{0x01});
  sockaddr_in addr = Loopback(*port);
  ASSERT_EQ(sendto(fd, call.data(), call.size(), 0, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            static_cast<ssize_t>(call.size()));
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (started.load() < kLoops + 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(started.load(), kLoops + 1) << "the request never reached its handler";
  host.StopAll();
  EXPECT_EQ(finished.load(), kLoops + 1) << "StopAll returned before a loop finished";
  EXPECT_TRUE(host.dropped_by_endpoint().empty()) << "StopAll must release the endpoint";
  close(fd);

  // The socket is closed: its port can be bound again.
  int rebind = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(rebind, 0);
  EXPECT_EQ(bind(rebind, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  close(rebind);
}

TEST(ServeLoopTest, ZeroByteDatagramsGetNoFaultDecisionAndNoDrop) {
  FaultConfig config;
  config.seed = 11;
  FaultPlan plan;
  plan.endpoint = "local";
  plan.phases.push_back(FaultPhase{});  // decides every frame, injects nothing
  config.plans.push_back(plan);
  FaultInjector injector(config);
  InstallGlobalFaultInjector(&injector);

  EchoServerFixture fixture;
  constexpr uint64_t kEmpty = 10;
  const uint64_t received_before = SnapshotUdpIoCounters().server.recv_datagrams;
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = Loopback(fixture.port());
  for (uint64_t i = 0; i < kEmpty; ++i) {
    ASSERT_EQ(sendto(fd, nullptr, 0, 0, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  close(fd);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (SnapshotUdpIoCounters().server.recv_datagrams - received_before < kEmpty &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The loop has received every zero-byte datagram; it answers this echo
  // only after it has finished with them.
  EXPECT_EQ(BurstEcho(fixture.port(), 1), 1);
  EXPECT_EQ(injector.stats().decisions, 1u) << "only the echo call may draw a decision";
  EXPECT_EQ(fixture.host().dropped_by_endpoint()[fixture.port()], 0u);
  fixture.host().StopAll();
  InstallGlobalFaultInjector(nullptr);
}

constexpr int kLandingDelayMs = 30;

// The real recvmmsg, then a pause before the frames are handed back, with
// the control data (and so the kernel's arrival stamp) stripped.
int UnstampedSlowRecvmmsg(int fd, mmsghdr* msgs, unsigned int vlen, int flags) {
  int n = recvmmsg(fd, msgs, vlen, flags, nullptr);
  if (n > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kLandingDelayMs));
    for (int i = 0; i < n; ++i) {
      msgs[i].msg_hdr.msg_controllen = 0;
    }
  }
  return n;
}

TEST(ServeLoopTest, FrameWithoutKernelStampIsStampedWhenReceived) {
  MmsgFakeGuard guard(&UnstampedSlowRecvmmsg, nullptr);
  std::atomic<int64_t> seen_arrival{0};
  RpcServer server(ControlKind::kSunRpc, "stamp-echo");
  server.RegisterProcedure(7, 1, [&](BytesView args) -> Result<Bytes> {
    seen_arrival.store(CurrentReceiveTimestampMs());
    return args.ToBytes();
  });
  UdpServerHost host;
  Result<uint16_t> port = host.Serve(&server, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  int64_t sent_ms = SteadyNowMs();
  EXPECT_EQ(BurstEcho(*port, 1), 1) << "an unstamped frame must still be served";
  int64_t answered_ms = SteadyNowMs();
  // No kernel stamp: the arrival time is when Recv landed the frame, after
  // the fake's pause, not when the datagram reached the socket.
  EXPECT_GE(seen_arrival.load(), sent_ms + kLandingDelayMs);
  EXPECT_LE(seen_arrival.load(), answered_ms);
  host.StopAll();
}

// A serve loop counts its replies once sendmmsg returns, so a caller-run
// client can hold a reply before the server side has counted it. Waits (up
// to 2 s) until the server has counted `want` sent datagrams since `base`.
void WaitForServerSends(const UdpIoSnapshot& base, uint64_t want) {
  for (int i = 0; i < 2000 && SnapshotUdpIoCounters().server.send_datagrams -
                                      base.server.send_datagrams < want;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ServeLoopTest, SyscallCountersSplitServerAndClientSides) {
  constexpr int kCalls = 20;
  EchoServerFixture fixture;
  HrpcBinding binding;
  binding.service_name = "batch-echo";
  binding.host = "localhost";
  binding.port = fixture.port();
  binding.program = 7;
  binding.version = 2;
  binding.control = ControlKind::kSunRpc;
  binding.transport = TransportKind::kUdp;
  UdpTransport transport;
  RpcClient client(/*world=*/nullptr, "localclient", &transport);
  AsyncClientEngine engine;
  client.set_async_engine(&engine);
  // Opens this thread's client socket outside the counted window.
  const UdpIoSnapshot warm = SnapshotUdpIoCounters();
  ASSERT_TRUE(client.Call(binding, 1, Bytes{0}).ok());
  WaitForServerSends(warm, 1);

  UdpIoSnapshot before = SnapshotUdpIoCounters();
  std::vector<RpcClient::Request> requests;
  for (int i = 0; i < kCalls; ++i) {
    requests.push_back(RpcClient::Request{binding, 1, Bytes{static_cast<uint8_t>(i)}, {}});
  }
  for (const Result<Bytes>& reply : client.CallMany(requests)) {
    ASSERT_TRUE(reply.ok());
  }
  WaitForServerSends(before, kCalls);
  UdpIoSnapshot after = SnapshotUdpIoCounters();
  EXPECT_EQ(after.server.recv_datagrams - before.server.recv_datagrams, uint64_t{kCalls});
  EXPECT_EQ(after.server.send_datagrams - before.server.send_datagrams, uint64_t{kCalls});
  EXPECT_EQ(after.client.send_datagrams - before.client.send_datagrams, uint64_t{kCalls});
  EXPECT_EQ(after.client.recv_datagrams - before.client.recv_datagrams, uint64_t{kCalls});
  // The batch left in one sendmmsg.
  EXPECT_EQ(after.client.send_syscalls - before.client.send_syscalls, 1u);
  fixture.host().StopAll();
  client.set_async_engine(nullptr);
}

}  // namespace
}  // namespace hcs
