// The UDP client core. Every UDP call runs on its caller's thread, over that
// thread's UdpClientSocket (src/rpc/mmsg.h): RpcClient::Call is a batch of
// one, RpcClient::CallMany a batch of many, and both end in
// AsyncClientEngine::CallManyOnCaller, the only client path over real
// sockets. Calling threads share nothing but the engine's counters.
//
// A batch keeps at most kMaxUdpBatch attempts in flight. Every attempt that
// is due leaves in one sendmmsg, and the caller then receives until the
// nearest attempt deadline, held-send time or backoff end. A datagram
// answers the open call of the batch whose port, control protocol and
// masked xid it matches, among the calls that have sent an attempt (a call
// waiting out its backoff included); every other datagram is dropped and
// counted unmatched. All calls on a thread draw their xids from one
// per-thread sequence, and a batch's xids are consecutive, so a datagram an
// earlier call left queued cannot answer a later one.
//
// Before any send, a call larger than one datagram (kMaxDatagram) fails
// kResourceExhausted with no attempt made. Client-side fault injection
// happens here too: a channel spec that carries a FaultInjector
// (FaultInjectingTransport's) has one decision drawn per attempt, as the
// attempt starts. A blackhole fails the attempt kUnavailable at once; a drop
// sends nothing, so the attempt ends by its deadline; a delay or reorder
// holds that call's copies, and a hold whose attempt ends first is
// discarded; a corruption flips bits in the encoded call; a duplicate sends
// the call twice, and the extra reply is counted unmatched.
//
// Retry semantics (RetryPolicy, the one retry schedule in the tree): a call
// whose effective context has a deadline runs budgeted attempts (per-attempt
// budget doubling from kAttemptBaseMs, capped by the remaining budget and
// the transport's default timeout) with jittered exponential backoff
// between; kTimeout/kUnavailable retry, anything else — including an
// application error carried in a decoded reply — ends the call. A retry is
// counted when its attempt starts, so retries + 1 == attempts for every call
// that sent. Each attempt's deadline is capped by the remaining budget, and
// expiry between attempts ends the call kTimeout.

#ifndef HCS_SRC_RPC_ASYNC_CLIENT_H_
#define HCS_SRC_RPC_ASYNC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/rpc/binding.h"
#include "src/rpc/context.h"
#include "src/rpc/transport.h"

namespace hcs {

// Per-call telemetry the client runtime reports back to interested callers
// (benches surface attempts/retries per the retry satellite).
struct RpcCallInfo {
  uint32_t attempts = 0;  // transport exchanges performed (>= 1 once sent)
  uint32_t retries = 0;   // attempts beyond the first
  uint64_t trace_id = 0;  // trace id the call traveled under (0: untraced)
};

// One call as handed to the engine: the effective (resolved) context plus
// the channel spec the transport advertised.
struct AsyncCallSpec {
  HrpcBinding binding;
  uint32_t procedure = 0;
  Bytes args;
  RequestContext context;
  AsyncChannelSpec channel;
};

// Engine counters (relaxed; readable from any thread), summed over every
// thread that calls through the engine.
struct AsyncEngineStats {
  uint64_t calls = 0;           // calls handed to CallManyOnCaller
  uint64_t completed = 0;
  uint64_t retries = 0;
  uint64_t udp_unmatched = 0;   // datagrams matching no open call (dups, late replies)
  uint64_t udp_send_drops = 0;  // datagrams the kernel refused (the attempt times out)
};

// The counters behind RpcClient's UDP calls, and the batch runner they
// count. A process normally uses GlobalAsyncClientEngine(); a test installs
// its own (RpcClient::set_async_engine) to read its counters in isolation.
class AsyncClientEngine {
 public:
  AsyncClientEngine() = default;

  AsyncClientEngine(const AsyncClientEngine&) = delete;
  AsyncClientEngine& operator=(const AsyncClientEngine&) = delete;

  // Runs a batch of kUdpDatagram calls to completion on the calling thread
  // under the rules above, and returns when every call has ended: call i's
  // outcome goes to `results[i]` and its telemetry to `infos[i]`. The three
  // spans have one length. Blocks for up to the longest call's budget.
  void CallManyOnCaller(std::span<const AsyncCallSpec> specs, std::span<Result<Bytes>> results,
                        std::span<RpcCallInfo> infos);

  AsyncEngineStats stats() const;

 private:
  // One chunk of a batch on its way through the send/receive loop
  // (async_client.cc).
  class CallerBatch;

  std::atomic<uint64_t> stat_calls_{0};
  std::atomic<uint64_t> stat_completed_{0};
  std::atomic<uint64_t> stat_retries_{0};
  std::atomic<uint64_t> stat_udp_unmatched_{0};
  std::atomic<uint64_t> stat_udp_send_drops_{0};
};

// The process-wide engine every RpcClient uses unless a test installs its
// own (RpcClient::set_async_engine).
AsyncClientEngine* GlobalAsyncClientEngine();

}  // namespace hcs

#endif  // HCS_SRC_RPC_ASYNC_CLIENT_H_
