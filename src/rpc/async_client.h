// The async RPC client core: CallAsync returns an RpcFuture, and the
// engine's own reactor (src/rpc/reactor.h; every callback on its one loop
// thread) drives a shared nonblocking UDP socket with xid-based reply
// matching. The loop thread starts with the first StartCall.
//
// Synchronous calls do not cross the loop. RpcClient::Call hands them to
// CallOnCaller, which runs the whole call on the calling thread over that
// thread's UdpClientSocket (src/rpc/mmsg.h), with the reply-matching rule,
// retry schedule and counters of the loop's channel. These two UDP
// channels are the only client path over real sockets.
//
// Before any send, a call larger than one datagram (kMaxDatagram)
// completes kResourceExhausted with no attempt made. Client-side fault
// injection happens here too: a channel spec that carries a FaultInjector
// (FaultInjectingTransport's) has one decision drawn per attempt, as the
// attempt is sent. A blackhole fails the attempt kUnavailable at once; a
// drop registers the attempt but sends nothing, so it ends by its timer; a
// delay or reorder holds the send (the caller-run path sleeps, the loop
// sets a timer), and a held send whose attempt has ended is discarded; a
// corruption flips bits in the encoded call; a duplicate sends the call
// twice, and the extra reply is counted unmatched.
//
// Threading model. All engine state is loop-thread-only: StartCall posts
// the call onto the loop, and every subsequent transition — send, reply
// match, attempt timeout, retry backoff — runs as a loop callback. The
// only cross-thread surface is the future (mutex + condvar) and the stats
// counters (relaxed atomics). That is the sresolv/event-loop resolver
// shape: no locks on the per-call state because exactly one thread ever
// touches it. CallOnCaller's state lives on its caller's stack and that
// thread's socket; it shares only the counters.
//
// The model is machine-checked: the loop-only tags below feed
// tools/lint_loop.py (rules T1–T4, DESIGN.md §15), and debug builds add
// HCS_ASSERT_LOOP affinity aborts plus a Wait-on-loop-thread detector.
//
// Retry semantics (RetryPolicy, the one retry schedule in the tree): a call
// whose effective context has a deadline runs budgeted attempts (per-attempt
// budget doubling from kAttemptBaseMs, capped by the remaining budget and
// the transport's default timeout) with jittered exponential backoff
// between; kTimeout/kUnavailable retry, anything else — including an
// application error carried in a decoded reply — completes the future.
// Deadline cancellation: the per-attempt timer is capped by the remaining
// budget, so a call never outlives its deadline by more than the scheduling
// jitter; expiry between attempts completes the future with kTimeout.

#ifndef HCS_SRC_RPC_ASYNC_CLIENT_H_
#define HCS_SRC_RPC_ASYNC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/rpc/binding.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/rpc/mmsg.h"
#include "src/rpc/reactor.h"
#include "src/rpc/transport.h"

namespace hcs {

// Per-call telemetry the client runtime reports back to interested callers
// (benches surface attempts/retries per the retry satellite).
struct RpcCallInfo {
  uint32_t attempts = 0;  // transport exchanges performed (>= 1 once sent)
  uint32_t retries = 0;   // attempts beyond the first
  uint64_t trace_id = 0;  // trace id the call traveled under (0: untraced)
};

// Shared completion state behind an RpcFuture. Completion happens exactly
// once: on the engine loop thread (async path) or inline in CallAsync
// (sync-fallback path). The optional completion callback fires on whichever
// thread completes the call — callbacks must not block — and before the
// future reads ready, so a caller returning from Wait sees its effects.
class RpcFutureState {
 public:
  using CompletionFn = std::function<void(const Result<Bytes>&, const RpcCallInfo&)>;

#if HCS_LOOP_DEBUG_ENABLED
  // Debug birth-site stamp: where CallAsync minted this future. The
  // Wait-on-loop-thread detector reports it so the abort names the caller
  // that must move its wait off the loop.
  void set_birth_site(const char* file, int line) {
    birth_file_ = file;
    birth_line_ = line;
  }
#endif

  void Complete(Result<Bytes> result, const RpcCallInfo& info) {
    CompletionFn callback;
    {
      MutexLock lock(mu_);
      if (completed_) {
        return;  // first completion wins
      }
      result_ = std::move(result);
      info_ = info;
      completed_ = true;
      callback = std::move(on_complete_);
      on_complete_ = nullptr;
    }
    if (callback) {
      callback(result_snapshot(), info);
    }
    {
      MutexLock lock(mu_);
      ready_ = true;
    }
    cv_.NotifyAll();
  }

  HCS_NODISCARD Result<Bytes> Wait() {
#if HCS_LOOP_DEBUG_ENABLED
    // Waiting on an event-loop thread can never be satisfied — the loop is
    // the only thread that delivers completions — so abort with the birth
    // site instead of deadlocking silently. Deliberately unconditional
    // (even when already ready) so the misuse is caught deterministically,
    // not only when the race loses.
    AbortIfWaitOnLoopThread("RpcFuture::Wait()", birth_file_, birth_line_);
#endif
    MutexLock lock(mu_);
    cv_.Wait(mu_, [&] { return ready_; });
    return result_;
  }

  // True when the call completed within `timeout_ms`.
  bool WaitFor(int64_t timeout_ms) {
#if HCS_LOOP_DEBUG_ENABLED
    // A timed wait on the loop thread always burns the full timeout with
    // the loop stalled — same discipline violation, same abort.
    AbortIfWaitOnLoopThread("RpcFuture::WaitFor()", birth_file_, birth_line_);
#endif
    MutexLock lock(mu_);
    return cv_.WaitFor(mu_, timeout_ms, [&] { return ready_; });
  }

  bool ready() const {
    MutexLock lock(mu_);
    return ready_;
  }

  RpcCallInfo info() const {
    MutexLock lock(mu_);
    return info_;
  }

  // Registers the completion callback; fires immediately (on this thread)
  // when the call already completed. At most one callback per call.
  void OnComplete(CompletionFn fn) {
    bool fire_now = false;
    {
      MutexLock lock(mu_);
      if (completed_) {
        fire_now = true;
      } else {
        on_complete_ = std::move(fn);
      }
    }
    if (fire_now) {
      fn(result_snapshot(), info());
    }
  }

 private:
  Result<Bytes> result_snapshot() const {
    MutexLock lock(mu_);
    return result_;
  }

  mutable Mutex mu_{"rpc-future"};
  CondVar cv_;
#if HCS_LOOP_DEBUG_ENABLED
  const char* birth_file_ = nullptr;  // set once before the future escapes
  int birth_line_ = 0;
#endif
  bool completed_ HCS_GUARDED_BY(mu_) = false;  // result set; callback taken
  bool ready_ HCS_GUARDED_BY(mu_) = false;      // and the callback has run
  Result<Bytes> result_ HCS_GUARDED_BY(mu_) = Result<Bytes>(UnavailableError("call pending"));
  RpcCallInfo info_ HCS_GUARDED_BY(mu_);
  CompletionFn on_complete_ HCS_GUARDED_BY(mu_);
};

// The handle CallAsync returns. Nodiscard: a dropped future is a fired-and-
// forgotten RPC whose outcome nobody observes (lint_failpaths rule 7); keep
// the future and Wait()/OnComplete() it, or tag the discard.
class HCS_NODISCARD RpcFuture {
 public:
  RpcFuture() = default;
  explicit RpcFuture(std::shared_ptr<RpcFutureState> state) : state_(std::move(state)) {}

  // Blocks until the call completes and returns its result. Callable more
  // than once; later calls return the same result.
  HCS_NODISCARD Result<Bytes> Wait() const {
    if (state_ == nullptr) {
      return InternalError("empty RpcFuture");
    }
    return state_->Wait();
  }
  // True when the call completed within `timeout_ms`.
  bool WaitFor(int64_t timeout_ms) const { return state_ != nullptr && state_->WaitFor(timeout_ms); }
  bool ready() const { return state_ != nullptr && state_->ready(); }
  // Per-call telemetry; final once ready().
  RpcCallInfo info() const { return state_ != nullptr ? state_->info() : RpcCallInfo{}; }
  // Completion callback (fires inline if already complete). The callback
  // runs on the engine loop thread — it must not block or call Wait().
  void OnComplete(RpcFutureState::CompletionFn fn) const {
    if (state_ != nullptr) {
      state_->OnComplete(std::move(fn));
    }
  }

 private:
  std::shared_ptr<RpcFutureState> state_;
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

// Engine counters (relaxed; readable from any thread). They cover calls on
// the loop and on their caller alike.
struct AsyncEngineStats {
  uint64_t calls = 0;           // calls started, on the loop or by CallOnCaller
  uint64_t completed = 0;
  uint64_t retries = 0;
  uint64_t udp_unmatched = 0;   // datagrams matching no pending xid (dups, late replies)
  uint64_t udp_send_drops = 0;  // staged datagrams the kernel refused (retry re-sends)
};

// The reactor-driven engine behind RpcClient::CallAsync. One instance
// serves any number of clients/remotes; a process normally uses
// GlobalAsyncClientEngine(). Destruction fails every outstanding future
// with kUnavailable, then stops the loop.
class AsyncClientEngine {
 public:
  AsyncClientEngine() = default;
  ~AsyncClientEngine();

  AsyncClientEngine(const AsyncClientEngine&) = delete;
  AsyncClientEngine& operator=(const AsyncClientEngine&) = delete;

  // Takes ownership of the call; `state` completes exactly once. Safe from
  // any thread (including engine callbacks).
  void StartCall(AsyncCallSpec spec, std::shared_ptr<RpcFutureState> state);

  // Runs a kUdpDatagram call to completion on the calling thread, without
  // the loop: encodes it, sends it on this thread's UdpClientSocket, and
  // receives until a datagram from the call's port decodes to the call's
  // masked xid; every other datagram is dropped and counted unmatched.
  // Attempts follow StartCall's schedule: one xid for all of them, the
  // attempt counter re-marshalled, budgeted attempt timeouts, jittered
  // backoff, the size check and fault hook above. Fills `*info` and counts
  // into stats(). Blocks for up to the call's budget, so never call it on
  // an event-loop thread.
  HCS_NODISCARD Result<Bytes> CallOnCaller(const AsyncCallSpec& spec, RpcCallInfo* info);

  AsyncEngineStats stats() const;

 private:
  struct PendingCall;

  // --- Loop-thread-only machinery (every decl carries hcs:loop-only; the
  // tag feeds tools/lint_loop.py's producer DB and rule T1 rejects calls
  // from off-loop bodies) ---------------------------------------------------
  void DrainIncoming();                                    // hcs:loop-only
  void StartOnLoop(std::shared_ptr<PendingCall> call);     // hcs:loop-only
  void StartAttempt(PendingCall* call);                    // hcs:loop-only
  void OnAttemptTimeout(uint64_t call_id);                 // hcs:loop-only
  void HandleAttemptError(PendingCall* call, const Status& error);  // hcs:loop-only
  void CompleteCall(PendingCall* call, Result<Bytes> result);       // hcs:loop-only
  void CompleteFromReply(PendingCall* call, RpcReplyMsg reply);     // hcs:loop-only
  void UnregisterResidences(PendingCall* call);            // hcs:loop-only
  PendingCall* FindCall(uint64_t call_id);                 // hcs:loop-only
  void EncodeAttempt(PendingCall* call);                   // hcs:loop-only
  uint32_t MaskedXid(const PendingCall* call) const;       // hcs:loop-only
  // Sends a registered attempt's encoded call, through the fault hook when
  // the channel carries an injector.
  void Transmit(PendingCall* call);                        // hcs:loop-only
  void TransmitCopies(PendingCall* call, int copies);      // hcs:loop-only

  // UDP channel. Sends are staged per reactor iteration and flushed with
  // one sendmmsg; receives drain through a recvmmsg batch — the client
  // mirrors the serving runtime's batched-syscall hot path (DESIGN.md §13).
  // CallOnCaller's attempt: send, then receive until the reply or the
  // attempt's deadline. Not loop-only: it touches only its arguments and
  // the atomic counters.
  HCS_NODISCARD Result<RpcReplyMsg> UdpAttemptOnCaller(const AsyncCallSpec& spec,
                                                       const ControlProtocol& control,
                                                       Bytes& wire, uint32_t xid,
                                                       int64_t timeout_ms);
  HCS_NODISCARD Status EnsureUdpChannel();                 // hcs:loop-only
  void SendUdpAttempt(PendingCall* call);                  // hcs:loop-only
  void FlushUdpOutbox();                                   // hcs:loop-only
  void OnUdpReadable();                                    // hcs:loop-only
  void DispatchUdpDatagram(uint16_t port, const Bytes& datagram);  // hcs:loop-only

  Reactor reactor_;
  // The loop starts with the first StartCall: a process that makes only
  // caller-run calls never spawns it.
  std::once_flag start_once_;

  // StartCall staging: new calls land here from any thread; one posted
  // drain task moves a whole burst onto the loop.
  Mutex incoming_mu_{"async-engine-incoming"};
  std::vector<std::shared_ptr<PendingCall>> incoming_ HCS_GUARDED_BY(incoming_mu_);
  bool incoming_drain_scheduled_ HCS_GUARDED_BY(incoming_mu_) = false;

  // Everything below is loop-thread-only (see the threading model above).
  bool stopping_ = false;       // hcs:loop-only
  std::unordered_map<uint64_t, std::shared_ptr<PendingCall>> calls_;  // hcs:loop-only
  int udp_fd_ = -1;             // hcs:loop-only
  // port → masked xid → pending call awaiting a datagram from that port.
  std::unordered_map<uint16_t, std::unordered_map<uint32_t, PendingCall*>> udp_pending_;  // hcs:loop-only
  // Batched UDP I/O: datagrams staged here drain with one sendmmsg per
  // reactor iteration; the receive batch lands a recvmmsg burst per call.
  std::unique_ptr<UdpRecvBatch> udp_rx_;                    // hcs:loop-only
  std::vector<UdpReply> udp_outbox_;                        // hcs:loop-only
  bool udp_flush_scheduled_ = false;                        // hcs:loop-only
  // Flushed datagram buffers come back here; EncodeAttempt reuses them so
  // the steady-state hot path allocates nothing per call for wire bytes.
  std::vector<Bytes> wire_pool_;                            // hcs:loop-only

  std::atomic<uint64_t> next_call_id_{1};
  std::atomic<uint32_t> next_xid_{1};

  std::atomic<uint64_t> stat_calls_{0};
  std::atomic<uint64_t> stat_completed_{0};
  std::atomic<uint64_t> stat_retries_{0};
  std::atomic<uint64_t> stat_udp_unmatched_{0};
  std::atomic<uint64_t> stat_udp_send_drops_{0};
};

// The process-wide engine every RpcClient uses unless a test installs its
// own (RpcClient::set_async_engine). Lazily constructed on first use.
AsyncClientEngine* GlobalAsyncClientEngine();

}  // namespace hcs

#endif  // HCS_SRC_RPC_ASYNC_CLIENT_H_
