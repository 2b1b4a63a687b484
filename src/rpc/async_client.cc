#include "src/rpc/async_client.h"

#include <netinet/in.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "src/common/strings.h"
#include "src/rpc/client.h"
#include "src/rpc/control.h"
#include "src/rpc/fault.h"
#include "src/rpc/mmsg.h"

namespace hcs {

namespace {

// Courier's masked xids repeat every 65,536 calls, so a larger batch runs
// as consecutive chunks: within one, a masked xid names one call.
constexpr size_t kMaxChunkCalls = 0xffff;

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// Courier transaction ids are 16-bit: xids match within the protocol's
// width (the sync client's masked-compare rule).
uint32_t MaskXid(ControlKind control, uint32_t xid) {
  return control == ControlKind::kCourier ? (xid & 0xffff) : xid;
}

// Encodes 0-based `attempt` of the call into `*out`. Every attempt carries
// the call's one xid, so a late reply to an earlier attempt still answers
// it; the attempt counter is re-marshalled per try.
void EncodeAttemptTo(const ControlProtocol& control, const AsyncCallSpec& spec, uint32_t xid,
                     uint32_t attempt, Bytes* out) {
  RpcCall rpc;
  rpc.xid = xid;
  rpc.program = spec.binding.program;
  rpc.version = spec.binding.version;
  rpc.procedure = spec.procedure;
  rpc.args = spec.args;
  rpc.context = spec.context;
  rpc.context.attempt = spec.context.attempt + attempt;
  control.EncodeCallTo(rpc, out);
}

// A matched reply as the call's outcome: the application status the server
// sent back, or the results.
Result<Bytes> ReplyResult(RpcReplyMsg reply) {
  if (reply.app_status != StatusCode::kOk) {
    return Status(reply.app_status, reply.error_message);
  }
  return std::move(reply.results);
}

// How long 0-based `attempt` may wait: the channel's default timeout,
// capped by the attempt budget when the call has a deadline; kTimeout once
// that deadline has passed.
Result<int64_t> AttemptTimeoutMs(const AsyncCallSpec& spec, uint32_t attempt) {
  const int64_t timeout_ms = spec.channel.default_timeout_ms;
  if (!spec.context.has_deadline()) {
    return timeout_ms;
  }
  const int64_t remaining = spec.context.remaining_ms();
  if (remaining <= 0) {
    return TimeoutError(StrFormat("call to %s:%u: budget exhausted after %u attempts",
                                  spec.binding.host.c_str(), spec.binding.port, attempt));
  }
  return std::min(timeout_ms, RetryPolicy::AttemptBudgetMs(attempt, remaining));
}

// After 0-based `attempt` failed with `error`: the backoff before the next
// attempt (advancing `*backoff_ms`), or the status the call ends with.
// Only calls with a deadline retry, and only on kTimeout/kUnavailable; the
// backoff is jittered from (trace id, wire attempt) and capped by the
// remaining budget.
Result<int64_t> RetryBackoffMs(const AsyncCallSpec& spec, uint32_t attempt, int64_t* backoff_ms,
                               const Status& error) {
  const StatusCode code = error.code();
  if (!spec.context.has_deadline() ||
      (code != StatusCode::kTimeout && code != StatusCode::kUnavailable)) {
    return error;
  }
  const int64_t remaining = spec.context.remaining_ms();
  if (remaining <= 0) {
    return TimeoutError(StrFormat("call to %s:%u: budget exhausted after %u attempts: %s",
                                  spec.binding.host.c_str(), spec.binding.port, attempt + 1,
                                  error.message().c_str()));
  }
  const uint32_t wire_attempt = spec.context.attempt + attempt;
  const int64_t sleep_ms =
      RetryPolicy::JitteredBackoffMs(spec.context.trace_id, wire_attempt, *backoff_ms, remaining);
  *backoff_ms = RetryPolicy::NextBackoffMs(*backoff_ms);
  return sleep_ms;
}

// A call larger than one IPv4 UDP datagram fails kResourceExhausted before
// it touches the wire: no attempt could deliver it, so none is made.
Status CheckCallFits(const AsyncCallSpec& spec, size_t wire_size) {
  if (wire_size <= kMaxDatagram) {
    return Status::Ok();
  }
  return ResourceExhaustedError(StrFormat("call to %s:%u is %zu bytes; its channel carries %zu",
                                          spec.binding.host.c_str(), spec.binding.port,
                                          wire_size, kMaxDatagram));
}

// The injector's decision for one attempt, drawn as it starts. A blackhole
// fails the attempt kUnavailable; a corruption flips bits in the encoded
// call. The batch applies the rest (SendCopies and the hold).
Result<FaultDecision> DrawAttemptFault(const AsyncCallSpec& spec, Bytes* wire) {
  FaultDecision fault = spec.channel.faults->Decide(spec.binding.host, spec.binding.port);
  if (fault.blackhole) {
    return UnavailableError(StrFormat("injected blackhole: %s:%u (seq %llu)",
                                      spec.binding.host.c_str(), spec.binding.port,
                                      static_cast<unsigned long long>(fault.sequence)));
  }
  if (fault.corrupt) {
    FaultInjector::CorruptFrame(wire, fault.corrupt_salt);
  }
  return fault;
}

// Copies of an attempt that go on the wire: none for a drop (the attempt
// ends by its deadline, like a lost datagram), two for a duplicate.
int SendCopies(const FaultDecision& fault) { return fault.drop ? 0 : fault.duplicate ? 2 : 1; }

// One call of a batch as the send/receive loop tracks it.
struct CallSlot {
  uint32_t attempt = 0;  // 0-based: the attempt in flight, or the next one
  int64_t backoff_ms = RetryPolicy::kBackoffBaseMs;
  int64_t due_ms = 0;         // the next attempt starts no earlier
  int64_t deadline_ms = 0;    // the attempt in flight times out here
  int64_t hold_until_ms = 0;  // held copies go out here
  int held_copies = 0;        // copies of the attempt in flight still held
  bool in_flight = false;
  bool done = false;
};

// Buffers each thread's batches reuse from call to call.
struct BatchScratch {
  std::vector<CallSlot> slots;
  std::vector<Bytes> wires;      // slot i's encoded attempt
  std::vector<UdpReply> outbox;  // datagrams staged for the next sendmmsg
  // The slot whose wire each outbox entry borrows, or kNoLender for a copy.
  std::vector<size_t> lenders;
  Bytes datagram;  // a received frame, copied out of the receive slot
};
constexpr size_t kNoLender = std::numeric_limits<size_t>::max();

BatchScratch& ThisThreadScratch() {
  thread_local BatchScratch scratch;
  return scratch;
}

}  // namespace

class AsyncClientEngine::CallerBatch {
 public:
  CallerBatch(AsyncClientEngine* engine, std::span<const AsyncCallSpec> specs,
              std::span<Result<Bytes>> results, std::span<RpcCallInfo> infos);

  // Sends, receives and retries until every call of the batch has ended.
  void Run();

 private:
  // Ends attempts past their deadline, releases due holds, and starts the
  // attempts that are due while fewer than kMaxUdpBatch are in flight.
  void Advance(int64_t now);
  void StartAttempt(size_t i, int64_t now);
  void EndAttempt(size_t i, const Status& error, int64_t now);
  void Complete(size_t i, Result<Bytes> result);
  void FailInFlight(const Status& error);
  // Stages `copies` datagrams of slot i's attempt; the last borrows its wire.
  void Stage(size_t i, int copies);
  // Sends every staged datagram in one sendmmsg.
  void Flush(UdpClientSocket& socket);
  // The nearest attempt deadline, held-send time or startable backoff end.
  int64_t NextWakeMs() const;
  void Dispatch(const UdpFrame& frame);

  AsyncClientEngine* engine_;
  std::span<const AsyncCallSpec> specs_;
  std::span<Result<Bytes>> results_;
  std::span<RpcCallInfo> infos_;
  BatchScratch& scratch_;
  uint32_t base_xid_ = 0;  // call i's xid is base_xid_ + i
  uint32_t kinds_ = 0;     // bit k: a call uses ControlKind k
  size_t open_ = 0;
  int in_flight_ = 0;
};

AsyncClientEngine::CallerBatch::CallerBatch(AsyncClientEngine* engine,
                                            std::span<const AsyncCallSpec> specs,
                                            std::span<Result<Bytes>> results,
                                            std::span<RpcCallInfo> infos)
    : engine_(engine),
      specs_(specs),
      results_(results),
      infos_(infos),
      scratch_(ThisThreadScratch()),
      open_(specs.size()) {
  // Xids come from this thread's own sequence, from a random start: the
  // socket is per-thread too, so a datagram left queued by an earlier call
  // carries an earlier xid of this sequence and cannot match.
  thread_local uint32_t next_xid = static_cast<uint32_t>(NewTraceId());
  base_xid_ = next_xid;
  next_xid += static_cast<uint32_t>(specs.size());
  scratch_.slots.assign(specs.size(), CallSlot{});
  if (scratch_.wires.size() < specs.size()) {
    scratch_.wires.resize(specs.size());
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    kinds_ |= 1u << static_cast<uint32_t>(specs[i].binding.control);
    infos[i].trace_id = specs[i].context.trace_id;
  }
}

void AsyncClientEngine::CallerBatch::Run() {
  UdpClientSocket& socket = UdpClientSocket::ForThisThread();
  for (;;) {
    Advance(SteadyNowMs());
    Flush(socket);
    if (open_ == 0) {
      return;
    }
    const int64_t wait_ms = NextWakeMs() - SteadyNowMs();
    if (wait_ms <= 0) {
      continue;
    }
    Result<UdpFrame*> frame = socket.Receive(wait_ms);
    if (frame.ok()) {
      if (*frame != nullptr) {
        Dispatch(**frame);
      }
      continue;
    }
    // A broken socket delivers nothing: end the attempts in flight, then
    // sleep out the backoffs instead of spinning on the error.
    FailInFlight(frame.status());
    if (open_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<int64_t>(0, NextWakeMs() - SteadyNowMs())));
    }
  }
}

void AsyncClientEngine::CallerBatch::Advance(int64_t now) {
  for (size_t i = 0; i < scratch_.slots.size(); ++i) {
    CallSlot& slot = scratch_.slots[i];
    if (slot.done) {
      continue;
    }
    if (slot.in_flight) {
      if (now >= slot.deadline_ms) {
        EndAttempt(i,
                   TimeoutError(StrFormat("no response from %s:%u within the attempt budget",
                                          specs_[i].binding.host.c_str(),
                                          specs_[i].binding.port)),
                   now);
      } else if (slot.held_copies > 0 && now >= slot.hold_until_ms) {
        Stage(i, slot.held_copies);
        slot.held_copies = 0;
      }
    } else if (now >= slot.due_ms && in_flight_ < kMaxUdpBatch) {
      StartAttempt(i, now);
    }
  }
}

void AsyncClientEngine::CallerBatch::StartAttempt(size_t i, int64_t now) {
  const AsyncCallSpec& spec = specs_[i];
  CallSlot& slot = scratch_.slots[i];
  Result<int64_t> timeout_ms = AttemptTimeoutMs(spec, slot.attempt);
  if (!timeout_ms.ok()) {
    Complete(i, timeout_ms.status());
    return;
  }
  Bytes& wire = scratch_.wires[i];
  EncodeAttemptTo(GetControlProtocol(spec.binding.control), spec,
                  base_xid_ + static_cast<uint32_t>(i), slot.attempt, &wire);
  Status fits = CheckCallFits(spec, wire.size());
  if (!fits.ok()) {
    Complete(i, fits);
    return;
  }
  if (slot.attempt > 0) {
    ++infos_[i].retries;
    engine_->stat_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  ++infos_[i].attempts;
  slot.in_flight = true;
  ++in_flight_;
  slot.deadline_ms = now + *timeout_ms;
  int copies = 1;
  if (spec.channel.faults != nullptr) {
    Result<FaultDecision> fault = DrawAttemptFault(spec, &wire);
    if (!fault.ok()) {
      EndAttempt(i, fault.status(), now);
      return;
    }
    copies = SendCopies(*fault);
    if (fault->delay_ms > 0) {
      // Held on the attempt's own clock: Advance releases the copies when
      // the hold ends, or discards them with the attempt.
      slot.hold_until_ms = now + fault->delay_ms;
      slot.held_copies = copies;
      return;
    }
  }
  Stage(i, copies);
}

void AsyncClientEngine::CallerBatch::EndAttempt(size_t i, const Status& error, int64_t now) {
  CallSlot& slot = scratch_.slots[i];
  slot.in_flight = false;
  slot.held_copies = 0;
  --in_flight_;
  Result<int64_t> sleep_ms = RetryBackoffMs(specs_[i], slot.attempt, &slot.backoff_ms, error);
  if (!sleep_ms.ok()) {
    Complete(i, sleep_ms.status());
    return;
  }
  ++slot.attempt;
  slot.due_ms = now + *sleep_ms;
}

void AsyncClientEngine::CallerBatch::Complete(size_t i, Result<Bytes> result) {
  CallSlot& slot = scratch_.slots[i];
  if (slot.in_flight) {
    slot.in_flight = false;
    --in_flight_;
  }
  slot.done = true;
  --open_;
  results_[i] = std::move(result);
  engine_->stat_completed_.fetch_add(1, std::memory_order_relaxed);
}

void AsyncClientEngine::CallerBatch::FailInFlight(const Status& error) {
  const int64_t now = SteadyNowMs();
  for (size_t i = 0; i < scratch_.slots.size(); ++i) {
    if (scratch_.slots[i].in_flight) {
      EndAttempt(i, error, now);
    }
  }
}

void AsyncClientEngine::CallerBatch::Stage(size_t i, int copies) {
  for (int c = 0; c < copies; ++c) {
    UdpReply& out = scratch_.outbox.emplace_back();
    out.peer = LoopbackAddr(specs_[i].binding.port);
    out.peer_len = sizeof(out.peer);
    if (c + 1 < copies) {
      out.payload = scratch_.wires[i];
      scratch_.lenders.push_back(kNoLender);
    } else {
      out.payload.swap(scratch_.wires[i]);  // lent to the send, no copy
      scratch_.lenders.push_back(i);
    }
  }
}

void AsyncClientEngine::CallerBatch::Flush(UdpClientSocket& socket) {
  std::vector<UdpReply>& outbox = scratch_.outbox;
  if (outbox.empty()) {
    return;
  }
  Result<size_t> sent = socket.Send(outbox);
  for (size_t k = 0; k < outbox.size(); ++k) {
    if (scratch_.lenders[k] != kNoLender) {
      outbox[k].payload.swap(scratch_.wires[scratch_.lenders[k]]);
    }
  }
  const size_t staged = outbox.size();
  outbox.clear();
  scratch_.lenders.clear();
  if (!sent.ok()) {
    FailInFlight(sent.status());
  } else if (*sent < staged) {
    // A drop, as UDP allows: each attempt still waits out its deadline,
    // because a late reply to an earlier attempt answers the call too.
    engine_->stat_udp_send_drops_.fetch_add(staged - *sent, std::memory_order_relaxed);
  }
}

int64_t AsyncClientEngine::CallerBatch::NextWakeMs() const {
  int64_t wake = std::numeric_limits<int64_t>::max();
  const bool can_start = in_flight_ < kMaxUdpBatch;
  for (const CallSlot& slot : scratch_.slots) {
    if (slot.done) {
      continue;
    }
    if (slot.in_flight) {
      wake = std::min(wake, slot.held_copies > 0 ? std::min(slot.deadline_ms, slot.hold_until_ms)
                                                 : slot.deadline_ms);
    } else if (can_start) {
      wake = std::min(wake, slot.due_ms);
    }
  }
  return wake;
}

void AsyncClientEngine::CallerBatch::Dispatch(const UdpFrame& frame) {
  if (frame.truncated || frame.size == 0) {
    return;
  }
  const uint16_t port = ntohs(frame.peer.sin_port);
  scratch_.datagram.assign(frame.data, frame.data + frame.size);
  // Each control kind in the batch decodes the datagram at most once.
  for (ControlKind kind : {ControlKind::kSunRpc, ControlKind::kCourier, ControlKind::kRaw}) {
    if ((kinds_ & (1u << static_cast<uint32_t>(kind))) == 0) {
      continue;
    }
    Result<RpcReplyMsg> reply = GetControlProtocol(kind).DecodeReply(scratch_.datagram);
    if (!reply.ok()) {
      continue;
    }
    // Consecutive xids: the masked distance from the batch's first xid is
    // the call's index. The call must have started an attempt and still be
    // open, a call waiting out its backoff included.
    const size_t i = MaskXid(kind, reply->xid - base_xid_);
    if (i < specs_.size() && infos_[i].attempts > 0 && !scratch_.slots[i].done &&
        specs_[i].binding.port == port && specs_[i].binding.control == kind) {
      Complete(i, ReplyResult(std::move(reply).value()));
      return;
    }
  }
  engine_->stat_udp_unmatched_.fetch_add(1, std::memory_order_relaxed);
}

void AsyncClientEngine::CallManyOnCaller(std::span<const AsyncCallSpec> specs,
                                         std::span<Result<Bytes>> results,
                                         std::span<RpcCallInfo> infos) {
  stat_calls_.fetch_add(specs.size(), std::memory_order_relaxed);
  for (size_t first = 0; first < specs.size(); first += kMaxChunkCalls) {
    const size_t count = std::min(kMaxChunkCalls, specs.size() - first);
    CallerBatch(this, specs.subspan(first, count), results.subspan(first, count),
                infos.subspan(first, count))
        .Run();
  }
}

AsyncEngineStats AsyncClientEngine::stats() const {
  AsyncEngineStats out;
  out.calls = stat_calls_.load(std::memory_order_relaxed);
  out.completed = stat_completed_.load(std::memory_order_relaxed);
  out.retries = stat_retries_.load(std::memory_order_relaxed);
  out.udp_unmatched = stat_udp_unmatched_.load(std::memory_order_relaxed);
  out.udp_send_drops = stat_udp_send_drops_.load(std::memory_order_relaxed);
  return out;
}

AsyncClientEngine* GlobalAsyncClientEngine() {
  static AsyncClientEngine engine;
  return &engine;
}

}  // namespace hcs
