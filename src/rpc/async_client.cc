#include "src/rpc/async_client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/epoll.h>
#include <thread>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/rpc/client.h"
#include "src/rpc/fault.h"

namespace hcs {

namespace {

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

// --- Rules every channel shares, on the loop and on the caller --------------

// Courier transaction ids are 16-bit: xids register and match within the
// protocol's width (the sync client's masked-compare rule).
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
// attempt (advancing `*backoff_ms`), or the status the call completes with.
// Only calls with a deadline retry, and only on kTimeout/kUnavailable; the
// backoff is the sync client's schedule exactly, jittered from (trace id,
// wire attempt) and capped by the remaining budget.
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

// A call larger than one IPv4 UDP datagram completes kResourceExhausted
// before it touches the wire: no attempt could deliver it, so none is made.
Status CheckCallFits(const AsyncCallSpec& spec, size_t wire_size) {
  if (wire_size <= kMaxDatagram) {
    return Status::Ok();
  }
  return ResourceExhaustedError(StrFormat("call to %s:%u is %zu bytes; its channel carries %zu",
                                          spec.binding.host.c_str(), spec.binding.port,
                                          wire_size, kMaxDatagram));
}

// The injector's decision for one attempt, drawn as it is sent. A blackhole
// fails the attempt kUnavailable; a corruption flips bits in the encoded
// call. The channel applies the rest (SendCopies and the hold).
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
// ends by its timer, like a lost datagram), two for a duplicate.
int SendCopies(const FaultDecision& fault) { return fault.drop ? 0 : fault.duplicate ? 2 : 1; }

}  // namespace

// One in-flight CallAsync. Loop-thread-only after StartOnLoop; the future
// state is the only piece other threads see.
struct AsyncClientEngine::PendingCall {
  uint64_t id = 0;
  AsyncCallSpec spec;
  const ControlProtocol* control = nullptr;
  std::shared_ptr<RpcFutureState> state;
  RpcCallInfo info;

  // The xid travels unchanged across retries (like the sync client): a
  // retry is the same call, and a late reply to an earlier attempt still
  // answers it.
  uint32_t xid = 0;
  uint32_t attempt = 0;
  int64_t backoff_ms = RetryPolicy::kBackoffBaseMs;
  uint64_t attempt_timer = 0;  // nonzero while an attempt timer is armed
  Bytes wire;                  // per-attempt encode buffer (reused)

  // Residence: where a reply to this call is currently awaited.
  uint16_t udp_port = 0;  // nonzero → registered in udp_pending_[port]
};

AsyncClientEngine::~AsyncClientEngine() {
  // Fail every outstanding future on the loop (single-threaded with the
  // rest of the call state), then stop the reactor.
  struct Latch {
    Mutex mu{"async-engine-shutdown"};
    CondVar cv;
    bool done = false;
  };
  auto latch = std::make_shared<Latch>();
  bool posted = reactor_.Post([this, latch] {
    stopping_ = true;
    std::vector<uint64_t> ids;
    ids.reserve(calls_.size());
    for (const auto& [id, call] : calls_) {
      ids.push_back(id);
    }
    for (uint64_t id : ids) {
      PendingCall* call = FindCall(id);
      if (call != nullptr) {
        CompleteCall(call, UnavailableError("async client engine shutting down"));
      }
    }
    {
      MutexLock lock(latch->mu);
      latch->done = true;
    }
    latch->cv.NotifyAll();
  });
  if (posted) {
    MutexLock lock(latch->mu);
    latch->cv.Wait(latch->mu, [&] { return latch->done; });
  }
  reactor_.Stop();
  // Calls staged after the fail-all task was posted never reached the loop;
  // with it stopped, nothing else will complete them.
  std::vector<std::shared_ptr<PendingCall>> stranded;
  {
    MutexLock lock(incoming_mu_);
    stranded.swap(incoming_);
  }
  for (const std::shared_ptr<PendingCall>& call : stranded) {
    call->state->Complete(UnavailableError("async client engine shutting down"), call->info);
  }
}

void AsyncClientEngine::StartCall(AsyncCallSpec spec, std::shared_ptr<RpcFutureState> state) {
  std::call_once(start_once_, [this] {
    Status started = reactor_.Start();
    if (!started.ok()) {
      // Post() will fail and every StartCall completes kUnavailable inline.
      HCS_LOG(Warning) << "async client engine failed to start: " << started;
    }
  });
  auto call = std::make_shared<PendingCall>();
  call->id = next_call_id_.fetch_add(1, std::memory_order_relaxed);
  call->spec = std::move(spec);
  call->control = &GetControlProtocol(call->spec.binding.control);
  call->state = std::move(state);
  call->info.trace_id = call->spec.context.trace_id;

  // Stage-and-drain hand-off: a burst of StartCalls shares ONE posted drain
  // task (captureless-sized lambda, no per-call allocation) instead of one
  // closure per call through the reactor's posted queue.
  bool need_post = false;
  {
    MutexLock lock(incoming_mu_);
    incoming_.push_back(std::move(call));
    if (!incoming_drain_scheduled_) {
      incoming_drain_scheduled_ = true;
      need_post = true;
    }
  }
  if (need_post && !reactor_.Post([this] { DrainIncoming(); })) {
    // Engine not running: fail everything staged (ours and any piggybacked
    // on the drain we could not schedule).
    std::vector<std::shared_ptr<PendingCall>> orphans;
    {
      MutexLock lock(incoming_mu_);
      orphans.swap(incoming_);
      incoming_drain_scheduled_ = false;
    }
    for (const std::shared_ptr<PendingCall>& orphan : orphans) {
      orphan->state->Complete(UnavailableError("async client engine not running"),
                              orphan->info);
    }
  }
}

void AsyncClientEngine::DrainIncoming() {
  HCS_ASSERT_LOOP(&reactor_);
  std::vector<std::shared_ptr<PendingCall>> batch;
  {
    MutexLock lock(incoming_mu_);
    batch.swap(incoming_);
    incoming_drain_scheduled_ = false;
  }
  for (std::shared_ptr<PendingCall>& call : batch) {
    StartOnLoop(std::move(call));
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

// --- Call lifecycle ---------------------------------------------------------

AsyncClientEngine::PendingCall* AsyncClientEngine::FindCall(uint64_t call_id) {
  auto it = calls_.find(call_id);
  return it != calls_.end() ? it->second.get() : nullptr;
}

uint32_t AsyncClientEngine::MaskedXid(const PendingCall* call) const {
  return MaskXid(call->spec.binding.control, call->xid);
}

void AsyncClientEngine::StartOnLoop(std::shared_ptr<PendingCall> call) {
  if (stopping_) {
    call->state->Complete(UnavailableError("async client engine shutting down"), call->info);
    return;
  }
  stat_calls_.fetch_add(1, std::memory_order_relaxed);
  call->xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  PendingCall* raw = call.get();
  calls_[call->id] = std::move(call);
  StartAttempt(raw);
}

void AsyncClientEngine::StartAttempt(PendingCall* call) {
  HCS_ASSERT_LOOP(&reactor_);
  if (stopping_) {
    CompleteCall(call, UnavailableError("async client engine shutting down"));
    return;
  }
  Result<int64_t> attempt_timeout = AttemptTimeoutMs(call->spec, call->attempt);
  if (!attempt_timeout.ok()) {
    CompleteCall(call, attempt_timeout.status());
    return;
  }
  EncodeAttempt(call);
  Status fits = CheckCallFits(call->spec, call->wire.size());
  if (!fits.ok()) {
    CompleteCall(call, fits);
    return;
  }
  ++call->info.attempts;
  const uint64_t id = call->id;
  call->attempt_timer = reactor_.ScheduleAfter(*attempt_timeout, [this, id] {
    OnAttemptTimeout(id);
  });
  switch (call->spec.channel.kind) {
    case AsyncChannelKind::kUdpDatagram:
      SendUdpAttempt(call);
      break;
    case AsyncChannelKind::kNone:
      HandleAttemptError(call, InternalError("async call on a channel-less transport"));
      break;
  }
}

void AsyncClientEngine::OnAttemptTimeout(uint64_t call_id) {
  HCS_ASSERT_LOOP(&reactor_);
  PendingCall* call = FindCall(call_id);
  if (call == nullptr) {
    return;
  }
  call->attempt_timer = 0;  // it just fired
  HandleAttemptError(
      call, TimeoutError(StrFormat("no response from %s:%u within the attempt budget",
                                   call->spec.binding.host.c_str(), call->spec.binding.port)));
}

void AsyncClientEngine::HandleAttemptError(PendingCall* call, const Status& error) {
  if (call->attempt_timer != 0) {
    reactor_.CancelTimer(call->attempt_timer);
    call->attempt_timer = 0;
  }
  UnregisterResidences(call);
  Result<int64_t> backoff_ms =
      stopping_ ? Result<int64_t>(error)
                : RetryBackoffMs(call->spec, call->attempt, &call->backoff_ms, error);
  if (!backoff_ms.ok()) {
    CompleteCall(call, backoff_ms.status());
    return;
  }
  ++call->info.retries;
  stat_retries_.fetch_add(1, std::memory_order_relaxed);
  ++call->attempt;
  const uint64_t id = call->id;
  (void)reactor_.ScheduleAfter(*backoff_ms, [this, id] {
    PendingCall* retry = FindCall(id);
    if (retry != nullptr) {
      StartAttempt(retry);
    }
  });
}

void AsyncClientEngine::CompleteCall(PendingCall* call, Result<Bytes> result) {
  HCS_ASSERT_LOOP(&reactor_);
  if (call->attempt_timer != 0) {
    reactor_.CancelTimer(call->attempt_timer);
    call->attempt_timer = 0;
  }
  UnregisterResidences(call);
  stat_completed_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<RpcFutureState> state = std::move(call->state);
  RpcCallInfo info = call->info;
  calls_.erase(call->id);  // invalidates `call`
  state->Complete(std::move(result), info);
}

void AsyncClientEngine::CompleteFromReply(PendingCall* call, RpcReplyMsg reply) {
  // The xid already matched (that is how we found the call).
  CompleteCall(call, ReplyResult(std::move(reply)));
}

void AsyncClientEngine::UnregisterResidences(PendingCall* call) {
  if (call->udp_port != 0) {
    auto bucket = udp_pending_.find(call->udp_port);
    if (bucket != udp_pending_.end()) {
      bucket->second.erase(MaskedXid(call));
      if (bucket->second.empty()) {
        udp_pending_.erase(bucket);
      }
    }
    call->udp_port = 0;
  }
}

void AsyncClientEngine::EncodeAttempt(PendingCall* call) {
  if (call->wire.capacity() == 0 && !wire_pool_.empty()) {
    call->wire = std::move(wire_pool_.back());  // encoder clears before use
    wire_pool_.pop_back();
  }
  EncodeAttemptTo(*call->control, call->spec, call->xid, call->attempt, &call->wire);
}

// --- UDP channel ------------------------------------------------------------

Status AsyncClientEngine::EnsureUdpChannel() {
  if (udp_fd_ >= 0) {
    return Status::Ok();
  }
  int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return UnavailableError(StrFormat("socket(udp): %s", std::strerror(errno)));
  }
  Status added = reactor_.AddClientFd(fd, EPOLLIN, [this](uint32_t) { OnUdpReadable(); });
  if (!added.ok()) {
    close(fd);
    return added;
  }
  udp_fd_ = fd;
  // Full-width receive batch: a pipelining client drains a window of
  // replies per wake, so the deepest batch the wrappers allow pays off.
  udp_rx_ = std::make_unique<UdpRecvBatch>(kMaxUdpBatch, kMaxDatagram, UdpIoSide::kClient);
  return Status::Ok();
}

void AsyncClientEngine::SendUdpAttempt(PendingCall* call) {
  Status channel = EnsureUdpChannel();
  if (!channel.ok()) {
    HandleAttemptError(call, channel);
    return;
  }
  const uint16_t port = call->spec.binding.port;
  auto& bucket = udp_pending_[port];
  const uint32_t encoded_xid = call->xid;
  // The masked xid must be unique among this port's pending calls, or a
  // reply would be ambiguous; redraw on collision (16-bit Courier space).
  for (int i = 0; bucket.count(MaskedXid(call)) != 0 && i < 1 << 17; ++i) {
    call->xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  }
  if (bucket.count(MaskedXid(call)) != 0) {
    // Redraw exhausted: the whole masked space is pending to this port
    // (~64k Courier calls). Registering anyway would orphan the incumbent
    // and cross-complete its reply; fail the attempt instead — budgeted
    // calls back off and retry into whatever space frees up.
    HandleAttemptError(call, UnavailableError(StrFormat(
                                 "xid space exhausted: %zu calls pending to port %u",
                                 bucket.size(), port)));
    return;
  }
  if (call->xid != encoded_xid) {
    EncodeAttempt(call);  // redrawn: StartAttempt encoded the old xid
  }
  bucket[MaskedXid(call)] = call;
  call->udp_port = port;
  Transmit(call);
}

void AsyncClientEngine::Transmit(PendingCall* call) {
  if (call->spec.channel.faults == nullptr) {
    TransmitCopies(call, 1);
    return;
  }
  Result<FaultDecision> fault = DrawAttemptFault(call->spec, &call->wire);
  if (!fault.ok()) {
    HandleAttemptError(call, fault.status());
    return;
  }
  const int copies = SendCopies(*fault);
  if (fault->delay_ms == 0) {
    TransmitCopies(call, copies);
    return;
  }
  // A held send, on a timer rather than a sleep. It is discarded if its
  // attempt ended first: the call completed, or the attempt counter moved.
  const uint64_t id = call->id;
  const uint32_t attempt = call->attempt;
  (void)reactor_.ScheduleAfter(fault->delay_ms, [this, id, attempt, copies] {
    PendingCall* held = FindCall(id);
    if (held != nullptr && held->attempt == attempt) {
      TransmitCopies(held, copies);
    }
  });
}

void AsyncClientEngine::TransmitCopies(PendingCall* call, int copies) {
  if (copies == 0) {
    return;
  }
  // Stage rather than sendto: every attempt issued during this reactor
  // iteration (a burst of StartCall posts, a wave of retry timers) leaves
  // in one sendmmsg. The call registered before the flush — its attempt
  // timer is already armed, so a kernel-refused datagram simply retries.
  for (int i = 0; i < copies; ++i) {
    UdpReply staged;
    staged.peer = LoopbackAddr(call->udp_port);
    staged.peer_len = sizeof(sockaddr_in);
    // The last copy takes the buffer; EncodeAttempt rebuilds it per try.
    staged.payload = i + 1 < copies ? call->wire : std::move(call->wire);
    udp_outbox_.push_back(std::move(staged));
  }
  if (!udp_flush_scheduled_) {
    udp_flush_scheduled_ = true;
    (void)reactor_.Post([this] { FlushUdpOutbox(); });
  }
}

void AsyncClientEngine::FlushUdpOutbox() {
  HCS_ASSERT_LOOP(&reactor_);
  udp_flush_scheduled_ = false;
  if (udp_outbox_.empty() || udp_fd_ < 0) {
    udp_outbox_.clear();
    return;
  }
  std::vector<UdpReply> batch;
  batch.swap(udp_outbox_);
  size_t sent = SendReplies(udp_fd_, batch, UdpIoSide::kClient);
  if (sent < batch.size()) {
    // UDP semantics: the shortfall is a drop; each affected call's attempt
    // timer fires and the retry loop re-sends.
    stat_udp_send_drops_.fetch_add(batch.size() - sent, std::memory_order_relaxed);
  }
  constexpr size_t kWirePoolCap = 256;
  for (UdpReply& reply : batch) {
    if (wire_pool_.size() >= kWirePoolCap) {
      break;
    }
    wire_pool_.push_back(std::move(reply.payload));
  }
}

void AsyncClientEngine::OnUdpReadable() {
  HCS_ASSERT_LOOP(&reactor_);
  while (true) {
    int count = udp_rx_->Recv(udp_fd_, /*wait_for_one=*/false);
    if (count <= 0) {
      // 0: drained (EAGAIN). -1: transient socket error (ICMP-induced) —
      // either way level-triggered epoll re-reports genuine readiness.
      return;
    }
    for (int i = 0; i < count; ++i) {
      UdpFrame& frame = udp_rx_->frame(i);
      if (frame.truncated || frame.size == 0) {
        continue;
      }
      // Copy out of the batch arena before dispatch: the decoded reply (and
      // anything a completion callback captures) must outlive the batch's
      // next Recv, so no arena view crosses DispatchUdpDatagram.
      Bytes datagram(frame.data, frame.data + frame.size);
      DispatchUdpDatagram(ntohs(frame.peer.sin_port), datagram);
    }
  }
}

void AsyncClientEngine::DispatchUdpDatagram(uint16_t port, const Bytes& datagram) {
  auto bucket_it = udp_pending_.find(port);
  if (bucket_it == udp_pending_.end()) {
    stat_udp_unmatched_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The port's pending calls may span control protocols; try each distinct
  // kind's decoder once, then match the decoded xid against pending calls
  // of that same kind. A duplicate (already-completed xid) or a late reply
  // to an abandoned attempt matches nothing and is dropped — exactly the
  // dedup the xid registry is for.
  uint32_t kinds_tried = 0;
  for (const auto& [key, pending] : bucket_it->second) {
    const uint32_t kind_bit = 1u << static_cast<uint32_t>(pending->spec.binding.control);
    if ((kinds_tried & kind_bit) != 0) {
      continue;
    }
    kinds_tried |= kind_bit;
    Result<RpcReplyMsg> reply = pending->control->DecodeReply(datagram);
    if (!reply.ok()) {
      continue;
    }
    const uint32_t masked = MaskXid(pending->spec.binding.control, reply->xid);
    auto hit = bucket_it->second.find(masked);
    if (hit != bucket_it->second.end() && hit->second->control == pending->control) {
      CompleteFromReply(hit->second, std::move(*reply));
      return;
    }
  }
  stat_udp_unmatched_.fetch_add(1, std::memory_order_relaxed);
}

// --- Caller-run UDP calls ---------------------------------------------------

Result<Bytes> AsyncClientEngine::CallOnCaller(const AsyncCallSpec& spec, RpcCallInfo* info) {
  stat_calls_.fetch_add(1, std::memory_order_relaxed);
  // Xids come from this thread's own sequence, from a random start: the
  // socket is per-thread too, so a datagram left queued by an earlier call
  // carries an earlier xid of this sequence and cannot match, whatever the
  // protocol's xid width.
  thread_local uint32_t next_xid = static_cast<uint32_t>(NewTraceId());
  const uint32_t xid = next_xid++;
  const ControlProtocol& control = GetControlProtocol(spec.binding.control);
  thread_local Bytes wire;  // encode buffer, reused by this thread's calls
  int64_t backoff_ms = RetryPolicy::kBackoffBaseMs;
  Result<Bytes> result = UnavailableError("not attempted");
  for (uint32_t attempt = 0;; ++attempt) {
    Result<int64_t> timeout_ms = AttemptTimeoutMs(spec, attempt);
    if (!timeout_ms.ok()) {
      result = timeout_ms.status();
      break;
    }
    EncodeAttemptTo(control, spec, xid, attempt, &wire);
    Status fits = CheckCallFits(spec, wire.size());
    if (!fits.ok()) {
      result = fits;
      break;
    }
    ++info->attempts;
    Result<RpcReplyMsg> reply = UdpAttemptOnCaller(spec, control, wire, xid, *timeout_ms);
    if (reply.ok()) {
      result = ReplyResult(std::move(reply).value());
      break;
    }
    Result<int64_t> sleep_ms = RetryBackoffMs(spec, attempt, &backoff_ms, reply.status());
    if (!sleep_ms.ok()) {
      result = sleep_ms.status();
      break;
    }
    ++info->retries;
    stat_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(*sleep_ms));
  }
  stat_completed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<RpcReplyMsg> AsyncClientEngine::UdpAttemptOnCaller(const AsyncCallSpec& spec,
                                                          const ControlProtocol& control,
                                                          Bytes& wire, uint32_t xid,
                                                          int64_t timeout_ms) {
  UdpClientSocket& socket = UdpClientSocket::ForThisThread();
  const uint16_t port = spec.binding.port;
  const int64_t deadline_ms = SteadyNowMs() + timeout_ms;
  int copies = 1;
  if (spec.channel.faults != nullptr) {
    HCS_ASSIGN_OR_RETURN(FaultDecision fault, DrawAttemptFault(spec, &wire));
    copies = SendCopies(fault);
    if (fault.delay_ms > 0) {
      // A held send sleeps on the attempt's own clock; one held past the
      // attempt's end is discarded.
      std::this_thread::sleep_for(std::chrono::milliseconds(std::min(fault.delay_ms, timeout_ms)));
      if (fault.delay_ms >= timeout_ms) {
        copies = 0;
      }
    }
  }
  for (int i = 0; i < copies; ++i) {
    HCS_ASSIGN_OR_RETURN(bool sent, socket.Send(port, wire));
    if (!sent) {
      // A drop, as on the loop: the attempt still waits out its timeout,
      // because a late reply to an earlier attempt answers the call too.
      stat_udp_send_drops_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const uint32_t want = MaskXid(spec.binding.control, xid);
  thread_local Bytes datagram;  // the frame, copied out of the receive slot
  // The wait starts from the attempt's deadline, not its timeout: a held
  // send has already spent part of the attempt.
  for (int64_t left = deadline_ms - SteadyNowMs(); left > 0; left = deadline_ms - SteadyNowMs()) {
    HCS_ASSIGN_OR_RETURN(UdpFrame* frame, socket.Receive(left));
    if (frame == nullptr) {
      break;  // nothing more within the attempt's timeout
    }
    if (frame->truncated || frame->size == 0) {
      continue;
    }
    // The loop's matching rule with one pending call: the datagram must
    // come from the call's port and decode, under the call's protocol, to
    // the call's masked xid. A duplicate or a late reply to an earlier call
    // does not, and is dropped.
    if (ntohs(frame->peer.sin_port) == port) {
      datagram.assign(frame->data, frame->data + frame->size);
      Result<RpcReplyMsg> reply = control.DecodeReply(datagram);
      if (reply.ok() && MaskXid(spec.binding.control, reply->xid) == want) {
        return reply;
      }
    }
    stat_udp_unmatched_.fetch_add(1, std::memory_order_relaxed);
  }
  return TimeoutError(StrFormat("no response from %s:%u within the attempt budget",
                                spec.binding.host.c_str(), port));
}

AsyncClientEngine* GlobalAsyncClientEngine() {
  // Function-local static: constructed on first async call, destroyed at
  // exit (which drains outstanding futures and joins the loop thread).
  static AsyncClientEngine engine;
  return &engine;
}

}  // namespace hcs
