#include "src/rpc/client.h"

#include <algorithm>
#include <deque>

#include "src/common/rand.h"
#include "src/common/strings.h"

namespace hcs {

namespace {

// Depth-indexed thread-local scratch buffers for call encoding. A single
// thread_local Bytes would be clobbered by nested calls: the sim transport
// dispatches handlers synchronously on the calling thread, zero-copy
// dispatch hands the handler an argument view that aliases the outer call's
// encode buffer, and FindNSM-style chains re-enter Call from inside the
// handler. Each nesting depth leases its own buffer (deque: stable
// addresses), so re-encoding a nested call never rewrites bytes an outer
// frame is still reading.
class ScratchLease {
 public:
  ScratchLease() {
    if (depth_ == buffers_.size()) {
      buffers_.emplace_back();
    }
    buffer_ = &buffers_[depth_];
    ++depth_;
  }
  ~ScratchLease() { --depth_; }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Bytes* get() { return buffer_; }

 private:
  static thread_local std::deque<Bytes> buffers_;
  static thread_local size_t depth_;
  Bytes* buffer_;
};

thread_local std::deque<Bytes> ScratchLease::buffers_;
thread_local size_t ScratchLease::depth_ = 0;

// Per-call control-protocol processing charged to the simulation (covers
// both the client and server ends of the exchange).
double ControlCostMs(ControlKind kind) {
  switch (kind) {
    case ControlKind::kSunRpc:
      return kCosts.sunrpc_control_ms;
    case ControlKind::kCourier:
      return kCosts.courier_control_ms;
    case ControlKind::kRaw:
      return kCosts.raw_control_ms;
  }
  return 0.0;
}

// The context a call runs under: `context` when non-empty, else whatever
// the serving runtime installed for the request this thread is handling; a
// call with a deadline always travels under a trace id.
RequestContext EffectiveContext(const RequestContext& context) {
  RequestContext effective = context.empty() ? CurrentRequestContext() : context;
  if (effective.has_deadline() && effective.trace_id == 0) {
    effective.trace_id = NewTraceId();
  }
  return effective;
}

// Client-side shed: a spent budget never goes on the wire.
Status ShedError(const HrpcBinding& binding, const RequestContext& effective) {
  return TimeoutError(StrFormat("call to %s:%u shed before send: budget exhausted (trace %016llx)",
                                binding.host.c_str(), binding.port,
                                static_cast<unsigned long long>(effective.trace_id)));
}

}  // namespace

// Retry policy for budgeted real-transport calls. Attempts are derived from
// the deadline: each attempt's transport budget doubles from kAttemptBaseMs
// and is capped by the remaining overall budget, so a 2000 ms budget yields
// roughly five attempts against a lossy datagram path.
int64_t RetryPolicy::AttemptBudgetMs(uint32_t attempt, int64_t remaining_ms) {
  return std::min(remaining_ms, kAttemptBaseMs << std::min<uint32_t>(attempt, 4));
}

int64_t RetryPolicy::JitteredBackoffMs(uint64_t trace_id, uint32_t wire_attempt,
                                       int64_t backoff_ms, int64_t remaining_ms) {
  Rng rng(trace_id ^ (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(wire_attempt) + 1)));
  int64_t sleep_ms =
      backoff_ms / 2 + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(backoff_ms / 2) + 1));
  return std::min(sleep_ms, remaining_ms);
}

int64_t RetryPolicy::NextBackoffMs(int64_t backoff_ms) {
  return std::min(backoff_ms * 2, kBackoffCapMs);
}

uint32_t RetryPolicy::MaxAttempts(int64_t budget_ms) {
  if (budget_ms <= 0) {
    return 1;
  }
  uint32_t attempts = 1;
  int64_t elapsed = 0;
  int64_t backoff = kBackoffBaseMs;
  while (attempts < 10000) {
    elapsed += backoff / 2;  // the minimum post-attempt sleep
    if (elapsed >= budget_ms) {
      break;
    }
    ++attempts;
    backoff = NextBackoffMs(backoff);
  }
  return attempts;
}

std::optional<Result<Bytes>> RpcClient::PrepareCall(const HrpcBinding& binding,
                                                    uint32_t procedure, BytesView args,
                                                    const RequestContext& context,
                                                    AsyncCallSpec* spec, RpcCallInfo* info) {
  spec->context = EffectiveContext(context);
  info->trace_id = spec->context.trace_id;
  if (spec->context.expired()) {
    return ShedError(binding, spec->context);
  }
  if (spec->channel.kind == AsyncChannelKind::kNone) {
    // No channel (sim, or a fault wrapper around it): the seed's
    // exact semantics, wire bytes, and virtual-clock charges.
    return CallBlocking(GetControlProtocol(binding.control), binding, procedure, args,
                        spec->context, info);
  }
  ChargeMs(world_, ControlCostMs(binding.control));
  spec->binding = &binding;
  spec->procedure = procedure;
  spec->args = args;
  return std::nullopt;
}

Result<Bytes> RpcClient::Call(const HrpcBinding& binding, uint32_t procedure, BytesView args,
                              const RequestContext& context, RpcCallInfo* info_out) {
  AsyncCallSpec spec;
  spec.channel = transport_->async_channel();
  RpcCallInfo info;
  std::optional<Result<Bytes>> local = PrepareCall(binding, procedure, args, context, &spec, &info);
  // CallManyOnCaller ends every call it is handed, so the engine always
  // overwrites this placeholder.
  Result<Bytes> result = local.has_value() ? std::move(*local) : Result<Bytes>(Bytes());
  if (!local.has_value()) {
    engine()->CallManyOnCaller({&spec, 1}, {&result, 1}, {&info, 1});
  }
  if (info_out != nullptr) {
    *info_out = info;
  }
  return result;
}

std::vector<Result<Bytes>> RpcClient::CallMany(const std::vector<Request>& requests,
                                               std::vector<RpcCallInfo>* infos_out) {
  const AsyncChannelSpec channel = transport_->async_channel();
  // Every slot is overwritten: by the call's local outcome, or by the
  // engine, which ends every call it is handed.
  std::vector<Result<Bytes>> results(requests.size(), Bytes());
  std::vector<RpcCallInfo> infos(requests.size());
  // The calls that go to the engine, and the request each one answers.
  std::vector<AsyncCallSpec> specs;
  std::vector<size_t> sent;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    AsyncCallSpec spec;
    spec.channel = channel;
    std::optional<Result<Bytes>> local = PrepareCall(request.binding, request.procedure,
                                                     request.args, request.context, &spec,
                                                     &infos[i]);
    if (local.has_value()) {
      results[i] = std::move(*local);
    } else {
      specs.push_back(std::move(spec));
      sent.push_back(i);
    }
  }
  if (!specs.empty()) {
    std::vector<Result<Bytes>> replies(specs.size(), Bytes());
    std::vector<RpcCallInfo> sent_infos(specs.size());
    engine()->CallManyOnCaller(specs, replies, sent_infos);
    for (size_t k = 0; k < sent.size(); ++k) {
      results[sent[k]] = std::move(replies[k]);
      infos[sent[k]] = sent_infos[k];
    }
  }
  if (infos_out != nullptr) {
    *infos_out = std::move(infos);
  }
  return results;
}

Result<Bytes> RpcClient::CallBlocking(const ControlProtocol& control, const HrpcBinding& binding,
                                      uint32_t procedure, BytesView args,
                                      const RequestContext& effective, RpcCallInfo* info_out) {
  RpcCallView call;
  call.xid = next_xid_.fetch_add(1, std::memory_order_relaxed);
  call.program = binding.program;
  call.version = binding.version;
  call.procedure = procedure;
  call.args = args;
  call.context = effective;
  ScratchLease scratch;
  Bytes& message = *scratch.get();
  control.EncodeCallTo(call, &message);
  ChargeMs(world_, ControlCostMs(binding.control));
  info_out->attempts = 1;
  HCS_ASSIGN_OR_RETURN(Bytes response,
                       transport_->RoundTrip(local_host_, binding.host, binding.port, message));

  HCS_ASSIGN_OR_RETURN(RpcReplyView reply, control.DecodeReplyView(response));
  uint32_t want_xid = MaskXid(binding.control, call.xid);
  if (reply.xid != want_xid) {
    return ProtocolError(
        StrFormat("reply xid %u does not match call xid %u", reply.xid, want_xid));
  }
  if (reply.app_status != StatusCode::kOk) {
    return Status(reply.app_status, std::move(reply.error_message));
  }
  return reply.results.ToBytes();
}

}  // namespace hcs
