// RpcClient: the client-side HRPC runtime. At call time the binding selects
// the control protocol (and, at the stub layer, the data representation);
// the transport is injected. This is the "mix and match" of RPC components
// described by the HRPC design: the same client object can call a Sun RPC
// server, a Courier server, and a raw message-passing program.

#ifndef HCS_SRC_RPC_CLIENT_H_
#define HCS_SRC_RPC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/rpc/async_client.h"  // RpcCallInfo, AsyncCallSpec, AsyncClientEngine
#include "src/rpc/binding.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

// The budgeted-call retry policy: attempt budgets and the exponential
// backoff/jitter schedule every UDP call follows (the one retry loop;
// src/rpc/async_client.cc). Exposed as pure
// functions so tests assert the exact deterministic schedule instead of
// re-deriving (and silently diverging from) the constants, and so chaos
// scenarios can bound "retries never exceed the transport budget" from the
// same arithmetic the client uses.
struct RetryPolicy {
  static constexpr int64_t kAttemptBaseMs = 100;  // first attempt's budget
  static constexpr int64_t kBackoffBaseMs = 10;   // initial backoff
  static constexpr int64_t kBackoffCapMs = 250;   // backoff ceiling

  // Transport budget for 0-based `attempt` given the remaining overall
  // budget: doubles from kAttemptBaseMs (capped at 16x) and never exceeds
  // what is left.
  static int64_t AttemptBudgetMs(uint32_t attempt, int64_t remaining_ms);

  // The post-attempt sleep: backoff/2 plus deterministic jitter in
  // [0, backoff/2], seeded from (trace id, wire attempt counter) so a given
  // call's schedule replays, capped by the remaining budget.
  static int64_t JitteredBackoffMs(uint64_t trace_id, uint32_t wire_attempt,
                                   int64_t backoff_ms, int64_t remaining_ms);

  // The backoff value after one retry (doubles, capped).
  static int64_t NextBackoffMs(int64_t backoff_ms);

  // Upper bound on transport attempts a budget admits, assuming every
  // attempt fails instantly and every jitter draw lands on its minimum.
  // Chaos tests assert observed attempts <= MaxAttempts(budget).
  static uint32_t MaxAttempts(int64_t budget_ms);
};

class RpcClient {
 public:
  // `world` may be null when running over a real (non-simulated) transport;
  // control-protocol CPU costs are then not charged (real time is real).
  // `local_host` is the simulated host this client's process runs on.
  RpcClient(World* world, std::string local_host, Transport* transport)
      : world_(world), local_host_(std::move(local_host)), transport_(transport) {}

  // Calls `procedure` with pre-marshalled `args`; returns the raw result
  // bytes. A Status from the remote handler is reconstructed and returned
  // as this call's status.
  //
  // The effective request context is `context` when non-empty, else the
  // ambient CurrentRequestContext() (installed by the serving runtime —
  // this is how a deadline crosses server hops without every API carrying
  // it). A spent budget is shed before any send. When the effective context
  // has a deadline AND the transport has a channel, the call runs the
  // per-attempt retry loop: exponential backoff with deterministic jitter,
  // each attempt's timeout capped by the remaining overall budget, the
  // attempt counter re-marshalled per try. Otherwise exactly one attempt is
  // made (the seed behavior; sim runs stay deterministic).
  //
  // Where it runs depends on the transport's channel. Over UDP the call is
  // a batch of one on the calling thread's socket
  // (AsyncClientEngine::CallManyOnCaller). A channel-less transport (sim,
  // loopback, a fault wrapper around either) runs the blocking path inline.
  HCS_NODISCARD Result<Bytes> Call(const HrpcBinding& binding, uint32_t procedure, const Bytes& args,
                     const RequestContext& context = RequestContext{},
                     RpcCallInfo* info_out = nullptr);

  // One call of a CallMany batch, with Call's arguments.
  struct Request {
    HrpcBinding binding;
    uint32_t procedure = 0;
    Bytes args;
    RequestContext context;  // empty: the ambient context, as in Call
  };

  // Makes every call of `requests` and returns their results in request
  // order, with each call's telemetry in `*infos_out` when given. Each
  // request resolves its own context as Call does, so a budgeted one
  // travels under its own trace id. Over UDP the calls run as one batch on
  // the calling thread, all in flight together (up to kMaxUdpBatch
  // attempts), so N calls cost about one round trip. A channel-less
  // transport runs them inline through the blocking path, one at a time, in
  // request order: virtual-clock charges and wire bytes stay the seed's.
  HCS_NODISCARD std::vector<Result<Bytes>> CallMany(const std::vector<Request>& requests,
                                                    std::vector<RpcCallInfo>* infos_out = nullptr);

  const std::string& local_host() const { return local_host_; }
  World* world() const { return world_; }
  Transport* transport() const { return transport_; }

  // Test hook: count this client's UDP calls into `engine`'s stats instead
  // of the process global's. Null restores the default.
  void set_async_engine(AsyncClientEngine* engine) { async_engine_ = engine; }

 private:
  AsyncClientEngine* engine() const {
    return async_engine_ != nullptr ? async_engine_ : GlobalAsyncClientEngine();
  }
  // Charges the control protocol's per-call processing to the simulation
  // (a no-op without a World).
  void ChargeControlCost(ControlKind control);

  // The part of a call that never reaches the engine: resolves the
  // effective context into `*spec` and `info->trace_id`, sheds a spent
  // budget, and runs a call on a channel-less transport (`spec->channel`)
  // inline. Returns the call's result when it ended here; nullopt when
  // `*spec` is complete and ready for the engine.
  std::optional<Result<Bytes>> PrepareCall(const HrpcBinding& binding, uint32_t procedure,
                                           const Bytes& args, const RequestContext& context,
                                           AsyncCallSpec* spec, RpcCallInfo* info);

  // The seed's synchronous call path for channel-less transports: exactly
  // one RoundTrip, on the virtual clock when there is one, never retried.
  // `effective` is the already-resolved context.
  HCS_NODISCARD Result<Bytes> CallBlocking(const ControlProtocol& control,
                                           const HrpcBinding& binding, uint32_t procedure,
                                           const Bytes& args, const RequestContext& effective,
                                           RpcCallInfo* info_out);

  World* world_;
  std::string local_host_;
  Transport* transport_;
  AsyncClientEngine* async_engine_ = nullptr;
  // Atomic: one RpcClient serves concurrent callers on the real-transport
  // path (the Hns's readers and registration writers share it).
  std::atomic<uint32_t> next_xid_{1};
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_CLIENT_H_
