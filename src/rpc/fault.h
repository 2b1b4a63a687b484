// FaultInjector: deterministic, seeded fault injection for the transport
// stack. The paper's argument is that a federated name service stays usable
// while the services underneath it fail and evolve; the deadlines, retries,
// and total failure paths of the earlier PRs are only trustworthy if
// something actually drives them under packet loss, duplication,
// reordering, delay, corruption, and partitions. This component generates
// those conditions *reproducibly*:
//
//   - every probabilistic decision is drawn from a SplitMix64 stream that is
//     a pure function of (seed, endpoint, per-endpoint sequence number), so
//     a failing chaos run prints its seed and replays the same per-endpoint
//     decision sequence regardless of thread interleaving;
//   - faults are described per endpoint ("host:port", "host", or "*") by a
//     FaultPlan: a phased schedule of FaultSpecs, e.g. "healthy for 500 ms,
//     blackhole for 2 s, then healed forever";
//   - the injector interposes at two points: FaultInjectingTransport wraps
//     any client Transport (simulated or real), and UdpServerHost's serve
//     loops filter inbound datagrams through the process-global injector
//     a test installs (InstallGlobalFaultInjector). Over a real transport
//     the wrapper only hands its injector to the UDP client core, which
//     draws one decision per attempt as the attempt starts
//     (src/rpc/async_client.h); over the sim it wraps RoundTrip.
//
// Nothing here runs unless an injector is configured: with none installed
// and no wrapper, a serve loop pays one acquire load of the global injector
// per frame, and the sim-world experiment outputs stay byte-identical to
// the seed.

#ifndef HCS_SRC_RPC_FAULT_H_
#define HCS_SRC_RPC_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/common/sync.h"
#include "src/rpc/transport.h"

namespace hcs {

class UdpServerHost;

// Fault probabilities one phase applies to matching traffic. Probabilities
// are evaluated independently, in a fixed draw order, so the random-stream
// consumption per decision is constant (the replay property depends on it).
struct FaultSpec {
  double drop = 0.0;       // message lost; surfaces as kTimeout at the caller
  double duplicate = 0.0;  // message delivered (and handled) twice
  double reorder = 0.0;    // message held back so later traffic overtakes it
  double corrupt = 0.0;    // deterministic bit flips in the frame
  double delay = 0.0;      // extra latency drawn from [delay_min, delay_max]
  int64_t delay_min_ms = 1;
  int64_t delay_max_ms = 5;
  // Everything to the endpoint is lost: the scripted form of a partition or
  // a crashed host. Surfaces as kUnavailable (a drop surfaces as kTimeout).
  bool blackhole = false;

  bool healthy() const {
    return drop <= 0 && duplicate <= 0 && reorder <= 0 && corrupt <= 0 && delay <= 0 &&
           !blackhole;
  }
};

// One step of a plan's schedule. duration_ms <= 0 marks the terminal phase,
// which holds forever once reached (the last phase is terminal regardless).
struct FaultPhase {
  int64_t duration_ms = 0;
  FaultSpec spec;
};

// The schedule applied to one endpoint pattern. Matching precedence at
// decision time: exact "host:port", then "host", then "*". The phase clock
// anchors when the plan is installed (or at ResetPhaseClocks).
struct FaultPlan {
  std::string endpoint;
  std::vector<FaultPhase> phases;
};

struct FaultConfig {
  uint64_t seed = 1;
  std::vector<FaultPlan> plans;
};

// One decision, drawn once per message per direction. `sequence` is the
// per-endpoint decision counter the draw was keyed by.
struct FaultDecision {
  bool drop = false;
  bool blackhole = false;
  bool duplicate = false;
  bool reorder = false;
  bool corrupt = false;
  int64_t delay_ms = 0;  // combined injected latency (delay and/or reorder)
  uint64_t corrupt_salt = 0;
  uint64_t sequence = 0;

  bool pass() const {
    return !drop && !blackhole && !duplicate && !reorder && !corrupt && delay_ms == 0;
  }
};

// Injected-fault counters plus the serving runtime's per-endpoint drop
// counters, gathered in one place so chaos tests assert on counts instead
// of sleeping and hoping (see CollectFaultStats).
struct FaultStats {
  uint64_t decisions = 0;
  uint64_t drops = 0;
  uint64_t duplicates = 0;
  uint64_t reorders = 0;
  uint64_t corruptions = 0;
  uint64_t delays = 0;
  uint64_t delay_ms_total = 0;
  uint64_t blackholed = 0;
  // Inbound messages the serve-side hook discarded (injected drops).
  uint64_t server_drops = 0;
  // Per-endpoint drops recorded by the serving runtime itself (garbled
  // messages, undeliverable replies, injected inbound drops), keyed by
  // local port. Populated by CollectFaultStats.
  std::map<uint16_t, uint64_t> endpoint_drops;

  uint64_t EndpointDropTotal() const {
    uint64_t total = 0;
    for (const auto& [port, count] : endpoint_drops) {
      total += count;
    }
    return total;
  }
};

// Deterministic chaos source. Thread-safe; decisions for one endpoint form
// a reproducible stream no matter which threads draw them.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  uint64_t seed() const { return config_.seed; }

  // --- Plan mutation (scenario scripting) ---------------------------------
  // Installs (or replaces) the plan for `plan.endpoint`; its phase clock
  // starts now.
  void SetPlan(FaultPlan plan);
  void RemovePlan(const std::string& endpoint);
  // Convenience: a single-phase always-blackhole plan for `endpoint`.
  void BlackholeEndpoint(const std::string& endpoint);
  // Removes the endpoint's plan entirely (traffic passes untouched).
  void HealEndpoint(const std::string& endpoint);

  // --- Phase time ---------------------------------------------------------
  // Phase schedules advance on this clock; the default is the process
  // steady clock. Sim-world tests install the virtual clock so schedules
  // are deterministic ("healthy 500ms" means 500 simulated ms).
  void SetTimeFn(std::function<int64_t()> now_ms);
  // Re-anchors every plan's phase clock at now.
  void ResetPhaseClocks();

  // Draws the decision for one message toward (host, port). Consumes a
  // fixed number of PRNG values regardless of the active spec.
  FaultDecision Decide(const std::string& host, uint16_t port);

  // Flips 1..3 bits of `frame` at positions derived from `salt` (a pure
  // function: the same salt corrupts the same frame the same way). Empty
  // frames are left alone. The span overload corrupts a frame in place in
  // its arrival buffer (the UDP serve loop).
  static void CorruptFrame(Bytes* frame, uint64_t salt);
  static void CorruptFrame(uint8_t* data, size_t size, uint64_t salt);

  // Counters accumulated so far (endpoint_drops is left empty here — the
  // serving runtime owns those; see CollectFaultStats). Lock-free: the
  // counters are relaxed atomics, so stats() never contends with Decide on
  // the serve hot path.
  FaultStats stats() const;
  void NoteServerDrop();

  // --- Decision trace (replay assertions) ---------------------------------
  // When enabled, every Decide appends "endpoint#sequence:flags" to a
  // bounded trace; two injectors with equal configs and seeds produce equal
  // per-endpoint traces.
  void set_trace_enabled(bool enabled);
  std::vector<std::string> TakeTrace();

 private:
  struct PlanState {
    FaultPlan plan;
    int64_t epoch_ms = 0;  // phase clock anchor
  };

  int64_t Now() const;
  // The spec currently in force for `endpoint_key` ("host:port"), honoring
  // plan precedence and phase schedules. Null when no plan matches.
  const FaultSpec* ActiveSpec(const std::string& host_key, const std::string& endpoint_key) const
      HCS_REQUIRES(mu_);

  // Injected-fault counters. Relaxed atomics, not HCS_GUARDED_BY(mu_):
  // these are pure tallies (no invariant couples them), so readers never
  // take the decision lock and NoteServerDrop is lock-free on the serve
  // path. mu_ still guards everything with structure: plans, per-endpoint
  // sequences, the time source, and the trace.
  struct Counters {
    std::atomic<uint64_t> decisions{0};
    std::atomic<uint64_t> drops{0};
    std::atomic<uint64_t> duplicates{0};
    std::atomic<uint64_t> reorders{0};
    std::atomic<uint64_t> corruptions{0};
    std::atomic<uint64_t> delays{0};
    std::atomic<uint64_t> delay_ms_total{0};
    std::atomic<uint64_t> blackholed{0};
    std::atomic<uint64_t> server_drops{0};
  };

  FaultConfig config_;
  mutable Mutex mu_{"fault-injector"};
  std::map<std::string, PlanState> plans_ HCS_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> sequence_ HCS_GUARDED_BY(mu_);
  std::function<int64_t()> now_ms_ HCS_GUARDED_BY(mu_);
  Counters counters_;
  bool trace_enabled_ HCS_GUARDED_BY(mu_) = false;
  std::vector<std::string> trace_ HCS_GUARDED_BY(mu_);
};

// The process-global injector the serving runtimes consult for inbound
// traffic. Null (the common case) unless a test installed one.
FaultInjector* GlobalFaultInjector();
// Installs `injector` (not owned; pass nullptr to uninstall). Tests pair
// this with uninstall in their teardown.
void InstallGlobalFaultInjector(FaultInjector* injector);

// Serve-side inbound hook for the UDP serve loop. Draws one decision for
// ("local", local_port) per frame (never per batch) and applies it to the
// frame in place in the arrival buffer (corruption, injected latency).
// Returns Ok when the frame must be dispatched; a non-OK Status means the
// injector discarded it and the caller must drop the frame *and account
// for it* — discarding the returned Status unexamined is a lint error
// (tools/lint_failpaths.py), because a dropped-but-dispatched message
// desynchronizes every replay. The loop skips zero-byte datagrams before
// this call: they draw no decision. Passing a null `injector` is a no-op.
HCS_NODISCARD Status FilterInboundFrame(FaultInjector* injector, uint16_t local_port,
                                        uint8_t* data, size_t size);

// Gathers the injector's counters and the serving host's per-endpoint drop
// counters into one FaultStats (either argument may be null).
FaultStats CollectFaultStats(const FaultInjector* injector, const UdpServerHost* host);

// Client-side interposer: wraps any Transport and applies the injector's
// decisions to each attempt. Over a transport with a channel (real UDP) it
// hands its injector to the UDP client core with that channel, which
// applies one decision per attempt as the attempt starts, on the code path
// production runs; `world` stays null there. Over a channel-less transport
// (the sim testbed, built with its World) it wraps RoundTrip: injected
// latency is one ChargeMs to the virtual clock; drops surface as kTimeout,
// exactly what a lost datagram looks like, and blackholes as kUnavailable.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(Transport* inner, FaultInjector* injector, World* world = nullptr)
      : inner_(inner), injector_(injector), world_(world) {}

  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& message) override;

  // The inner transport's channel, carrying this wrapper's injector.
  AsyncChannelSpec async_channel() const override {
    AsyncChannelSpec channel = inner_->async_channel();
    channel.faults = injector_;
    return channel;
  }

  Transport* inner() const { return inner_; }
  FaultInjector* injector() const { return injector_; }

 private:
  Transport* inner_;
  FaultInjector* injector_;
  World* world_;
};

}  // namespace hcs

#endif  // HCS_SRC_RPC_FAULT_H_
