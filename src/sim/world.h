// World: one simulated HCS internetwork — the clock, the cost model, the
// hosts, and the message-level endpoint registry that simulated servers
// plug into.
//
// Execution model: client calls are synchronous C++ calls; the virtual
// clock is advanced by (a) network latency per message exchange, computed
// from kCosts and the actual request/response byte counts, and (b)
// explicit CPU/disk charges made by servers and marshalling code while they
// run, each one ChargeMs call. This reproduces the latency composition of
// the paper's experiments deterministically.

#ifndef HCS_SRC_SIM_WORLD_H_
#define HCS_SRC_SIM_WORLD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"

namespace hcs {

// A message-level server endpoint: one (host, port) in the simulation.
// Implementations charge their processing costs to the world clock while
// handling a message.
class SimService {
 public:
  virtual ~SimService() = default;
  HCS_NODISCARD virtual Result<Bytes> HandleMessage(const Bytes& request) = 0;

  // Zero-copy entry point used by the real-socket serving runtimes: the
  // request bytes are a view into the arrival buffer, valid only for the
  // duration of the call (DESIGN.md §13). The default bridges to
  // HandleMessage with a copy; services on the hot path (RpcServer)
  // override it to decode and dispatch without one.
  HCS_NODISCARD virtual Result<Bytes> HandleFrame(const uint8_t* data, size_t size) {
    return HandleMessage(Bytes(data, data + size));
  }
};

// Traffic counters, used by tests to assert call-graph properties (e.g.
// "a cold FindNSM performs six remote lookups") and by benches for
// reporting.
struct TrafficStats {
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  // Messages delivered per destination "host:port".
  std::map<std::string, uint64_t> messages_per_endpoint;

  void Clear() {
    total_messages = 0;
    total_bytes = 0;
    messages_per_endpoint.clear();
  }
};

class World {
 public:
  World() : events_(&clock_) {}

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }
  Network& network() { return network_; }
  const Network& network() const { return network_; }
  EventQueue& events() { return events_; }
  TrafficStats& stats() { return stats_; }

  // Registers a service at (host, port). The host must exist. The service
  // is not owned; it must outlive the registration (use OwnService to hand
  // ownership to the world).
  HCS_NODISCARD Status RegisterService(const std::string& host, uint16_t port, SimService* service);

  // Removes a registration (e.g., server crash injection).
  void UnregisterService(const std::string& host, uint16_t port);

  // Transfers ownership of a service object to the world, keeping it alive
  // for the world's lifetime. Returns the raw pointer for registration.
  template <typename T>
  T* OwnService(std::unique_ptr<T> service) {
    T* raw = service.get();
    owned_.push_back(std::move(service));
    return raw;
  }

  // Performs one message exchange from a process on `from_host` to the
  // service at (`to_host`, `port`): advances the clock by the network round
  // trip (same-host exchanges are cheaper), dispatches to the service (which
  // charges its own processing), and returns the response.
  HCS_NODISCARD Result<Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                          uint16_t port, const Bytes& request);

  // True when a service is registered at (host, port).
  bool HasService(const std::string& host, uint16_t port) const;

  // --- Chaos controls (fault-injection scenarios) --------------------------
  // A crashed host keeps its registrations but answers nothing: every
  // exchange to it fails kUnavailable until RestartHost. This models a
  // whole-machine crash/restart, distinct from UnregisterService (one
  // service cleanly gone).
  void CrashHost(const std::string& host);
  void RestartHost(const std::string& host);
  bool HostCrashed(const std::string& host) const;

  // Partitions the network into `group` vs everyone else: exchanges that
  // cross the cut fail kTimeout (the request is charged to the clock — the
  // bytes left, nothing came back). Hosts on the same side communicate
  // normally. HealPartition removes the cut.
  void Partition(std::set<std::string> group);
  void HealPartition();

 private:
  static std::string EndpointKey(const std::string& host, uint16_t port);

  VirtualClock clock_;
  Network network_;
  EventQueue events_;
  TrafficStats stats_;
  std::map<std::string, SimService*> services_;
  std::vector<std::shared_ptr<void>> owned_;
  // Chaos state: crashed hosts and the current partition group (lowercased
  // host names; empty set = no partition).
  std::set<std::string> crashed_hosts_;
  std::set<std::string> partition_group_;
  bool partitioned_ = false;
};

// Virtual time from one place. Every simulated cost is one ChargeMs call and
// every TTL reads ClockNow. Without a World (a real transport) a charge is
// nothing and time is the steady clock: real time is real.

// Charges `ms` of CPU, disk or protocol time to `world`'s clock. Each call
// truncates to whole microseconds (MsToSim), and the seed goldens rely on
// that per call, so two charges are not one charge of their sum.
inline void ChargeMs(World* world, double ms) {
  if (world != nullptr) {
    world->clock().AdvanceMs(ms);
  }
}

// `world`'s virtual time, or without one a monotonic real clock, both in
// microseconds: TTLs hold outside the simulator too.
SimTime ClockNow(const World* world);

}  // namespace hcs

#endif  // HCS_SRC_SIM_WORLD_H_
