// BindServer: a BIND 4.x-style name server over the simulated network.
//
// Two deployment flavours matter to the paper:
//   - the *public* BIND: authoritative zones, queries only;
//   - the *HNS-modified* BIND: additionally accepts dynamic updates and
//     records of unspecified type, and serves zone transfers used to
//     preload the HNS cache (Schwartz 1987).
// A server may also be configured with a forwarder, giving the classic
// caching-secondary behaviour: authoritative miss -> recursive query to the
// forwarder -> TTL-cached reply.

#ifndef HCS_SRC_BINDNS_SERVER_H_
#define HCS_SRC_BINDNS_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/bindns/zone.h"
#include "src/rpc/client.h"
#include "src/rpc/server.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

struct BindServerOptions {
  // Accept kBindProcUpdate (the HNS-modified BIND).
  bool allow_dynamic_update = false;
  // Accept kUnspec records (the HNS-modified BIND).
  bool allow_unspecified_type = false;
  // When set, recursive queries that miss authoritative data are forwarded
  // to the BIND server on this host and the answers cached by TTL.
  std::string forwarder_host;
};

// (The update-notification fan-out is configured per server with
// AddNotifyTarget, not via options, because targets are usually installed
// after the primary.)

class BindServer {
 public:
  // Creates the server, registers it in the world at (host, kBindPort), and
  // hands ownership to the world.
  HCS_NODISCARD static Result<BindServer*> InstallOn(World* world, const std::string& host,
                                       BindServerOptions options);

  // Adds an authoritative zone rooted at `origin`; returns it for loading.
  HCS_NODISCARD Result<Zone*> AddZone(const std::string& origin);

  // Adds a *secondary* copy of `origin`, refreshed from the BIND server on
  // `primary_host` via zone transfer. The first transfer happens on the
  // next RefreshSecondaryZones() (or periodic refresh tick).
  HCS_NODISCARD Status AddSecondaryZone(const std::string& origin, const std::string& primary_host);

  // Checks each secondary's serial against its primary and transfers the
  // zone when stale. Returns the number of zones transferred.
  HCS_NODISCARD Result<size_t> RefreshSecondaryZones();

  // Schedules RefreshSecondaryZones() every `interval_seconds` on the
  // world's event queue (classic BIND secondary refresh timer).
  void SchedulePeriodicRefresh(double interval_seconds);

  // The zone whose origin has the longest suffix match with `name`, or
  // nullptr.
  Zone* FindZone(const std::string& name);

  // --- Local (linked, non-RPC) interface -----------------------------------
  // Used by colocated processes; charges server CPU but no network.
  HCS_NODISCARD Result<BindQueryResponse> QueryLocal(const BindQueryRequest& request);
  // Applies an update's operation list all or nothing (Zone::Apply); every
  // operation must fall in one zone. A refused list (kRefused) changes
  // nothing. A committed one pushes one invalidation per distinct name to
  // the notify targets.
  HCS_NODISCARD Result<BindUpdateResponse> UpdateLocal(const BindUpdateRequest& request);
  HCS_NODISCARD Result<BindAxfrResponse> AxfrLocal(const BindAxfrRequest& request);

  RpcServer* rpc() { return &rpc_server_; }
  const std::string& host() const { return host_; }

  // Forwarding-cache statistics (for tests).
  uint64_t forward_cache_hits() const { return forward_cache_hits_; }
  uint64_t forward_cache_misses() const { return forward_cache_misses_; }
  // Drops all cached forwarded answers (cold-cache experiment control).
  void ClearForwardCache() { forward_cache_.clear(); }
  // Registers a secondary to be sent cache invalidations when a dynamic
  // update changes a name on this (primary) server.
  void AddNotifyTarget(const std::string& host) { notify_targets_.push_back(host); }
  // Drops cached forwarded answers for one name (any record type).
  void InvalidateForwarded(const std::string& name);

 private:
  BindServer(World* world, std::string host, BindServerOptions options);
  void RegisterHandlers();

  // Serves a query from authoritative data, the forward cache, or the
  // forwarder, in that order.
  HCS_NODISCARD Result<BindQueryResponse> HandleQuery(const BindQueryRequest& request);
  HCS_NODISCARD Result<BindQueryResponse> ForwardQuery(const BindQueryRequest& request);

  struct CacheEntry {
    std::vector<ResourceRecord> answers;
    Rcode rcode = Rcode::kNoError;
    SimTime expires = 0;
  };

  World* world_;
  std::string host_;
  BindServerOptions options_;
  RpcServer rpc_server_;
  struct SecondaryConfig {
    std::string origin;
    std::string primary_host;
    Zone* zone;  // owned by zones_
  };

  std::vector<std::unique_ptr<Zone>> zones_;
  std::vector<SecondaryConfig> secondaries_;
  SimNetTransport transport_;
  RpcClient forward_client_;
  std::map<std::string, CacheEntry> forward_cache_;
  std::vector<std::string> notify_targets_;
  uint64_t forward_cache_hits_ = 0;
  uint64_t forward_cache_misses_ = 0;
};

}  // namespace hcs

#endif  // HCS_SRC_BINDNS_SERVER_H_
