// MetaStore: the HNS's meta-naming information, kept in a version of BIND
// modified to support dynamic updates and data of unspecified type
// (Schwartz 1987). The store holds — for the whole confederation — the
// names and binding information of each name service and each NSM, the
// names of all contexts, and the context -> name-service mappings. It holds
// *no* application data: that stays in the underlying name services.
//
// FindNSM is implemented as the paper's sequence of mappings:
//   1. context -> name service name          (one BIND lookup)
//   2. (name service, query class) -> NSM name (one BIND lookup)
//   3. NSM name -> binding info for the NSM  (one BIND lookup + recursive
//      host-address resolution)
// The mappings are deliberately kept separate — collapsing them would
// require redundant storage (e.g. per-context copies of per-service data)
// and caching recovers the cost (paper §3, "Implementation").

#ifndef HCS_SRC_HNS_META_STORE_H_
#define HCS_SRC_HNS_META_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/common/sync.h"
#include "src/hns/cache.h"
#include "src/hns/name.h"
#include "src/rpc/binding.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"

namespace hcs {

// Descriptor of an underlying name service known to the HNS.
struct NameServiceInfo {
  std::string name;  // e.g. "UW-BIND"
  std::string type;  // e.g. "BIND", "Clearinghouse", "Uniflex"

  WireValue ToWire() const;
  HCS_NODISCARD static Result<NameServiceInfo> FromWire(const WireValue& value);
};

// Registration record for one NSM: which (query class, name service) it
// serves and how to call it. The binding information includes the *host
// name* the NSM runs on; turning that into an address is itself an HNS
// naming operation (the recursion FindNSM must handle).
struct NsmInfo {
  std::string nsm_name;      // e.g. "BindingNSM-BIND"
  std::string query_class;   // e.g. "HRPCBinding"
  std::string ns_name;       // the name service it fronts, e.g. "UW-BIND"
  std::string host;          // host the NSM process runs on
  std::string host_context;  // context in which `host` can be resolved
  uint32_t program = 0;
  uint32_t version = 1;
  uint16_t port = 0;
  DataRep data_rep = DataRep::kXdr;
  TransportKind transport = TransportKind::kUdp;
  ControlKind control = ControlKind::kRaw;

  WireValue ToWire() const;
  HCS_NODISCARD static Result<NsmInfo> FromWire(const WireValue& value);
  // The binding that calls this NSM, given `address`, its host's resolved
  // address.
  HrpcBinding ToBinding(uint32_t address) const;
};

class MetaStore {
 public:
  // The meta zone origin; all meta records live under this suffix.
  static constexpr char kMetaZoneOrigin[] = "hns";
  // TTL applied to meta records (meta information changes slowly).
  static constexpr uint32_t kMetaTtlSeconds = 3600;

  // `client` supplies transport/identity; `meta_server_host` is the BIND
  // instance this HNS *queries* (typically a local caching secondary that
  // forwards to the primary); `authority_host` is the modified-BIND primary
  // that accepts dynamic updates and serves zone transfers (empty: same as
  // `meta_server_host`); `cache` is the HNS cache (not owned).
  MetaStore(RpcClient* client, std::string meta_server_host, std::string authority_host,
            HnsCache* cache);

  // --- The FindNSM mappings (cache-aware reads) ---------------------------
  // Each mapping optionally reports the absolute expiry of the record it
  // was served from (`expires_out`), so callers composing several mappings
  // — the composite binding cache — can take the min of the constituent
  // TTLs. `rctx` bounds the upstream fetch on a cache miss (empty: the
  // ambient request context applies).
  // Mapping 1: context -> name service name.
  HCS_NODISCARD Result<std::string> ContextToNameService(const std::string& context,
                                           SimTime* expires_out = nullptr,
                                           const RequestContext& rctx = RequestContext{});
  // Mapping 2: (name service, query class) -> NSM name.
  HCS_NODISCARD Result<std::string> NsmNameFor(const std::string& ns_name, const QueryClass& query_class,
                                 SimTime* expires_out = nullptr,
                                 const RequestContext& rctx = RequestContext{});
  // Mapping 3 (first part): NSM name -> registration record.
  HCS_NODISCARD Result<NsmInfo> NsmLocation(const std::string& nsm_name, SimTime* expires_out = nullptr,
                              const RequestContext& rctx = RequestContext{});
  // Name service descriptor (administration, diagnostics).
  HCS_NODISCARD Result<NameServiceInfo> NameService(const std::string& ns_name);

  // --- Registration (dynamic updates to the modified BIND) ----------------
  // Each call is one dynamic update: one round trip, applied by the
  // authority all or nothing under one serial bump. A record is written
  // delete-then-add inside the list, so a duplicated or retried datagram
  // rewrites it instead of adding its chunks twice. After the update the
  // written names leave the record cache (see Commit).
  HCS_NODISCARD Status RegisterNameService(const NameServiceInfo& info);
  HCS_NODISCARD Status RegisterContext(const std::string& context, const std::string& ns_name);
  // The map entry and the location record, in one update.
  HCS_NODISCARD Status RegisterNsm(const NsmInfo& info);
  // Deletes the map entry and, when the map names an NSM, its location
  // record, in one update. `nsm_name_out`, when given, receives the NSM the
  // map named (empty when it named none), whatever the update's outcome.
  HCS_NODISCARD Status UnregisterNsm(const std::string& ns_name, const QueryClass& query_class,
                                     std::string* nsm_name_out = nullptr);

  // Preloads the cache with the whole meta zone via a BIND zone transfer.
  // Returns the number of bytes transferred.
  HCS_NODISCARD Result<size_t> Preload();

  // A snapshot of everything registered with the HNS (obtained with one
  // zone transfer from the authority): the administrative inventory an
  // operator browses.
  struct Inventory {
    // context -> name service name.
    std::vector<std::pair<std::string, std::string>> contexts;
    std::vector<NameServiceInfo> name_services;
    std::vector<NsmInfo> nsms;
  };
  HCS_NODISCARD Result<Inventory> TakeInventory();

  HnsCache* cache() { return cache_; }
  // Remote meta lookups performed (misses that went to BIND); lets tests
  // assert the paper's "six data mappings" claim.
  uint64_t remote_lookups() const { return remote_lookups_.load(std::memory_order_relaxed); }

  // Overrides the BIND port for both the query server and the authority
  // (default kBindPort). Real-socket tests serve the meta store on an
  // ephemeral port.
  void set_meta_port(uint16_t port) { meta_port_ = port; }

  // Record-name construction (exposed for tests and tooling).
  static std::string ContextRecordName(const std::string& context);
  static std::string NsmMapRecordName(const std::string& ns_name, const QueryClass& qc);
  static std::string NsmLocationRecordName(const std::string& nsm_name);
  static std::string NameServiceRecordName(const std::string& ns_name);

 private:
  // Shared state of one in-flight upstream fetch: concurrent identical
  // misses wait for the leader's result instead of stampeding BIND.
  struct InFlight {
    bool done = false;
    // write_generation_ when the flight was claimed. A commit since then
    // may have changed the record after the upstream read it, so
    // FinishFlight hands the result to the waiters but does not cache it.
    uint64_t generation = 0;
    Result<WireValue> result = Result<WireValue>(UnavailableError("fetch pending"));
    SimTime expires = 0;
    // The leader's absolute deadline (0 = none): followers bound their wait
    // by the earliest of their own deadline and the leader's — a fetch the
    // leader will abandon is not worth outwaiting.
    int64_t leader_deadline_ms = 0;
  };

  // One cache-aware structured read of an unspecified-type meta record.
  // Misses are coalesced (singleflight) and NotFound results are cached
  // negatively under the cache's short negative TTL.
  HCS_NODISCARD Result<WireValue> ReadRecord(const std::string& record_name,
                               SimTime* expires_out = nullptr,
                               const RequestContext& rctx = RequestContext{});
  // The leader's step: one uncached remote BIND lookup via the HRPC
  // interface (stub-generated marshalling), then the reply decoded and
  // `flight` finished.
  void FetchRecord(const std::string& record_name, const std::shared_ptr<InFlight>& flight,
                   const RequestContext& rctx);
  // The decode tail of a BIND query reply (rcode mapping, chunk
  // reassembly, demarshal charge).
  HCS_NODISCARD Result<WireValue> DecodeMetaReply(const std::string& record_name, const Bytes& reply);
  // Publishes a leader's fetch result: fills the cache (unless a commit
  // came after the claim), completes the flight (result and absolute
  // expiry, 0 for a failed fetch), wakes the followers.
  void FinishFlight(const std::string& record_name, const std::shared_ptr<InFlight>& flight,
                    const Result<WireValue>& fetched);

  // The meta zone's unspecified-type chunks, grouped by lower-cased record
  // name, from one zone transfer off the authority (marshal charge
  // included; the demarshal charge is the caller's).
  struct ZoneChunks {
    std::map<std::string, std::vector<ResourceRecord>> by_name;
    size_t bytes = 0;  // rdata bytes of every transferred record
  };
  HCS_NODISCARD Result<ZoneChunks> TransferMetaZone();
  // A new flight for `record_name`, registered as its leader's and stamped
  // with the current write generation.
  std::shared_ptr<InFlight> ClaimFlight(const std::string& record_name,
                                        const RequestContext& rctx)
      HCS_REQUIRES(flight_mu_);
  // Sends `ops` to the authority as one dynamic update. Whatever the
  // outcome (a lost reply can hide a commit), it then bumps the write
  // generation and drops every name the list touched from the record
  // cache, in that order: a read in flight across the commit finds the
  // generation moved and does not refill the cache with what it read.
  HCS_NODISCARD Status Commit(const std::vector<UpdateOperation>& ops);

  HrpcBinding MetaServerBinding(bool authority) const;

  RpcClient* client_;
  std::string meta_server_host_;
  std::string authority_host_;
  HnsCache* cache_;
  uint16_t meta_port_ = 0;  // 0 = kBindPort
  std::atomic<uint64_t> remote_lookups_{0};

  Mutex flight_mu_{"meta-singleflight"};
  CondVar flight_cv_;
  std::map<std::string, std::shared_ptr<InFlight>> in_flight_ HCS_GUARDED_BY(flight_mu_);
  // Commits made through this store (Commit).
  uint64_t write_generation_ HCS_GUARDED_BY(flight_mu_) = 0;
};

}  // namespace hcs

#endif  // HCS_SRC_HNS_META_STORE_H_
