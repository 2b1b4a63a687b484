// The HNS library. Logically the HNS is a single centralized facility; its
// implementation is a collection of library routines that access the
// modified-BIND meta store, and it can be linked into any process — a
// client, a dedicated HNS server, or a combined agent (the colocation
// freedom §3 explores).

#ifndef HCS_SRC_HNS_HNS_H_
#define HCS_SRC_HNS_HNS_H_

#include <map>
#include <memory>
#include <string>

#include "src/hns/cache.h"
#include "src/hns/meta_store.h"
#include "src/hns/name.h"
#include "src/hns/nsm_interface.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hcs {

struct HnsOptions {
  // BIND instance this HNS queries for meta information (typically a local
  // caching secondary forwarding to the primary).
  std::string meta_server_host;
  // The modified-BIND primary, target of registrations and zone transfers.
  // Empty: meta_server_host is the primary.
  std::string meta_authority_host;
  // Cache storage mode (the Table 3.2 experiment varies this).
  CacheMode cache_mode = CacheMode::kMarshalled;
  // Record-cache shape (sharding, byte budget, negative TTL).
  HnsCacheOptions cache;
  // Composite binding cache: store fully-resolved FindNSM results keyed by
  // (context, query class), so a warm FindNSM is one probe instead of six.
  // Orthogonal to cache_mode — the record-level cache still serves misses.
  bool composite_cache = false;
};

// What FindNSM hands back: either a linked (same-process) NSM instance or
// an HRPC binding for a remote one.
struct NsmHandle {
  std::string nsm_name;
  Nsm* linked = nullptr;
  HrpcBinding binding;

  bool is_linked() const { return linked != nullptr; }
};

class Hns {
 public:
  // `world` may be null with real transports. `local_host` is the host this
  // HNS instance's process runs on.
  Hns(World* world, std::string local_host, Transport* transport, HnsOptions options);

  Hns(const Hns&) = delete;
  Hns& operator=(const Hns&) = delete;

  // --- FindNSM -------------------------------------------------------------
  // Maps (context of `name`, query class) to a handle for the NSM that can
  // answer, performing the paper's mapping sequence. On a fully cold cache
  // this performs six remote data lookups; with a warm cache, none.
  // `context` bounds the whole sequence (empty: inherit the ambient request
  // context); an already-expired context is shed on entry.
  HCS_NODISCARD Result<NsmHandle> FindNsm(const HnsName& name, const QueryClass& query_class,
                            const RequestContext& context = RequestContext{});

  // Resolves a host name to its internet address through the host's own
  // name service (query class HostAddress). Used by mapping 3 and exposed
  // because it is itself a common client need.
  HCS_NODISCARD Result<uint32_t> ResolveHostAddress(const std::string& host_context,
                                      const std::string& host,
                                      const RequestContext& context = RequestContext{});

  // --- NSM linking -----------------------------------------------------------
  // Links an NSM instance into this process. FindNSM prefers linked
  // instances (local procedure call, no address resolution). Host-address
  // NSMs are normally linked, which is what bounds the FindNSM recursion
  // (paper §3). The instance is shared: it may be linked into several
  // components of one process (client + agent, say).
  HCS_NODISCARD Status LinkNsm(std::shared_ptr<Nsm> nsm);
  // True when an NSM of this name is linked here.
  bool HasLinkedNsm(const std::string& nsm_name) const;
  Nsm* LinkedNsm(const std::string& nsm_name) const;

  // --- Registration ----------------------------------------------------------
  // Forwarded to the meta store (dynamic updates to the modified BIND);
  // registering an NSM extends the functionality of all machines at once.
  // Registrations evict the composite binding-cache entries they affect,
  // whatever the outcome: a lost reply can hide a commit (MetaStore::Commit).
  HCS_NODISCARD Status RegisterNameService(const NameServiceInfo& info);
  HCS_NODISCARD Status RegisterContext(const std::string& context, const std::string& ns_name);
  HCS_NODISCARD Status RegisterNsm(const NsmInfo& info);
  HCS_NODISCARD Status UnregisterNsm(const std::string& ns_name, const QueryClass& query_class);

  // Preloads the cache via a zone transfer of the meta zone; returns bytes
  // transferred (the paper's meta zone was ~2 KB, preload ~390 ms).
  HCS_NODISCARD Result<size_t> PreloadCache();

  HnsCache& cache() { return cache_; }
  CompositeBindingCache& composite_cache() { return composite_; }
  MetaStore& meta() { return meta_; }
  RpcClient& rpc_client() { return rpc_client_; }
  const std::string& local_host() const { return local_host_; }
  const HnsOptions& options() const { return options_; }
  World* world() const { return world_; }

 private:
  static constexpr int kMaxAddressRecursionDepth = 2;

  HCS_NODISCARD Result<uint32_t> ResolveHostAddressAtDepth(const std::string& host_context,
                                             const std::string& host, int depth,
                                             SimTime* min_expires,
                                             const RequestContext& context);
  // The paper's mapping sequence (six data lookups cold), reporting the min
  // expiry of the meta records consumed — the composite entry's TTL source —
  // and the name service the context mapped to (invalidation metadata).
  HCS_NODISCARD Result<NsmHandle> FindNsmUncomposed(const HnsName& name, const QueryClass& query_class,
                                      SimTime* min_expires, std::string* ns_name_out,
                                      const RequestContext& context);

  World* world_;
  std::string local_host_;
  HnsOptions options_;
  RpcClient rpc_client_;
  HnsCache cache_;
  CompositeBindingCache composite_;
  MetaStore meta_;
  std::map<std::string, std::shared_ptr<Nsm>> linked_nsms_;  // by lower-cased name
};

}  // namespace hcs

#endif  // HCS_SRC_HNS_HNS_H_
