#include "src/hns/hns.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace hcs {

Hns::Hns(World* world, std::string local_host, Transport* transport, HnsOptions options)
    : world_(world),
      local_host_(std::move(local_host)),
      options_(std::move(options)),
      rpc_client_(world, local_host_, transport),
      cache_(world, options_.cache_mode, options_.cache),
      composite_(world),
      meta_(&rpc_client_, options_.meta_server_host, options_.meta_authority_host, &cache_) {}

Status Hns::LinkNsm(std::shared_ptr<Nsm> nsm) {
  std::string key = AsciiToLower(nsm->info().nsm_name);
  if (key.empty()) {
    return InvalidArgumentError("NSM has no name");
  }
  if (linked_nsms_.count(key) != 0) {
    return AlreadyExistsError("NSM already linked: " + nsm->info().nsm_name);
  }
  linked_nsms_[key] = std::move(nsm);
  return Status::Ok();
}

bool Hns::HasLinkedNsm(const std::string& nsm_name) const {
  return linked_nsms_.count(AsciiToLower(nsm_name)) != 0;
}

Nsm* Hns::LinkedNsm(const std::string& nsm_name) const {
  auto it = linked_nsms_.find(AsciiToLower(nsm_name));
  return it == linked_nsms_.end() ? nullptr : it->second.get();
}

Result<NsmHandle> Hns::FindNsm(const HnsName& name, const QueryClass& query_class,
                               const RequestContext& context) {
  const RequestContext& effective = context.empty() ? CurrentRequestContext() : context;
  if (effective.expired()) {
    // The caller's budget is already spent; answering would arrive into the
    // void. Shed before touching the cache or the meta store.
    return TimeoutError(StrFormat("FindNSM shed: budget spent %lld ms ago (trace %016llx)",
                                  static_cast<long long>(-effective.remaining_ms()),
                                  static_cast<unsigned long long>(effective.trace_id)));
  }

  // Composite fast path: a warm FindNSM is one probe + one copy of the
  // fully-resolved handle, instead of six record-cache probes (and six stub
  // demarshals in marshalled mode).
  if (options_.composite_cache) {
    if (std::optional<CompositeEntry> hit = composite_.Get(name.context, query_class)) {
      NsmHandle handle;
      handle.nsm_name = hit->nsm_name;
      handle.linked = LinkedNsm(hit->nsm_name);
      handle.binding = std::move(hit->binding);
      return handle;
    }
  }

  SimTime min_expires = std::numeric_limits<SimTime>::max();
  std::string ns_name;
  const uint64_t composite_generation = composite_.generation();
  HCS_ASSIGN_OR_RETURN(NsmHandle handle,
                       FindNsmUncomposed(name, query_class, &min_expires, &ns_name, effective));

  if (options_.composite_cache) {
    SimTime cap = CacheNow(world_) +
                  MsToSim(static_cast<double>(options_.composite_ttl_cap_seconds) * 1000.0);
    CompositeEntry entry;
    entry.nsm_name = handle.nsm_name;
    entry.binding = handle.binding;
    entry.context = name.context;
    entry.query_class = query_class;
    entry.ns_name = ns_name;
    entry.expires = std::min(min_expires, cap);
    composite_.Put(std::move(entry), composite_generation);
  }
  return handle;
}

void Hns::PrefetchFindNsm(const std::vector<std::pair<std::string, QueryClass>>& pairs,
                          const RequestContext& context) {
  const RequestContext& effective = context.empty() ? CurrentRequestContext() : context;
  if (effective.expired()) {
    return;  // FindNsm sheds and reports; nothing to warm
  }

  // Wave 1: every context record, concurrently.
  std::vector<std::string> wave;
  wave.reserve(pairs.size());
  for (const auto& [ctx, qc] : pairs) {
    wave.push_back(MetaStore::ContextRecordName(ctx));
  }
  meta_.PrefetchRecords(wave, effective);

  // Wave 2 needs each context's name service — a cache hit after wave 1
  // (a wave-1 failure degrades that pair to FindNsm's blocking path).
  wave.clear();
  std::vector<std::pair<std::string, QueryClass>> mapped;  // (ns_name, qc)
  for (const auto& [ctx, qc] : pairs) {
    Result<std::string> ns_name = meta_.ContextToNameService(ctx, nullptr, effective);
    if (!ns_name.ok()) {
      continue;
    }
    wave.push_back(MetaStore::NsmMapRecordName(*ns_name, qc));
    mapped.emplace_back(std::move(*ns_name), qc);
  }
  meta_.PrefetchRecords(wave, effective);

  // Wave 3: the designated NSMs' location records.
  wave.clear();
  for (const auto& [ns_name, qc] : mapped) {
    Result<std::string> nsm_name = meta_.NsmNameFor(ns_name, qc, nullptr, effective);
    if (!nsm_name.ok()) {
      continue;
    }
    wave.push_back(MetaStore::NsmLocationRecordName(*nsm_name));
  }
  meta_.PrefetchRecords(wave, effective);
  // Host-address resolution inside mapping 3 is left to FindNsm: the
  // HostAddress NSMs are normally linked (the §3 recursion bound), so it
  // costs no remote exchange.
}

Result<NsmHandle> Hns::FindNsmUncomposed(const HnsName& name, const QueryClass& query_class,
                                         SimTime* min_expires, std::string* ns_name_out,
                                         const RequestContext& context) {
  SimTime expires = 0;
  // Mapping 1: context -> name service name.
  HCS_ASSIGN_OR_RETURN(std::string ns_name,
                       meta_.ContextToNameService(name.context, &expires, context));
  *min_expires = std::min(*min_expires, expires);
  // Mapping 2: (name service, query class) -> NSM name.
  HCS_ASSIGN_OR_RETURN(std::string nsm_name,
                       meta_.NsmNameFor(ns_name, query_class, &expires, context));
  *min_expires = std::min(*min_expires, expires);
  *ns_name_out = std::move(ns_name);

  NsmHandle handle;
  handle.nsm_name = nsm_name;
  // Colocation decides how the designated NSM gets *called*, not which
  // mappings run: FindNSM determines the full handle either way, so a linked
  // instance is noted here but the binding is still resolved below. (Only
  // the HostAddress NSMs used inside mapping 3 short-circuit — that is the
  // recursion-avoidance linking of §3.)
  handle.linked = LinkedNsm(nsm_name);

  // Mapping 3: NSM name -> binding information. The stored record carries
  // the NSM's host *name*; resolving it to an address is itself an HNS
  // naming operation (two more meta mappings plus one underlying-service
  // lookup when cold).
  HCS_ASSIGN_OR_RETURN(NsmInfo info, meta_.NsmLocation(nsm_name, &expires, context));
  *min_expires = std::min(*min_expires, expires);
  HCS_ASSIGN_OR_RETURN(uint32_t address, ResolveHostAddressAtDepth(info.host_context, info.host,
                                                                   0, min_expires, context));

  handle.binding = info.ToBinding(address);
  return handle;
}

Result<uint32_t> Hns::ResolveHostAddress(const std::string& host_context,
                                         const std::string& host,
                                         const RequestContext& context) {
  SimTime ignored = std::numeric_limits<SimTime>::max();
  const RequestContext& effective = context.empty() ? CurrentRequestContext() : context;
  return ResolveHostAddressAtDepth(host_context, host, 0, &ignored, effective);
}

Result<uint32_t> Hns::ResolveHostAddressAtDepth(const std::string& host_context,
                                                const std::string& host, int depth,
                                                SimTime* min_expires,
                                                const RequestContext& context) {
  if (depth > kMaxAddressRecursionDepth) {
    return UnavailableError(
        "host address recursion too deep; link a HostAddress NSM into this process");
  }
  SimTime expires = 0;
  HCS_ASSIGN_OR_RETURN(std::string ns_name,
                       meta_.ContextToNameService(host_context, &expires, context));
  *min_expires = std::min(*min_expires, expires);
  HCS_ASSIGN_OR_RETURN(std::string nsm_name,
                       meta_.NsmNameFor(ns_name, kQueryClassHostAddress, &expires, context));
  *min_expires = std::min(*min_expires, expires);

  HnsName host_name;
  host_name.context = host_context;
  host_name.individual = host;

  WireValue no_args = WireValue::OfRecord({});

  if (Nsm* linked = LinkedNsm(nsm_name); linked != nullptr) {
    HCS_ASSIGN_OR_RETURN(WireValue result, linked->Query(host_name, no_args));
    return result.Uint32Field("address");
  }

  // The HostAddress NSM is not linked here; find and call it remotely. This
  // recursion is bounded by the depth guard; production deployments link
  // the HostAddress NSMs exactly to avoid paying this path.
  HCS_LOG(Debug) << "host-address NSM " << nsm_name << " not linked; recursing";
  HCS_ASSIGN_OR_RETURN(NsmInfo info, meta_.NsmLocation(nsm_name, &expires, context));
  *min_expires = std::min(*min_expires, expires);
  HCS_ASSIGN_OR_RETURN(
      uint32_t nsm_address,
      ResolveHostAddressAtDepth(info.host_context, info.host, depth + 1, min_expires, context));

  const HrpcBinding binding = info.ToBinding(nsm_address);

  // Remote NSM query protocol (see NsmServer): context, individual, args.
  XdrEncoder enc;
  enc.PutString(host_name.context);
  enc.PutString(host_name.individual);
  enc.PutFixedOpaque(no_args.Encode());
  if (world_ != nullptr) {
    ChargeMarshal(world_, MarshalEngine::kStubGenerated, 1);
  }
  HCS_ASSIGN_OR_RETURN(Bytes reply, rpc_client_.Call(binding, 1, enc.Take(), context));
  HCS_ASSIGN_OR_RETURN(WireValue result, WireValue::Decode(reply));
  if (world_ != nullptr) {
    ChargeDemarshal(world_, MarshalEngine::kStubGenerated, MarshalUnits(result));
  }
  return result.Uint32Field("address");
}

Status Hns::RegisterNameService(const NameServiceInfo& info) {
  return meta_.RegisterNameService(info);
}

Status Hns::RegisterContext(const std::string& context, const std::string& ns_name) {
  Status status = meta_.RegisterContext(context, ns_name);
  if (status.ok()) {
    // The context may now map to a different name service; every composite
    // entry composed for it is stale.
    composite_.InvalidateContext(context);
  }
  return status;
}

Status Hns::RegisterNsm(const NsmInfo& info) {
  Status status = meta_.RegisterNsm(info);
  if (status.ok()) {
    // Entries composed from this (service, query class) mapping — or that
    // designate this NSM under any mapping — carry stale bindings.
    composite_.InvalidateNsm(info.ns_name, info.query_class, info.nsm_name);
  }
  return status;
}

Status Hns::UnregisterNsm(const std::string& ns_name, const QueryClass& query_class) {
  // The meta store reports the NSM the mapping named, so entries
  // designating it can be evicted too.
  std::string nsm_name;
  Status status = meta_.UnregisterNsm(ns_name, query_class, &nsm_name);
  if (status.ok()) {
    composite_.InvalidateNsm(ns_name, query_class, nsm_name);
  }
  return status;
}

Result<size_t> Hns::PreloadCache() { return meta_.Preload(); }

}  // namespace hcs
