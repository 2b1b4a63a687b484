#include "src/hns/meta_store.h"

#include <map>

#include "src/common/strings.h"
#include "src/rpc/ports.h"
#include "src/wire/marshal.h"

namespace hcs {

WireValue NameServiceInfo::ToWire() const {
  return RecordBuilder().Str("name", name).Str("type", type).Build();
}

Result<NameServiceInfo> NameServiceInfo::FromWire(const WireValue& value) {
  NameServiceInfo info;
  HCS_ASSIGN_OR_RETURN(info.name, value.StringField("name"));
  HCS_ASSIGN_OR_RETURN(info.type, value.StringField("type"));
  return info;
}

WireValue NsmInfo::ToWire() const {
  return RecordBuilder()
      .Str("nsm", nsm_name)
      .Str("qc", query_class)
      .Str("ns", ns_name)
      .Str("host", host)
      .Str("host_ctx", host_context)
      .U32("program", program)
      .U32("version", version)
      .U32("port", port)
      .U32("data_rep", static_cast<uint32_t>(data_rep))
      .U32("transport", static_cast<uint32_t>(transport))
      .U32("control", static_cast<uint32_t>(control))
      .Build();
}

Result<NsmInfo> NsmInfo::FromWire(const WireValue& value) {
  NsmInfo info;
  HCS_ASSIGN_OR_RETURN(info.nsm_name, value.StringField("nsm"));
  HCS_ASSIGN_OR_RETURN(info.query_class, value.StringField("qc"));
  HCS_ASSIGN_OR_RETURN(info.ns_name, value.StringField("ns"));
  HCS_ASSIGN_OR_RETURN(info.host, value.StringField("host"));
  HCS_ASSIGN_OR_RETURN(info.host_context, value.StringField("host_ctx"));
  HCS_ASSIGN_OR_RETURN(info.program, value.Uint32Field("program"));
  HCS_ASSIGN_OR_RETURN(info.version, value.Uint32Field("version"));
  HCS_ASSIGN_OR_RETURN(uint32_t port, value.Uint32Field("port"));
  info.port = static_cast<uint16_t>(port);
  HCS_ASSIGN_OR_RETURN(uint32_t data_rep, value.Uint32Field("data_rep"));
  info.data_rep = static_cast<DataRep>(data_rep);
  HCS_ASSIGN_OR_RETURN(uint32_t transport, value.Uint32Field("transport"));
  info.transport = static_cast<TransportKind>(transport);
  HCS_ASSIGN_OR_RETURN(uint32_t control, value.Uint32Field("control"));
  info.control = static_cast<ControlKind>(control);
  return info;
}

HrpcBinding NsmInfo::ToBinding(uint32_t address) const {
  HrpcBinding binding;
  binding.service_name = nsm_name;
  binding.host = host;
  binding.address = address;
  binding.port = port;
  binding.program = program;
  binding.version = version;
  binding.data_rep = data_rep;
  binding.transport = transport;
  binding.control = control;
  return binding;
}

MetaStore::MetaStore(RpcClient* client, std::string meta_server_host,
                     std::string authority_host, HnsCache* cache)
    : client_(client),
      meta_server_host_(std::move(meta_server_host)),
      authority_host_(authority_host.empty() ? meta_server_host_ : std::move(authority_host)),
      cache_(cache) {}

std::string MetaStore::ContextRecordName(const std::string& context) {
  return "ctx." + AsciiToLower(context) + "." + kMetaZoneOrigin;
}

std::string MetaStore::NsmMapRecordName(const std::string& ns_name, const QueryClass& qc) {
  return "map." + AsciiToLower(qc) + "." + AsciiToLower(ns_name) + "." + kMetaZoneOrigin;
}

std::string MetaStore::NsmLocationRecordName(const std::string& nsm_name) {
  return "loc." + AsciiToLower(nsm_name) + "." + kMetaZoneOrigin;
}

std::string MetaStore::NameServiceRecordName(const std::string& ns_name) {
  return "ns." + AsciiToLower(ns_name) + "." + kMetaZoneOrigin;
}

HrpcBinding MetaStore::MetaServerBinding(bool authority) const {
  return BindServerBinding(authority ? authority_host_ : meta_server_host_,
                           meta_port_ != 0 ? meta_port_ : kBindPort);
}

Result<WireValue> MetaStore::DecodeMetaReply(const std::string& record_name, const Bytes& reply) {
  HCS_ASSIGN_OR_RETURN(BindQueryResponse response, BindQueryResponse::Decode(reply));
  if (response.rcode == Rcode::kNxDomain || response.answers.empty()) {
    return NotFoundError("no meta record: " + record_name);
  }
  if (response.rcode != Rcode::kNoError) {
    return UnavailableError(StrFormat("meta lookup of %s failed (rcode %u)",
                                      record_name.c_str(),
                                      static_cast<unsigned>(response.rcode)));
  }
  size_t answer_bytes = 0;
  for (const ResourceRecord& rr : response.answers) {
    answer_bytes += rr.rdata.size();
  }
  HCS_ASSIGN_OR_RETURN(WireValue value, ValueFromUnspecRecords(std::move(response.answers)));
  ChargeDemarshal(client_->world(), MarshalEngine::kStubGenerated,
                  MarshalUnitsForBytes(answer_bytes));
  return value;
}

std::shared_ptr<MetaStore::InFlight> MetaStore::ClaimFlight(const std::string& record_name,
                                                            const RequestContext& rctx) {
  auto flight = std::make_shared<InFlight>();
  flight->generation = write_generation_;
  flight->leader_deadline_ms = rctx.has_deadline() ? rctx.deadline_ms : 0;
  in_flight_[record_name] = flight;
  return flight;
}

void MetaStore::FinishFlight(const std::string& record_name,
                             const std::shared_ptr<InFlight>& flight,
                             const Result<WireValue>& fetched) {
  SimTime expires = 0;
  {
    // The generation check and the cache fill are one step under
    // flight_mu_, so a commit either lands before it (nothing is cached)
    // or drops the entry after it.
    MutexLock lock(flight_mu_);
    if (flight->generation == write_generation_) {
      if (fetched.ok()) {
        cache_->Put(record_name, *fetched, kMetaTtlSeconds);
      } else if (fetched.status().code() == StatusCode::kNotFound) {
        cache_->PutNegative(record_name);
      }
    }
    if (fetched.ok()) {
      expires = ClockNow(client_->world()) +
                MsToSim(static_cast<double>(kMetaTtlSeconds) * 1000.0);
    }
    flight->result = fetched;
    flight->expires = expires;
    flight->done = true;
    in_flight_.erase(record_name);
  }
  flight_cv_.NotifyAll();
}

void MetaStore::FetchRecord(const std::string& record_name,
                            const std::shared_ptr<InFlight>& flight,
                            const RequestContext& rctx) {
  // The HRPC interface to BIND uses the stub-generated marshalling routines
  // in both directions (the Table 3.2 lesson).
  remote_lookups_.fetch_add(1, std::memory_order_relaxed);
  BindQueryRequest request;
  request.name = record_name;
  request.type = RrType::kUnspec;
  ChargeMarshal(client_->world(), MarshalEngine::kStubGenerated, 1);
  Result<Bytes> reply =
      client_->Call(MetaServerBinding(/*authority=*/false), kBindProcQuery, request.Encode(), rctx);
  Result<WireValue> fetched =
      reply.ok() ? DecodeMetaReply(record_name, *reply) : Result<WireValue>(reply.status());
  FinishFlight(record_name, flight, fetched);
}

Result<WireValue> MetaStore::ReadRecord(const std::string& record_name,
                                        SimTime* expires_out,
                                        const RequestContext& rctx) {
  const RequestContext& effective = rctx.empty() ? CurrentRequestContext() : rctx;
  HnsCache::LookupResult looked = cache_->Lookup(record_name);
  if (looked.probe == HnsCache::Probe::kHit) {
    if (expires_out != nullptr) {
      *expires_out = looked.expires;
    }
    return std::move(looked.value);
  }
  if (looked.probe == HnsCache::Probe::kNegativeHit) {
    // A recent upstream query already said NotFound; don't re-ask until the
    // negative entry expires.
    return NotFoundError("no meta record (negative cache): " + record_name);
  }

  // Miss: the record has to come from upstream. A spent budget is shed here,
  // before the remote fetch (or the wait on someone else's).
  if (effective.expired()) {
    return TimeoutError(
        StrFormat("meta read of %s shed: budget spent %lld ms ago (trace %016llx)",
                  record_name.c_str(), static_cast<long long>(-effective.remaining_ms()),
                  static_cast<unsigned long long>(effective.trace_id)));
  }

  // Coalesce concurrent identical fetches: the first caller becomes the
  // leader and queries BIND; everyone else waits for its result. A waiter's
  // wait is bounded by the earliest deadline in play — its own or the
  // leader's — so a request whose budget dies mid-wait times out instead of
  // blocking until the fetch resolves.
  std::shared_ptr<InFlight> flight;
  {
    MutexLock lock(flight_mu_);
    auto it = in_flight_.find(record_name);
    if (it != in_flight_.end()) {
      flight = it->second;
      cache_->NoteCoalescedMiss();
      int64_t wait_deadline_ms = effective.has_deadline() ? effective.deadline_ms : 0;
      if (flight->leader_deadline_ms > 0 &&
          (wait_deadline_ms == 0 || flight->leader_deadline_ms < wait_deadline_ms)) {
        wait_deadline_ms = flight->leader_deadline_ms;
      }
      if (wait_deadline_ms == 0) {
        flight_cv_.Wait(flight_mu_, [&] { return flight->done; });
      } else {
        while (!flight->done) {
          int64_t remaining = wait_deadline_ms - SteadyNowMs();
          if (remaining <= 0) {
            break;
          }
          (void)flight_cv_.WaitFor(flight_mu_, remaining, [&] { return flight->done; });
        }
        if (!flight->done) {
          return TimeoutError(StrFormat(
              "coalesced meta read of %s timed out waiting for the in-flight fetch (trace %016llx)",
              record_name.c_str(), static_cast<unsigned long long>(effective.trace_id)));
        }
      }
      if (flight->result.ok() && expires_out != nullptr) {
        *expires_out = flight->expires;
      }
      return flight->result;
    }
    flight = ClaimFlight(record_name, effective);
  }

  // Once the leader's fetch returns the flight is done and nothing writes
  // it again.
  FetchRecord(record_name, flight, effective);
  if (flight->result.ok() && expires_out != nullptr) {
    *expires_out = flight->expires;
  }
  return flight->result;
}

namespace {

UpdateOperation DeleteOp(const std::string& record_name) {
  UpdateOperation op;
  op.op = UpdateOp::kDelete;
  op.record.name = record_name;
  op.record.type = RrType::kUnspec;
  return op;
}

// Appends the replacement of one structured record: delete its chunks,
// then add the new ones.
void AppendWrite(std::vector<UpdateOperation>* ops, const std::string& record_name,
                 const WireValue& value) {
  ops->push_back(DeleteOp(record_name));
  for (ResourceRecord& rr :
       UnspecRecordsFromValue(record_name, value, MetaStore::kMetaTtlSeconds)) {
    ops->push_back(UpdateOperation{UpdateOp::kAdd, std::move(rr)});
  }
}

}  // namespace

Status MetaStore::Commit(const std::vector<UpdateOperation>& ops) {
  // Stub-generated marshalling, charged per operation as if each went
  // alone: the list saves round trips, not marshalling.
  for (size_t i = 0; i < ops.size(); ++i) {
    ChargeMarshal(client_->world(), MarshalEngine::kStubGenerated, 1);
  }
  BindUpdateRequest request;
  request.ops = ops;
  Result<Bytes> reply =
      client_->Call(MetaServerBinding(/*authority=*/true), kBindProcUpdate, request.Encode());
  {
    MutexLock lock(flight_mu_);
    ++write_generation_;
  }
  for (const UpdateOperation& op : ops) {
    cache_->Remove(op.record.name);
  }
  HCS_RETURN_IF_ERROR(reply.status());
  HCS_ASSIGN_OR_RETURN(BindUpdateResponse response, BindUpdateResponse::Decode(*reply));
  if (response.rcode != Rcode::kNoError) {
    return InvalidArgumentError("meta update refused: " + ops.front().record.name);
  }
  return Status::Ok();
}

Result<std::string> MetaStore::ContextToNameService(const std::string& context,
                                                    SimTime* expires_out,
                                                    const RequestContext& rctx) {
  HCS_ASSIGN_OR_RETURN(WireValue value,
                       ReadRecord(ContextRecordName(context), expires_out, rctx));
  return value.StringField("ns");
}

Result<std::string> MetaStore::NsmNameFor(const std::string& ns_name,
                                          const QueryClass& query_class,
                                          SimTime* expires_out,
                                          const RequestContext& rctx) {
  HCS_ASSIGN_OR_RETURN(WireValue value,
                       ReadRecord(NsmMapRecordName(ns_name, query_class), expires_out, rctx));
  return value.StringField("nsm");
}

Result<NsmInfo> MetaStore::NsmLocation(const std::string& nsm_name, SimTime* expires_out,
                                       const RequestContext& rctx) {
  HCS_ASSIGN_OR_RETURN(WireValue value,
                       ReadRecord(NsmLocationRecordName(nsm_name), expires_out, rctx));
  return NsmInfo::FromWire(value);
}

Result<NameServiceInfo> MetaStore::NameService(const std::string& ns_name) {
  HCS_ASSIGN_OR_RETURN(WireValue value, ReadRecord(NameServiceRecordName(ns_name)));
  return NameServiceInfo::FromWire(value);
}

Status MetaStore::RegisterNameService(const NameServiceInfo& info) {
  if (info.name.empty() || info.type.empty()) {
    return InvalidArgumentError("name service registration needs name and type");
  }
  std::vector<UpdateOperation> ops;
  AppendWrite(&ops, NameServiceRecordName(info.name), info.ToWire());
  return Commit(ops);
}

Status MetaStore::RegisterContext(const std::string& context, const std::string& ns_name) {
  HCS_RETURN_IF_ERROR(ValidateContextName(context));
  std::vector<UpdateOperation> ops;
  AppendWrite(&ops, ContextRecordName(context), RecordBuilder().Str("ns", ns_name).Build());
  return Commit(ops);
}

Status MetaStore::RegisterNsm(const NsmInfo& info) {
  if (info.nsm_name.empty() || info.query_class.empty() || info.ns_name.empty()) {
    return InvalidArgumentError("NSM registration needs nsm_name, query_class, ns_name");
  }
  // Two records: the (service, query class) -> NSM map entry and the NSM's
  // own location record. Storing them separately is what lets one name
  // service's binding data be shared by many contexts; writing them in one
  // update is what keeps a reader from meeting one without the other.
  std::vector<UpdateOperation> ops;
  AppendWrite(&ops, NsmMapRecordName(info.ns_name, info.query_class),
              RecordBuilder().Str("nsm", info.nsm_name).Build());
  AppendWrite(&ops, NsmLocationRecordName(info.nsm_name), info.ToWire());
  return Commit(ops);
}

Status MetaStore::UnregisterNsm(const std::string& ns_name, const QueryClass& query_class,
                                std::string* nsm_name_out) {
  Result<std::string> nsm_name = NsmNameFor(ns_name, query_class);
  std::vector<UpdateOperation> ops = {DeleteOp(NsmMapRecordName(ns_name, query_class))};
  if (nsm_name.ok()) {
    ops.push_back(DeleteOp(NsmLocationRecordName(*nsm_name)));
  }
  if (nsm_name_out != nullptr) {
    *nsm_name_out = nsm_name.ok() ? *nsm_name : std::string();
  }
  return Commit(ops);
}

Result<MetaStore::ZoneChunks> MetaStore::TransferMetaZone() {
  BindAxfrRequest request;
  request.origin = kMetaZoneOrigin;
  ChargeMarshal(client_->world(), MarshalEngine::kStubGenerated, 1);
  HCS_ASSIGN_OR_RETURN(
      Bytes reply,
      client_->Call(MetaServerBinding(/*authority=*/true), kBindProcAxfr, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindAxfrResponse response, BindAxfrResponse::Decode(reply));
  if (response.rcode != Rcode::kNoError) {
    return UnavailableError("meta zone transfer failed");
  }
  ZoneChunks zone;
  for (ResourceRecord& rr : response.records) {
    zone.bytes += rr.rdata.size();
    if (rr.type == RrType::kUnspec) {
      zone.by_name[AsciiToLower(rr.name)].push_back(std::move(rr));
    }
  }
  return zone;
}

Result<MetaStore::Inventory> MetaStore::TakeInventory() {
  HCS_ASSIGN_OR_RETURN(ZoneChunks zone, TransferMetaZone());
  ChargeDemarshal(client_->world(), MarshalEngine::kStubGenerated,
                  MarshalUnitsForBytes(zone.bytes));

  Inventory inventory;
  std::string suffix = std::string(".") + kMetaZoneOrigin;
  for (auto& [record_name, chunks] : zone.by_name) {
    HCS_ASSIGN_OR_RETURN(WireValue value, ValueFromUnspecRecords(std::move(chunks)));
    if (!EndsWith(record_name, suffix)) {
      continue;
    }
    std::string stem = record_name.substr(0, record_name.size() - suffix.size());
    if (StartsWith(stem, "ctx.")) {
      HCS_ASSIGN_OR_RETURN(std::string ns, value.StringField("ns"));
      inventory.contexts.emplace_back(stem.substr(4), std::move(ns));
    } else if (StartsWith(stem, "ns.")) {
      HCS_ASSIGN_OR_RETURN(NameServiceInfo info, NameServiceInfo::FromWire(value));
      inventory.name_services.push_back(std::move(info));
    } else if (StartsWith(stem, "loc.")) {
      HCS_ASSIGN_OR_RETURN(NsmInfo info, NsmInfo::FromWire(value));
      inventory.nsms.push_back(std::move(info));
    }
    // "map." entries are derivable from the loc records' (ns, qc) pairs.
  }
  return inventory;
}

Result<size_t> MetaStore::Preload() {
  uint64_t generation = 0;
  {
    MutexLock lock(flight_mu_);
    generation = write_generation_;
  }
  HCS_ASSIGN_OR_RETURN(ZoneChunks zone, TransferMetaZone());
  // Reassemble each record and install it in the cache, unless a commit
  // landed during the transfer (the flights' rule, FinishFlight).
  {
    MutexLock lock(flight_mu_);
    if (generation == write_generation_) {
      for (auto& [record_name, chunks] : zone.by_name) {
        uint32_t ttl = chunks.front().ttl_seconds;
        HCS_ASSIGN_OR_RETURN(WireValue value, ValueFromUnspecRecords(std::move(chunks)));
        cache_->Put(record_name, value, ttl);
      }
    }
  }
  ChargeDemarshal(client_->world(), MarshalEngine::kStubGenerated,
                  MarshalUnitsForBytes(zone.bytes));
  return zone.bytes;
}

}  // namespace hcs
