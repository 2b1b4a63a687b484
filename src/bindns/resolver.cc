#include "src/bindns/resolver.h"

#include "src/common/strings.h"
#include "src/rpc/ports.h"

namespace hcs {

BindResolver::BindResolver(RpcClient* client, BindResolverOptions options)
    : client_(client), options_(std::move(options)) {}

SimTime BindResolver::Now() const {
  World* world = client_->world();
  return world != nullptr ? world->clock().Now() : 0;
}

std::string BindResolver::Key(const std::string& name, RrType type) {
  return AsciiToLower(name) + "|" + std::to_string(static_cast<uint32_t>(type));
}

HrpcBinding BindResolver::ServerBinding() const {
  HrpcBinding b;
  b.service_name = "bind";
  b.host = options_.server_host;
  b.port = options_.server_port;
  b.program = kBindProgram;
  b.control = ControlKind::kRaw;
  b.data_rep = DataRep::kXdr;
  return b;
}

Result<std::vector<ResourceRecord>> BindResolver::Query(const std::string& name,
                                                        RrType type) {
  ++stats_.queries;
  std::string key = Key(name, type);
  World* world = client_->world();

  if (options_.enable_cache) {
    if (world != nullptr) {
      world->ChargeMs(world->costs().cache_probe_ms);
    }
    auto it = cache_.find(key);
    if (it != cache_.end() && (it->second.expires > Now() || world == nullptr)) {
      ++stats_.cache_hits;
      return it->second.answers;
    }
    ++stats_.cache_misses;
  }

  BindQueryRequest request;
  request.name = name;
  request.type = type;

  if (world != nullptr) {
    ChargeMarshal(world, options_.engine, 1);
  }
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       client_->Call(ServerBinding(), kBindProcQuery, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindQueryResponse response, BindQueryResponse::Decode(reply));
  if (world != nullptr) {
    size_t answer_bytes = 0;
    for (const ResourceRecord& rr : response.answers) {
      answer_bytes += rr.rdata.size();
    }
    ChargeDemarshal(world, options_.engine, MarshalUnitsForBytes(answer_bytes));
  }

  if (response.rcode == Rcode::kNxDomain) {
    return NotFoundError("name does not exist: " + name);
  }
  if (response.rcode != Rcode::kNoError) {
    return UnavailableError(StrFormat("BIND query for %s failed with rcode %u", name.c_str(),
                                      static_cast<unsigned>(response.rcode)));
  }
  if (response.answers.empty()) {
    return NotFoundError(
        StrFormat("%s has no %s records", name.c_str(), RrTypeName(type).c_str()));
  }

  if (options_.enable_cache) {
    uint32_t min_ttl = response.answers.front().ttl_seconds;
    for (const ResourceRecord& rr : response.answers) {
      min_ttl = rr.ttl_seconds < min_ttl ? rr.ttl_seconds : min_ttl;
    }
    CacheEntry entry;
    entry.answers = response.answers;
    entry.expires = Now() + MsToSim(min_ttl * 1000.0);
    if (world != nullptr) {
      world->ChargeMs(world->costs().cache_insert_ms);
    }
    cache_[key] = std::move(entry);
  }
  return response.answers;
}

Result<uint32_t> BindResolver::LookupAddress(const std::string& host_name) {
  HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> answers, Query(host_name, RrType::kA));
  for (const ResourceRecord& rr : answers) {
    if (rr.type == RrType::kA) {
      return rr.AddressRdata();
    }
  }
  return NotFoundError("no address records for " + host_name);
}

Status BindResolver::Update(UpdateOp op, const ResourceRecord& record) {
  BindUpdateRequest request;
  request.ops.push_back(UpdateOperation{op, record});

  World* world = client_->world();
  if (world != nullptr) {
    ChargeMarshal(world, options_.engine, 1);
  }
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       client_->Call(ServerBinding(), kBindProcUpdate, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindUpdateResponse response, BindUpdateResponse::Decode(reply));
  if (world != nullptr) {
    ChargeDemarshal(world, options_.engine, 1);
  }
  if (response.rcode != Rcode::kNoError) {
    return InvalidArgumentError(StrFormat("dynamic update refused (rcode %u)",
                                          static_cast<unsigned>(response.rcode)));
  }
  // Invalidate any cached view of the updated name.
  if (options_.enable_cache) {
    cache_.erase(Key(record.name, record.type));
    cache_.erase(Key(record.name, RrType::kAny));
  }
  return Status::Ok();
}

Result<BindAxfrResponse> BindResolver::ZoneTransfer(const std::string& origin) {
  BindAxfrRequest request;
  request.origin = origin;

  World* world = client_->world();
  if (world != nullptr) {
    ChargeMarshal(world, options_.engine, 1);
  }
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       client_->Call(ServerBinding(), kBindProcAxfr, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindAxfrResponse response, BindAxfrResponse::Decode(reply));
  if (world != nullptr) {
    ChargeDemarshal(world, options_.engine, static_cast<int>(response.records.size()));
  }
  if (response.rcode != Rcode::kNoError) {
    return NotFoundError("no such zone for transfer: " + origin);
  }
  return response;
}

}  // namespace hcs
