#include "src/bindns/resolver.h"

#include "src/common/strings.h"

namespace hcs {

BindResolver::BindResolver(RpcClient* client, BindResolverOptions options)
    : client_(client), options_(std::move(options)) {}

Result<std::vector<ResourceRecord>> BindResolver::Query(const std::string& name,
                                                        RrType type) {
  BindQueryRequest request;
  request.name = name;
  request.type = type;

  ChargeMarshal(client_->world(), options_.engine, 1);
  HCS_ASSIGN_OR_RETURN(
      Bytes reply, client_->Call(BindServerBinding(options_.server_host, options_.server_port),
                                 kBindProcQuery, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindQueryResponse response, BindQueryResponse::Decode(reply));
  size_t answer_bytes = 0;
  for (const ResourceRecord& rr : response.answers) {
    answer_bytes += rr.rdata.size();
  }
  ChargeDemarshal(client_->world(), options_.engine, MarshalUnitsForBytes(answer_bytes));

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

  ChargeMarshal(client_->world(), options_.engine, 1);
  HCS_ASSIGN_OR_RETURN(
      Bytes reply, client_->Call(BindServerBinding(options_.server_host, options_.server_port),
                                 kBindProcUpdate, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindUpdateResponse response, BindUpdateResponse::Decode(reply));
  ChargeDemarshal(client_->world(), options_.engine, 1);
  if (response.rcode != Rcode::kNoError) {
    return InvalidArgumentError(StrFormat("dynamic update refused (rcode %u)",
                                          static_cast<unsigned>(response.rcode)));
  }
  return Status::Ok();
}

Result<BindAxfrResponse> BindResolver::ZoneTransfer(const std::string& origin) {
  BindAxfrRequest request;
  request.origin = origin;

  ChargeMarshal(client_->world(), options_.engine, 1);
  HCS_ASSIGN_OR_RETURN(
      Bytes reply, client_->Call(BindServerBinding(options_.server_host, options_.server_port),
                                 kBindProcAxfr, request.Encode()));
  HCS_ASSIGN_OR_RETURN(BindAxfrResponse response, BindAxfrResponse::Decode(reply));
  ChargeDemarshal(client_->world(), options_.engine, static_cast<int>(response.records.size()));
  if (response.rcode != Rcode::kNoError) {
    return NotFoundError("no such zone for transfer: " + origin);
  }
  return response;
}

}  // namespace hcs
