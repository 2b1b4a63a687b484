#include "src/ch/client.h"

#include "src/rpc/ports.h"
#include "src/wire/marshal.h"

namespace hcs {

ChClient::ChClient(RpcClient* client, std::string server_host, ChCredentials credentials)
    : ChClient(client, std::vector<std::string>{std::move(server_host)},
               std::move(credentials)) {}

ChClient::ChClient(RpcClient* client, std::vector<std::string> server_hosts,
                   ChCredentials credentials)
    : client_(client),
      server_hosts_(std::move(server_hosts)),
      credentials_(std::move(credentials)) {}

Result<Bytes> ChClient::CallWithFailover(uint32_t procedure, const Bytes& body) {
  Status last = UnavailableError("no Clearinghouse hosts configured");
  for (const std::string& host : server_hosts_) {
    Result<Bytes> reply = client_->Call(ServerBinding(host), procedure, body);
    if (reply.ok() || reply.status().code() != StatusCode::kUnavailable) {
      return reply;
    }
    last = reply.status();
  }
  return last;
}

HrpcBinding ChClient::ServerBinding(const std::string& host) const {
  HrpcBinding b;
  b.service_name = "clearinghouse";
  b.host = host;
  b.port = kClearinghousePort;
  b.program = kClearinghouseProgram;
  b.control = ControlKind::kCourier;
  b.data_rep = DataRep::kCourier;
  b.transport = TransportKind::kSpp;
  b.bind_protocol = BindProtocol::kStatic;
  return b;
}

Result<ChRetrieveItemResponse> ChClient::RetrieveItem(const ChName& name, uint32_t property) {
  ChRetrieveItemRequest request;
  request.credentials = credentials_;
  request.name = name;
  request.property = property;

  ChargeMarshal(client_->world(), MarshalEngine::kHandCoded, 1);
  HCS_ASSIGN_OR_RETURN(
      Bytes reply, CallWithFailover(kChProcRetrieveItem, request.Encode()));
  HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse response,
                       ChRetrieveItemResponse::Decode(reply));
  ChargeDemarshal(client_->world(), MarshalEngine::kHandCoded,
                  static_cast<int>(response.item.LeafCount()));
  return response;
}

Status ChClient::AddItem(const ChName& name, uint32_t property, const WireValue& item) {
  ChAddItemRequest request;
  request.credentials = credentials_;
  request.name = name;
  request.property = property;
  request.item = item;

  ChargeMarshal(client_->world(), MarshalEngine::kHandCoded, static_cast<int>(item.LeafCount()));
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       CallWithFailover(kChProcAddItem, request.Encode()));
  (void)reply;  // hcs:ignore-status(success reply body is empty; errors already propagated above)
  return Status::Ok();
}

Status ChClient::DeleteItem(const ChName& name, uint32_t property) {
  ChDeleteItemRequest request;
  request.credentials = credentials_;
  request.name = name;
  request.property = property;

  ChargeMarshal(client_->world(), MarshalEngine::kHandCoded, 1);
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       CallWithFailover(kChProcDeleteItem, request.Encode()));
  (void)reply;  // hcs:ignore-status(success reply body is empty; errors already propagated above)
  return Status::Ok();
}

Result<std::vector<std::string>> ChClient::ListObjects(const std::string& domain,
                                                       const std::string& organization) {
  ChListObjectsRequest request;
  request.credentials = credentials_;
  request.domain = domain;
  request.organization = organization;

  ChargeMarshal(client_->world(), MarshalEngine::kHandCoded, 1);
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       CallWithFailover(kChProcListObjects, request.Encode()));
  HCS_ASSIGN_OR_RETURN(ChListObjectsResponse response, ChListObjectsResponse::Decode(reply));
  ChargeDemarshal(client_->world(), MarshalEngine::kHandCoded,
                  static_cast<int>(response.objects.size()));
  return response.objects;
}

}  // namespace hcs
