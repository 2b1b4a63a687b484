#include "src/hns/session.h"

#include "src/common/strings.h"
#include "src/rpc/ports.h"
#include "src/wire/marshal.h"

namespace hcs {

HnsSession::HnsSession(World* world, std::string client_host, Transport* transport,
                       SessionOptions options)
    : world_(world),
      client_host_(std::move(client_host)),
      rpc_client_(world, client_host_, transport),
      options_(std::move(options)) {
  if (options_.hns_location == HnsLocation::kLinked) {
    hns_ = std::make_unique<Hns>(world, client_host_, transport, options_.hns);
  }
}

Status HnsSession::LinkNsm(std::shared_ptr<Nsm> nsm) {
  std::string key = AsciiToLower(nsm->info().nsm_name);
  if (linked_nsms_.count(key) != 0) {
    return AlreadyExistsError("NSM already linked in session: " + nsm->info().nsm_name);
  }
  if (hns_ != nullptr) {
    HCS_RETURN_IF_ERROR(hns_->LinkNsm(nsm));
  }
  linked_nsms_[key] = std::move(nsm);
  return Status::Ok();
}

Result<NsmHandle> HnsSession::FindNsm(const HnsName& name, const QueryClass& query_class,
                                      const RequestContext& context) {
  switch (options_.hns_location) {
    case HnsLocation::kLinked:
      return hns_->FindNsm(name, query_class, context);
    case HnsLocation::kRemote:
      return FindNsmRemote(name, query_class, context);
    case HnsLocation::kAgent:
      return UnimplementedError("agent sessions answer whole queries, not FindNSM");
  }
  return InternalError("bad HnsLocation");
}

HrpcBinding HnsSession::HnsServerBinding() const {
  HrpcBinding hns_binding;
  hns_binding.service_name = "hns";
  hns_binding.host = options_.hns_server_host;
  hns_binding.port = kHnsServerPort;
  hns_binding.program = kHnsProgram;
  hns_binding.control = ControlKind::kRaw;
  return hns_binding;
}

Result<NsmHandle> HnsSession::FindNsmRemote(const HnsName& name,
                                            const QueryClass& query_class,
                                            const RequestContext& context) {
  FindNsmRequest request;
  request.context = name.context;
  request.query_class = query_class;
  Bytes body = request.Encode();
  ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       rpc_client_.Call(HnsServerBinding(), kHnsProcFindNsm, body, context));
  ChargeDemarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(reply.size()));
  HCS_ASSIGN_OR_RETURN(FindNsmResponse response, FindNsmResponse::Decode(reply));

  NsmHandle handle;
  handle.nsm_name = response.nsm_name;
  handle.binding = response.binding;
  // Prefer an instance linked into this process, when the arrangement has
  // one (row 3: [HNS] [Client, NSMs]).
  auto it = linked_nsms_.find(AsciiToLower(response.nsm_name));
  if (options_.nsm_location == NsmLocation::kLinked && it != linked_nsms_.end()) {
    handle.linked = it->second.get();
  }
  return handle;
}

Result<WireValue> HnsSession::CallNsmRemote(const HrpcBinding& binding, const HnsName& name,
                                            const WireValue& args,
                                            const RequestContext& context) {
  NsmQueryRequest request;
  request.name = name;
  request.args = args;

  Bytes body = request.Encode();
  ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
  HCS_ASSIGN_OR_RETURN(Bytes reply, rpc_client_.Call(binding, kNsmProcQuery, body, context));
  HCS_ASSIGN_OR_RETURN(WireValue result, WireValue::Decode(reply));
  // The reply is the result's whole encoding: its size is the units.
  ChargeDemarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(reply.size()));
  return result;
}

Result<WireValue> HnsSession::CallAgent(const HnsName& name, const QueryClass& query_class,
                                        const WireValue& args, const RequestContext& context) {
  AgentQueryRequest request;
  request.name = name;
  request.query_class = query_class;
  request.args = args;

  HrpcBinding agent_binding;
  agent_binding.service_name = "hns-agent";
  agent_binding.host = options_.agent_host;
  agent_binding.port = kAgentPort;
  agent_binding.program = kAgentProgram;
  agent_binding.control = ControlKind::kRaw;

  Bytes body = request.Encode();
  ChargeMarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(body.size()));
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       rpc_client_.Call(agent_binding, kAgentProcQuery, body, context));
  HCS_ASSIGN_OR_RETURN(WireValue result, WireValue::Decode(reply));
  ChargeDemarshal(world_, MarshalEngine::kStubGenerated, MarshalUnitsForBytes(reply.size()));
  return result;
}

Result<WireValue> HnsSession::Query(const HnsName& name, const QueryClass& query_class,
                                    const WireValue& args, const RequestContext& context) {
  if (options_.hns_location == HnsLocation::kAgent) {
    return CallAgent(name, query_class, args, context);
  }

  HCS_ASSIGN_OR_RETURN(NsmHandle handle, FindNsm(name, query_class, context));

  if (handle.is_linked() && options_.nsm_location == NsmLocation::kLinked) {
    // Colocated NSM: a local procedure call, no remote exchange. The
    // context still applies: make it ambient so the NSM's budget check and
    // any nested resolution it performs see the deadline.
    ScopedRequestContext scope(context.empty() ? CurrentRequestContext() : context);
    return handle.linked->Query(name, args);
  }
  return CallNsmRemote(handle.binding, name, args, context);
}

}  // namespace hcs
