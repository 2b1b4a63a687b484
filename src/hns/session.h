// HnsSession: the client's view of the HNS, parameterized by the colocation
// arrangement (§3, Table 3.1). Where the HNS and the NSMs are linked is a
// deployment decision, not an interface one — the client calls Query() the
// same way in every arrangement:
//
//   row 1  [Client, HNS, NSMs]   hns=kLinked,  nsm=kLinked
//   row 2  [Client] [HNS, NSMs]  hns=kAgent    (one remote exchange)
//   row 3  [HNS] [Client, NSMs]  hns=kRemote,  nsm=kLinked
//   row 4  [NSMs] [Client, HNS]  hns=kLinked,  nsm=kRemote
//   row 5  [Client] [HNS] [NSMs] hns=kRemote,  nsm=kRemote

#ifndef HCS_SRC_HNS_SESSION_H_
#define HCS_SRC_HNS_SESSION_H_

#include <map>
#include <memory>
#include <string>

#include "src/hns/hns.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/transport.h"

namespace hcs {

enum class HnsLocation {
  kLinked,  // HNS library linked into this process
  kRemote,  // calls a long-lived HnsServer
  kAgent,   // calls a combined HNS+NSM agent process
};

enum class NsmLocation {
  kLinked,  // prefer NSM instances linked into this process
  kRemote,  // always call NSMs through their bindings
};

struct SessionOptions {
  HnsLocation hns_location = HnsLocation::kLinked;
  NsmLocation nsm_location = NsmLocation::kLinked;
  // For kLinked: the linked HNS's configuration.
  HnsOptions hns;
  // For kRemote: the host running the HnsServer.
  std::string hns_server_host;
  // For kAgent: the host running the AgentServer.
  std::string agent_host;
};

class HnsSession {
 public:
  HnsSession(World* world, std::string client_host, Transport* transport,
             SessionOptions options);

  // Links an NSM instance into the client process (used by arrangements
  // where the NSMs are colocated with the client).
  HCS_NODISCARD Status LinkNsm(std::shared_ptr<Nsm> nsm);

  // Performs one complete HNS query: locate the right NSM for (context of
  // `name`, query class), call it, return the query class's standard result.
  // `context` bounds the whole exchange (empty: the ambient request context,
  // if any, is inherited — see src/rpc/context.h).
  HCS_NODISCARD Result<WireValue> Query(const HnsName& name, const QueryClass& query_class,
                          const WireValue& args,
                          const RequestContext& context = RequestContext{});

  // FindNSM only (no NSM call). Unavailable in agent mode, where the agent
  // owns the whole exchange.
  HCS_NODISCARD Result<NsmHandle> FindNsm(const HnsName& name, const QueryClass& query_class,
                            const RequestContext& context = RequestContext{});

  // The linked HNS instance, or null when the HNS is remote/agent.
  Hns* local_hns() { return hns_.get(); }
  RpcClient& rpc_client() { return rpc_client_; }
  const SessionOptions& options() const { return options_; }

 private:
  HCS_NODISCARD Result<WireValue> CallNsmRemote(const HrpcBinding& binding, const HnsName& name,
                                  const WireValue& args, const RequestContext& context);
  HCS_NODISCARD Result<WireValue> CallAgent(const HnsName& name, const QueryClass& query_class,
                              const WireValue& args, const RequestContext& context);
  HCS_NODISCARD Result<NsmHandle> FindNsmRemote(const HnsName& name, const QueryClass& query_class,
                                  const RequestContext& context);
  // The HnsServer's binding (remote mode).
  HrpcBinding HnsServerBinding() const;

  World* world_;
  std::string client_host_;
  RpcClient rpc_client_;
  SessionOptions options_;
  std::unique_ptr<Hns> hns_;  // present when hns_location == kLinked
  std::map<std::string, std::shared_ptr<Nsm>> linked_nsms_;
};

}  // namespace hcs

#endif  // HCS_SRC_HNS_SESSION_H_
