// BindResolver: the client-side BIND library. Issues queries, updates, and
// zone transfers against a BIND server.
//
// The marshalling engine is selectable: the standard BIND library uses
// hand-coded routines; the HNS's HRPC interface to BIND uses stub-generated
// ones (Table 3.2 quantifies the difference).

#ifndef HCS_SRC_BINDNS_RESOLVER_H_
#define HCS_SRC_BINDNS_RESOLVER_H_

#include <string>
#include <vector>

#include "src/bindns/protocol.h"
#include "src/rpc/client.h"
#include "src/wire/marshal.h"

namespace hcs {

struct BindResolverOptions {
  // The BIND server this resolver is configured against.
  std::string server_host;
  uint16_t server_port = 53;
  // Which marshalling routines this client uses.
  MarshalEngine engine = MarshalEngine::kHandCoded;
};

class BindResolver {
 public:
  // `client` supplies the transport/identity; not owned.
  BindResolver(RpcClient* client, BindResolverOptions options);

  // Resolves (name, type) with one query to the server. kNotFound on
  // NXDOMAIN or an empty answer set.
  HCS_NODISCARD Result<std::vector<ResourceRecord>> Query(const std::string& name, RrType type);

  // Convenience: the internet address of `host_name` (first A record).
  HCS_NODISCARD Result<uint32_t> LookupAddress(const std::string& host_name);

  // Sends a dynamic update (modified-BIND servers only).
  HCS_NODISCARD Status Update(UpdateOp op, const ResourceRecord& record);

  // Full zone transfer, e.g. for preloading caches.
  HCS_NODISCARD Result<BindAxfrResponse> ZoneTransfer(const std::string& origin);

  const BindResolverOptions& options() const { return options_; }

 private:
  RpcClient* client_;
  BindResolverOptions options_;
};

}  // namespace hcs

#endif  // HCS_SRC_BINDNS_RESOLVER_H_
