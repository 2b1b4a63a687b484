#include "src/nsm/host_table.h"

#include "src/common/strings.h"
#include "src/wire/marshal.h"
#include "src/wire/xdr.h"

namespace hcs {

namespace {

HrpcBinding TableServerBinding(const std::string& host) {
  HrpcBinding b;
  b.service_name = "hosttable";
  b.host = host;
  b.port = kHostTablePort;
  b.program = kHostTableProgram;
  b.control = ControlKind::kRaw;
  b.data_rep = DataRep::kXdr;
  return b;
}

}  // namespace

HostTableServer::HostTableServer(World* world, std::string host)
    : world_(world), host_(std::move(host)), rpc_server_(ControlKind::kRaw, "hosttable@" + host_) {
  rpc_server_.RegisterProcedure(
      kHostTableProgram, kHostTableProcGet, [this](BytesView args) -> Result<Bytes> {
        // A table probe is about as cheap as a BIND lookup.
        ChargeMs(world_, kCosts.bind_lookup_cpu_ms);
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        auto it = table_.find(AsciiToLower(name));
        if (it == table_.end()) {
          return NotFoundError("host table has no entry for " + name);
        }
        XdrEncoder enc;
        enc.PutUint32(it->second);
        return enc.Take();
      });

  rpc_server_.RegisterProcedure(
      kHostTableProgram, kHostTableProcPut, [this](BytesView args) -> Result<Bytes> {
        ChargeMs(world_, kCosts.bind_update_cpu_ms);
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        HCS_ASSIGN_OR_RETURN(uint32_t address, dec.GetUint32());
        table_[AsciiToLower(name)] = address;
        return Bytes{};
      });
}

Result<HostTableServer*> HostTableServer::InstallOn(World* world, const std::string& host) {
  auto server = std::unique_ptr<HostTableServer>(new HostTableServer(world, host));
  HostTableServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kHostTablePort, raw->rpc()));
  return raw;
}

void HostTableServer::Put(const std::string& name, uint32_t address) {
  table_[AsciiToLower(name)] = address;
}

Status HostTablePut(RpcClient* client, const std::string& table_server_host,
                    const std::string& name, uint32_t address) {
  XdrEncoder enc;
  enc.PutString(name);
  enc.PutUint32(address);
  HCS_ASSIGN_OR_RETURN(Bytes reply, client->Call(TableServerBinding(table_server_host),
                                                 kHostTableProcPut, enc.Take()));
  (void)reply;
  return Status::Ok();
}

HostTableHostAddressNsm::HostTableHostAddressNsm(World* world, const std::string& locus_host,
                                                 Transport* transport, NsmInfo info,
                                                 std::string table_server_host,
                                                 CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      table_server_host_(std::move(table_server_host)) {}

Result<WireValue> HostTableHostAddressNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("HostTableHostAddressNsm"));
  (void)args;
  const std::string& local_name = name.individual;
  std::string key = "ht|" + AsciiToLower(local_name);

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  XdrEncoder enc;
  enc.PutString(local_name);
  ChargeMarshal(world_, MarshalEngine::kHandCoded, 1);
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       rpc_client_.Call(TableServerBinding(table_server_host_),
                                        kHostTableProcGet, enc.Take()));
  XdrDecoder dec(reply);
  HCS_ASSIGN_OR_RETURN(uint32_t address, dec.GetUint32());
  ChargeDemarshal(world_, MarshalEngine::kHandCoded, 1);

  WireValue result = RecordBuilder().U32("address", address).Str("host", local_name).Build();
  cache_.Put(key, result, 300);
  return result;
}

}  // namespace hcs
