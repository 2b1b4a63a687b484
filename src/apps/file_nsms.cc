#include "src/apps/file_nsms.h"

#include "src/common/strings.h"

namespace hcs {

namespace {

WireValue FileServiceResult(const std::string& flavor, const std::string& path,
                            const HrpcBinding& binding) {
  return RecordBuilder()
      .Str("flavor", flavor)
      .Str("path", path)
      .Value("binding", binding.ToWire())
      .Build();
}

}  // namespace

// ---------------------------------------------------------------------------
// BindFileServiceNsm
// ---------------------------------------------------------------------------

BindFileServiceNsm::BindFileServiceNsm(World* world, const std::string& locus_host,
                                       Transport* transport, NsmInfo info,
                                       std::string bind_server_host, CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      resolver_(&rpc_client_,
                [&bind_server_host] {
                  BindResolverOptions options;
                  options.server_host = bind_server_host;
                  options.engine = MarshalEngine::kHandCoded;
                  return options;
                }()) {}

Result<WireValue> BindFileServiceNsm::Query(const HnsName& name, const WireValue& args) {
  (void)args;
  // Unix file-name syntax: "<host>:<absolute path>".
  size_t colon = name.individual.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= name.individual.size()) {
    return InvalidArgumentError("Unix file names have the form host:/path, got: " +
                                name.individual);
  }
  std::string host = name.individual.substr(0, colon);
  std::string path = name.individual.substr(colon + 1);

  std::string key = "file|" + AsciiToLower(host);
  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    HCS_ASSIGN_OR_RETURN(WireValue binding_wire, cached->Field("binding"));
    HCS_ASSIGN_OR_RETURN(HrpcBinding binding, HrpcBinding::FromWire(binding_wire));
    return FileServiceResult(kFileFlavorNfs, path, binding);
  }

  HCS_ASSIGN_OR_RETURN(uint32_t address, resolver_.LookupAddress(host));

  HrpcBinding binding;
  binding.service_name = "filing";
  binding.host = host;
  binding.address = address;
  binding.port = kNfsLitePort;
  binding.program = kNfsLiteProgram;
  binding.version = 1;
  binding.data_rep = DataRep::kXdr;
  binding.transport = TransportKind::kUdp;
  binding.control = ControlKind::kSunRpc;
  binding.bind_protocol = BindProtocol::kStatic;

  cache_.Put(key, RecordBuilder().Value("binding", binding.ToWire()).Build(), 3600);
  return FileServiceResult(kFileFlavorNfs, path, binding);
}

// ---------------------------------------------------------------------------
// ChFileServiceNsm
// ---------------------------------------------------------------------------

ChFileServiceNsm::ChFileServiceNsm(World* world, const std::string& locus_host,
                                   Transport* transport, NsmInfo info,
                                   std::string ch_server_host, ChCredentials credentials,
                                   CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      client_stub_(&rpc_client_, std::move(ch_server_host), std::move(credentials)) {}

Result<WireValue> ChFileServiceNsm::Query(const HnsName& name, const WireValue& args) {
  (void)args;
  // XDE file-name syntax: "<object:domain:org>!<file name>".
  size_t bang = name.individual.find('!');
  if (bang == std::string::npos || bang == 0 || bang + 1 >= name.individual.size()) {
    return InvalidArgumentError("XDE file names have the form host!file, got: " +
                                name.individual);
  }
  HCS_ASSIGN_OR_RETURN(ChName host, ChName::Parse(name.individual.substr(0, bang)));
  std::string file = name.individual.substr(bang + 1);

  std::string key = "file|" + AsciiToLower(host.ToString());
  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    HCS_ASSIGN_OR_RETURN(WireValue binding_wire, cached->Field("binding"));
    HCS_ASSIGN_OR_RETURN(HrpcBinding binding, HrpcBinding::FromWire(binding_wire));
    return FileServiceResult(kFileFlavorXde, file, binding);
  }

  HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse response,
                       client_stub_.RetrieveItem(host, kChPropAddress));
  HCS_ASSIGN_OR_RETURN(uint32_t address, response.item.Uint32Field("address"));

  HrpcBinding binding;
  binding.service_name = "xde-filing";
  binding.host = response.distinguished_name.ToString();
  binding.address = address;
  binding.port = kXdeFilingPort;
  binding.program = kXdeFilingProgram;
  binding.version = 1;
  binding.data_rep = DataRep::kCourier;
  binding.transport = TransportKind::kSpp;
  binding.control = ControlKind::kCourier;
  binding.bind_protocol = BindProtocol::kCourierCh;

  cache_.Put(key, RecordBuilder().Value("binding", binding.ToWire()).Build(), 600);
  return FileServiceResult(kFileFlavorXde, file, binding);
}

}  // namespace hcs
