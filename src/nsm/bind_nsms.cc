#include "src/nsm/bind_nsms.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/rpc/portmapper.h"
#include "src/rpc/ports.h"

namespace hcs {

namespace {

BindResolverOptions UnderlyingResolverOptions(std::string server_host) {
  BindResolverOptions options;
  options.server_host = std::move(server_host);
  options.engine = MarshalEngine::kHandCoded;
  return options;
}

uint32_t MinTtl(const std::vector<ResourceRecord>& records) {
  uint32_t ttl = 3600;
  for (const ResourceRecord& rr : records) {
    ttl = std::min(ttl, rr.ttl_seconds);
  }
  return ttl;
}

}  // namespace

std::string SunServiceRecordName(const std::string& host, const std::string& service) {
  return "_svc." + AsciiToLower(service) + "." + AsciiToLower(host);
}

ResourceRecord MakeSunServiceRecord(const std::string& host, const std::string& service,
                                    uint32_t program, uint32_t version, uint32_t protocol,
                                    uint32_t ttl) {
  ResourceRecord rr;
  rr.name = SunServiceRecordName(host, service);
  rr.type = RrType::kWks;
  rr.ttl_seconds = ttl;
  rr.rdata = RecordBuilder()
                 .U32("program", program)
                 .U32("version", version)
                 .U32("protocol", protocol)
                 .Build()
                 .Encode();
  return rr;
}

// ---------------------------------------------------------------------------
// BindHostAddressNsm
// ---------------------------------------------------------------------------

BindHostAddressNsm::BindHostAddressNsm(World* world, const std::string& locus_host,
                                       Transport* transport, NsmInfo info,
                                       std::string bind_server_host, CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      resolver_(&rpc_client_, UnderlyingResolverOptions(std::move(bind_server_host))) {}

Result<WireValue> BindHostAddressNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("BindHostAddressNsm"));
  (void)args;
  // Individual name -> local name: identity for BIND systems.
  const std::string& local_name = name.individual;
  std::string key = "ha|" + AsciiToLower(local_name);

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> records,
                       resolver_.Query(local_name, RrType::kA));
  HCS_ASSIGN_OR_RETURN(uint32_t address, records.front().AddressRdata());

  WireValue result =
      RecordBuilder().U32("address", address).Str("host", local_name).Build();
  cache_.Put(key, result, MinTtl(records));
  return result;
}

// ---------------------------------------------------------------------------
// BindBindingNsm
// ---------------------------------------------------------------------------

BindBindingNsm::BindBindingNsm(World* world, const std::string& locus_host,
                               Transport* transport, NsmInfo info,
                               std::string bind_server_host, CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      resolver_(&rpc_client_, UnderlyingResolverOptions(std::move(bind_server_host))) {}

Result<WireValue> BindBindingNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("BindBindingNsm"));
  HCS_ASSIGN_OR_RETURN(std::string service, args.StringField("service"));
  const std::string& host = name.individual;
  std::string key = "bind|" + AsciiToLower(host) + "|" + AsciiToLower(service);

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  // 1. The host's address, from its BIND zone.
  HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> address_records,
                       resolver_.Query(host, RrType::kA));
  HCS_ASSIGN_OR_RETURN(uint32_t address, address_records.front().AddressRdata());

  // 2. The service descriptor the exporting host published.
  HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> service_records,
                       resolver_.Query(SunServiceRecordName(host, service), RrType::kWks));
  HCS_ASSIGN_OR_RETURN(WireValue descriptor,
                       WireValue::Decode(service_records.front().rdata));
  HCS_ASSIGN_OR_RETURN(uint32_t program, descriptor.Uint32Field("program"));
  HCS_ASSIGN_OR_RETURN(uint32_t version, descriptor.Uint32Field("version"));
  HCS_ASSIGN_OR_RETURN(uint32_t protocol, descriptor.Uint32Field("protocol"));

  // 3. The Sun binding protocol proper: ask the portmapper on the target
  // host for the service's current port.
  HCS_ASSIGN_OR_RETURN(uint16_t port,
                       PortMapper::GetPort(&rpc_client_, host, program, version, protocol));

  HrpcBinding binding;
  binding.service_name = service;
  binding.host = host;
  binding.address = address;
  binding.port = port;
  binding.program = program;
  binding.version = version;
  binding.data_rep = DataRep::kXdr;
  binding.transport =
      protocol == kIpProtoTcp ? TransportKind::kTcp : TransportKind::kUdp;
  binding.control = ControlKind::kSunRpc;
  binding.bind_protocol = BindProtocol::kSunPortmap;

  WireValue result = binding.ToWire();
  cache_.Put(key, result, std::min(MinTtl(address_records), MinTtl(service_records)));
  return result;
}

// ---------------------------------------------------------------------------
// BindMailboxNsm
// ---------------------------------------------------------------------------

BindMailboxNsm::BindMailboxNsm(World* world, const std::string& locus_host,
                               Transport* transport, NsmInfo info,
                               std::string bind_server_host, CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      resolver_(&rpc_client_, UnderlyingResolverOptions(std::move(bind_server_host))) {}

Result<WireValue> BindMailboxNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("BindMailboxNsm"));
  (void)args;
  const std::string& domain = name.individual;
  std::string key = "mx|" + AsciiToLower(domain);

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> records,
                       resolver_.Query(domain, RrType::kMx));
  // MX rdata: "<preference> <relay-host>".
  uint32_t best_preference = 0xffffffff;
  std::string best_host;
  for (const ResourceRecord& rr : records) {
    if (rr.type != RrType::kMx) {
      continue;
    }
    std::vector<std::string> fields = StrSplit(StringFromBytes(rr.rdata), ' ');
    // The rdata text came off the wire; a non-numeric or overlong preference
    // must come back as a protocol error, not a throw out of std::stoul.
    Result<uint32_t> preference =
        fields.size() == 2 ? ParseU32(fields[0])
                           : InvalidArgumentError("wrong field count");
    if (!preference.ok()) {
      return ProtocolError("malformed MX record for " + domain);
    }
    if (*preference < best_preference) {
      best_preference = *preference;
      best_host = fields[1];
    }
  }
  if (best_host.empty()) {
    return NotFoundError("no usable MX records for " + domain);
  }

  WireValue result =
      RecordBuilder().Str("mail_host", best_host).U32("preference", best_preference).Build();
  cache_.Put(key, result, MinTtl(records));
  return result;
}

}  // namespace hcs
