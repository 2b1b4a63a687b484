#include "src/nsm/ch_nsms.h"

#include "src/common/strings.h"

namespace hcs {

// ---------------------------------------------------------------------------
// ChHostAddressNsm
// ---------------------------------------------------------------------------

ChHostAddressNsm::ChHostAddressNsm(World* world, const std::string& locus_host,
                                   Transport* transport, NsmInfo info,
                                   std::string ch_server_host, ChCredentials credentials,
                                   CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      client_stub_(&rpc_client_, std::move(ch_server_host), std::move(credentials)) {}

Result<WireValue> ChHostAddressNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("ChHostAddressNsm"));
  (void)args;
  // Individual name -> local name: the native three-part Clearinghouse name.
  HCS_ASSIGN_OR_RETURN(ChName local_name, ChName::Parse(name.individual));
  std::string key = "ha|" + AsciiToLower(local_name.ToString());

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse response,
                       client_stub_.RetrieveItem(local_name, kChPropAddress));
  HCS_ASSIGN_OR_RETURN(uint32_t address, response.item.Uint32Field("address"));

  WireValue result = RecordBuilder()
                         .U32("address", address)
                         .Str("host", response.distinguished_name.ToString())
                         .Build();
  cache_.Put(key, result, kChNsmCacheTtlSeconds);
  return result;
}

// ---------------------------------------------------------------------------
// ChBindingNsm
// ---------------------------------------------------------------------------

ChBindingNsm::ChBindingNsm(World* world, const std::string& locus_host, Transport* transport,
                           NsmInfo info, std::string ch_server_host,
                           ChCredentials credentials, CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      client_stub_(&rpc_client_, std::move(ch_server_host), std::move(credentials)) {}

Result<WireValue> ChBindingNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("ChBindingNsm"));
  HCS_ASSIGN_OR_RETURN(std::string service, args.StringField("service"));
  HCS_ASSIGN_OR_RETURN(ChName local_name, ChName::Parse(name.individual));
  std::string key =
      "ch|" + AsciiToLower(local_name.ToString()) + "|" + AsciiToLower(service);

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  // 1. The service registration the exporter wrote into the Clearinghouse.
  HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse service_item,
                       client_stub_.RetrieveItem(local_name, kChPropService));
  // The service property holds one entry per exported service.
  HCS_ASSIGN_OR_RETURN(WireValue entry, service_item.item.Field(AsciiToLower(service)));
  HCS_ASSIGN_OR_RETURN(uint32_t program, entry.Uint32Field("program"));
  HCS_ASSIGN_OR_RETURN(uint32_t version, entry.Uint32Field("version"));
  HCS_ASSIGN_OR_RETURN(uint32_t port, entry.Uint32Field("port"));

  // 2. The host's network address property.
  HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse address_item,
                       client_stub_.RetrieveItem(local_name, kChPropAddress));
  HCS_ASSIGN_OR_RETURN(uint32_t address, address_item.item.Uint32Field("address"));

  // 3. The Courier binding protocol's listener handshake with the target.
  ChargeMs(world_, kCosts.courier_bind_handshake_cpu_ms + kCosts.net_rtt_cross_host_ms);

  HrpcBinding binding;
  binding.service_name = service;
  binding.host = address_item.distinguished_name.ToString();
  binding.address = address;
  binding.port = static_cast<uint16_t>(port);
  binding.program = program;
  binding.version = version;
  binding.data_rep = DataRep::kCourier;
  binding.transport = TransportKind::kSpp;
  binding.control = ControlKind::kCourier;
  binding.bind_protocol = BindProtocol::kCourierCh;

  WireValue result = binding.ToWire();
  cache_.Put(key, result, kChNsmCacheTtlSeconds);
  return result;
}

// ---------------------------------------------------------------------------
// ChMailboxNsm
// ---------------------------------------------------------------------------

ChMailboxNsm::ChMailboxNsm(World* world, const std::string& locus_host, Transport* transport,
                           NsmInfo info, std::string ch_server_host,
                           ChCredentials credentials, CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      client_stub_(&rpc_client_, std::move(ch_server_host), std::move(credentials)) {}

Result<WireValue> ChMailboxNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("ChMailboxNsm"));
  (void)args;
  HCS_ASSIGN_OR_RETURN(ChName local_name, ChName::Parse(name.individual));
  std::string key = "mb|" + AsciiToLower(local_name.ToString());

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  HCS_ASSIGN_OR_RETURN(ChRetrieveItemResponse response,
                       client_stub_.RetrieveItem(local_name, kChPropMailboxes));
  HCS_ASSIGN_OR_RETURN(std::string mail_host, response.item.StringField("mail_host"));

  WireValue result = RecordBuilder().Str("mail_host", mail_host).U32("preference", 0).Build();
  cache_.Put(key, result, kChNsmCacheTtlSeconds);
  return result;
}

}  // namespace hcs
