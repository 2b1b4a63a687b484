#include "src/nsm/reverse_nsms.h"

#include "src/common/strings.h"
#include "src/nsm/ch_nsms.h"

namespace hcs {

std::string FormatAddress(uint32_t address) {
  return StrFormat("%u.%u.%u.%u", (address >> 24) & 0xff, (address >> 16) & 0xff,
                   (address >> 8) & 0xff, address & 0xff);
}

Result<uint32_t> ParseAddress(const std::string& text) {
  std::vector<std::string> parts = StrSplit(text, '.');
  if (parts.size() != 4) {
    return InvalidArgumentError("address is not a dotted quad: " + text);
  }
  uint32_t address = 0;
  for (const std::string& part : parts) {
    if (part.empty() || part.size() > 3 ||
        part.find_first_not_of("0123456789") != std::string::npos) {
      return InvalidArgumentError("bad address octet: " + text);
    }
    int v = std::stoi(part);
    if (v > 255) {
      return InvalidArgumentError("address octet out of range: " + text);
    }
    address = (address << 8) | static_cast<uint32_t>(v);
  }
  return address;
}

std::string ReverseRecordName(uint32_t address) {
  return StrFormat("%u.%u.%u.%u.in-addr.arpa", address & 0xff, (address >> 8) & 0xff,
                   (address >> 16) & 0xff, (address >> 24) & 0xff);
}

ResourceRecord MakePtrRecord(uint32_t address, const std::string& host, uint32_t ttl) {
  ResourceRecord rr;
  rr.name = ReverseRecordName(address);
  rr.type = RrType::kPtr;
  rr.ttl_seconds = ttl;
  rr.rdata = BytesFromString(host);
  return rr;
}

// ---------------------------------------------------------------------------
// BindHostNameNsm
// ---------------------------------------------------------------------------

BindHostNameNsm::BindHostNameNsm(World* world, const std::string& locus_host,
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

Result<WireValue> BindHostNameNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("BindHostNameNsm"));
  (void)args;
  HCS_ASSIGN_OR_RETURN(uint32_t address, ParseAddress(name.individual));
  std::string key = "ptr|" + ReverseRecordName(address);

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> records,
                       resolver_.Query(ReverseRecordName(address), RrType::kPtr));
  HCS_ASSIGN_OR_RETURN(std::string host, records.front().TextRdata());

  WireValue result = RecordBuilder().Str("host", host).U32("address", address).Build();
  uint32_t ttl = records.front().ttl_seconds;
  cache_.Put(key, result, ttl);
  return result;
}

// ---------------------------------------------------------------------------
// ChHostNameNsm
// ---------------------------------------------------------------------------

ChHostNameNsm::ChHostNameNsm(World* world, const std::string& locus_host,
                             Transport* transport, NsmInfo info, std::string ch_server_host,
                             ChCredentials credentials, std::string domain,
                             std::string organization, CacheMode cache_mode)
    : NsmBase(world, locus_host, transport, std::move(info), cache_mode),
      client_stub_(&rpc_client_, std::move(ch_server_host), std::move(credentials)),
      domain_(std::move(domain)),
      organization_(std::move(organization)) {}

Result<WireValue> ChHostNameNsm::Query(const HnsName& name, const WireValue& args) {
  HCS_RETURN_IF_ERROR(CheckBudget("ChHostNameNsm"));
  (void)args;
  HCS_ASSIGN_OR_RETURN(uint32_t address, ParseAddress(name.individual));
  std::string key = "rev|" + std::to_string(address);

  Result<WireValue> cached = cache_.Get(key);
  if (cached.ok()) {
    return cached;
  }

  // No reverse index: enumerate the domain and probe address properties.
  HCS_ASSIGN_OR_RETURN(std::vector<std::string> objects,
                       client_stub_.ListObjects(domain_, organization_));
  for (const std::string& object : objects) {
    ChName candidate;
    candidate.object = object;
    candidate.domain = domain_;
    candidate.organization = organization_;
    Result<ChRetrieveItemResponse> item =
        client_stub_.RetrieveItem(candidate, kChPropAddress);
    if (!item.ok()) {
      continue;  // object without an address property
    }
    Result<uint32_t> candidate_address = item->item.Uint32Field("address");
    if (candidate_address.ok() && *candidate_address == address) {
      WireValue result = RecordBuilder()
                             .Str("host", item->distinguished_name.ToString())
                             .U32("address", address)
                             .Build();
      cache_.Put(key, result, kChNsmCacheTtlSeconds);
      return result;
    }
  }
  return NotFoundError(StrFormat("no %s:%s object has address %s", domain_.c_str(),
                                 organization_.c_str(), name.individual.c_str()));
}

}  // namespace hcs
