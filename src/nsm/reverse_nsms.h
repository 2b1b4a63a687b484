// The HostName query class: the reverse of HostAddress — given an internet
// address, name the host. The two worlds implement it very differently,
// which is exactly the heterogeneity an NSM hides:
//
//   BIND side: PTR records in the reverse zone (in-addr.arpa convention) —
//              one cheap indexed lookup;
//   CH side:   the Clearinghouse keeps no reverse index, so the NSM
//              enumerates the domain and retrieves address properties until
//              one matches — authenticated disk accesses all the way, the
//              1987 reality of asking Xerox "whose address is this?".

#ifndef HCS_SRC_NSM_REVERSE_NSMS_H_
#define HCS_SRC_NSM_REVERSE_NSMS_H_

#include <string>

#include "src/bindns/resolver.h"
#include "src/ch/client.h"
#include "src/nsm/nsm_base.h"

namespace hcs {

inline constexpr char kQueryClassHostName[] = "HostName";

// The dotted-quad syntax of a HostName individual name: "128.149.1.4".
std::string FormatAddress(uint32_t address);
HCS_NODISCARD Result<uint32_t> ParseAddress(const std::string& text);

// "4.1.149.128.in-addr.arpa" for 128.149.1.4.
std::string ReverseRecordName(uint32_t address);
// The PTR record a zone publishes for (address -> host).
ResourceRecord MakePtrRecord(uint32_t address, const std::string& host, uint32_t ttl = 3600);

class BindHostNameNsm : public NsmBase {
 public:
  BindHostNameNsm(World* world, const std::string& locus_host, Transport* transport,
                  NsmInfo info, std::string bind_server_host,
                  CacheMode cache_mode = CacheMode::kMarshalled);

  // Individual name: dotted-quad address text. Result: {host, address}.
  HCS_NODISCARD Result<WireValue> Query(const HnsName& name, const WireValue& args) override;

 private:
  BindResolver resolver_;
};

class ChHostNameNsm : public NsmBase {
 public:
  ChHostNameNsm(World* world, const std::string& locus_host, Transport* transport,
                NsmInfo info, std::string ch_server_host, ChCredentials credentials,
                // The domain to sweep, e.g. "CSL"/"Xerox".
                std::string domain, std::string organization,
                CacheMode cache_mode = CacheMode::kMarshalled);

  // Individual name: dotted-quad address text. Result: {host, address}.
  HCS_NODISCARD Result<WireValue> Query(const HnsName& name, const WireValue& args) override;

 private:
  ChClient client_stub_;
  std::string domain_;
  std::string organization_;
};

}  // namespace hcs

#endif  // HCS_SRC_NSM_REVERSE_NSMS_H_
