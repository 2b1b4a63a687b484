// DNS resource records, BIND 4.x style. BIND data is stored as a collection
// of resource records, each of which can be up to 256 bytes of data;
// separate resource records store alternate data for one name (paper
// footnote 9). The HNS-modified BIND additionally stores "data of
// unspecified type" (kUnspec), which this tree uses to hold self-describing
// WireValues, chunked across records when they exceed the record size limit.

#ifndef HCS_SRC_BINDNS_RECORD_H_
#define HCS_SRC_BINDNS_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/wire/value.h"
#include "src/wire/xdr.h"

namespace hcs {

// Record types (standard DNS numbering; kUnspec is the modified-BIND
// extension).
enum class RrType : uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kPtr = 12,
  kHinfo = 13,
  kMx = 15,
  kTxt = 16,
  kWks = 11,
  kUnspec = 103,
  // Query-only pseudo-type: all records of a name.
  kAny = 255,
};

std::string RrTypeName(RrType type);

// Maximum RDATA size per record (BIND 4.x limit the paper cites).
constexpr size_t kMaxRdataBytes = 256;

struct ResourceRecord {
  std::string name;
  RrType type = RrType::kTxt;
  // Time to live, seconds. Drives the forwarder's cache, the NSMs' result
  // caches and the HNS cache (the paper inherits BIND's TTL invalidation).
  uint32_t ttl_seconds = 3600;
  Bytes rdata;

  // Factories for common record shapes.
  static ResourceRecord MakeA(std::string record_name, uint32_t address,
                              uint32_t ttl = 3600);
  static ResourceRecord MakeTxt(std::string record_name, const std::string& text,
                                uint32_t ttl = 3600);
  static ResourceRecord MakeCname(std::string record_name, const std::string& target,
                                  uint32_t ttl = 3600);

  // Typed RDATA accessors (kProtocolError on shape mismatch).
  HCS_NODISCARD Result<uint32_t> AddressRdata() const;
  HCS_NODISCARD Result<std::string> TextRdata() const;

  // Wire form within BIND protocol messages.
  void EncodeTo(XdrEncoder* enc) const;
  HCS_NODISCARD static Result<ResourceRecord> DecodeFrom(XdrDecoder* dec);

  std::string ToString() const;

  friend bool operator==(const ResourceRecord& a, const ResourceRecord& b);
};

// Splits an encoded WireValue into one or more kUnspec records under `name`
// (chunked to the 256-byte record limit, chunk index in the first rdata
// byte pair) and reassembles it. This is how the HNS meta-store keeps
// structured data inside the modified BIND.
std::vector<ResourceRecord> UnspecRecordsFromValue(const std::string& name,
                                                   const WireValue& value,
                                                   uint32_t ttl = 3600);
HCS_NODISCARD Result<WireValue> ValueFromUnspecRecords(std::vector<ResourceRecord> records);

}  // namespace hcs

#endif  // HCS_SRC_BINDNS_RECORD_H_
