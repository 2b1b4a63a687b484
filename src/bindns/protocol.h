// The BIND client/server message formats. In the real system these are DNS
// packets; here they are XDR-framed bodies carried by the Raw HRPC control
// protocol (the paper's HNS likewise built an HRPC interface to BIND rather
// than use the standard library's packet routines).

#ifndef HCS_SRC_BINDNS_PROTOCOL_H_
#define HCS_SRC_BINDNS_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/bindns/record.h"
#include "src/bindns/zone.h"
#include "src/common/result.h"

namespace hcs {

// BIND server procedures (program kBindProgram).
constexpr uint32_t kBindProcQuery = 1;
// Dynamic update — supported only by the HNS-modified BIND.
constexpr uint32_t kBindProcUpdate = 2;
// Zone transfer (AXFR) — used by secondaries and by HNS cache preload.
constexpr uint32_t kBindProcAxfr = 3;
// Cache invalidation pushed by the modified-BIND primary to its forwarding
// secondaries when a dynamic update changes a name (part of the dynamic-
// update modification; plain BIND relies on TTL expiry alone).
constexpr uint32_t kBindProcInvalidate = 4;

// Response codes (DNS numbering).
enum class Rcode : uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

struct BindQueryRequest {
  std::string name;
  RrType type = RrType::kA;
  // A recursive query asks the server to chase the answer through its
  // forwarder on a miss; iterative queries fail over to the caller.
  bool recursion_desired = true;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindQueryRequest> Decode(const Bytes& data);
};

struct BindQueryResponse {
  Rcode rcode = Rcode::kNoError;
  std::vector<ResourceRecord> answers;
  // True when the answer came from this server's authoritative data rather
  // than its forwarding cache.
  bool authoritative = true;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindQueryResponse> Decode(const Bytes& data);
};

// The op-code word that opens a counted list of update operations.
constexpr uint32_t kUpdateListCode = 2;

// A dynamic update: operations (src/bindns/zone.h) the server applies in
// order, all or nothing, under one serial bump. One operation travels as
// its op code and record, the bytes a single update always had; a longer
// list as kUpdateListCode, a count, and an op code and record per
// operation.
struct BindUpdateRequest {
  std::vector<UpdateOperation> ops;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindUpdateRequest> Decode(const Bytes& data);
};

struct BindUpdateResponse {
  Rcode rcode = Rcode::kNoError;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindUpdateResponse> Decode(const Bytes& data);
};

struct BindInvalidateRequest {
  // All cached records of this name (any type) are dropped.
  std::string name;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindInvalidateRequest> Decode(const Bytes& data);
};

struct BindAxfrRequest {
  std::string origin;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindAxfrRequest> Decode(const Bytes& data);
};

struct BindAxfrResponse {
  Rcode rcode = Rcode::kNoError;
  uint32_t serial = 0;
  std::vector<ResourceRecord> records;

  Bytes Encode() const;
  HCS_NODISCARD static Result<BindAxfrResponse> Decode(const Bytes& data);
};

}  // namespace hcs

#endif  // HCS_SRC_BINDNS_PROTOCOL_H_
