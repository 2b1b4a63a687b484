// An authoritative zone: the records under one origin suffix, plus the
// serial number that secondaries use to detect change.

#ifndef HCS_SRC_BINDNS_ZONE_H_
#define HCS_SRC_BINDNS_ZONE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/bindns/record.h"
#include "src/common/result.h"

namespace hcs {

enum class UpdateOp : uint8_t {
  kAdd = 0,
  // Removes all records of (name, type); type kAny removes the whole name.
  kDelete = 1,
};

// One operation of a dynamic update.
struct UpdateOperation {
  UpdateOp op = UpdateOp::kAdd;
  ResourceRecord record;  // for kDelete only name/type are meaningful
};

class Zone {
 public:
  // `origin` is the zone's suffix, e.g. "cs.washington.edu". Names are
  // case-insensitive throughout.
  explicit Zone(std::string origin);

  const std::string& origin() const { return origin_; }
  uint32_t serial() const { return serial_; }

  // True when `name` falls under this zone's origin.
  bool Contains(const std::string& name) const;

  // Adds a record. Enforces the 256-byte rdata limit and zone membership.
  // Multiple records may share a (name, type) — that is how BIND stores
  // alternate data for one name. Bumps the serial.
  HCS_NODISCARD Status Add(ResourceRecord rr);

  // Removes records. With `type` unset removes all records of `name`.
  // Returns the number removed; bumps the serial when nonzero.
  size_t Remove(const std::string& name, std::optional<RrType> type);

  // Applies a dynamic update's operations in order, all or nothing: every
  // operation is checked first (zone membership and the rdata limit), and a
  // refused list changes nothing. A list that changes the
  // zone bumps the serial exactly once (RFC 1034 4.3.5: a zone changes as
  // a whole under one serial).
  HCS_NODISCARD Status Apply(const std::vector<UpdateOperation>& ops);

  // Authoritative lookup. Follows one level of CNAME indirection within the
  // zone when the requested type has no records. kAny returns everything
  // under the name. Returns an empty vector (not an error) when the name
  // exists with other types; kNotFound when the name is absent entirely.
  HCS_NODISCARD Result<std::vector<ResourceRecord>> Lookup(const std::string& name, RrType type) const;

  // Every record in the zone (zone-transfer order: by name, then type).
  std::vector<ResourceRecord> All() const;

  // Replaces the whole zone contents (secondary refresh after a zone
  // transfer). The serial is taken from the primary.
  HCS_NODISCARD Status ReplaceAll(std::vector<ResourceRecord> records, uint32_t new_serial);

  // Number of records.
  size_t size() const;

 private:
  static std::string Key(const std::string& name);
  // The rdata-limit and membership checks of Add and Apply.
  Status CheckRecord(const ResourceRecord& rr) const;
  // The unchecked mutations under Add, Remove and Apply; no serial bump.
  void Insert(ResourceRecord rr);
  size_t Erase(const std::string& name, std::optional<RrType> type);

  std::string origin_;
  std::string origin_key_;
  uint32_t serial_ = 1;
  // name (lower-cased) -> type -> records.
  std::map<std::string, std::map<RrType, std::vector<ResourceRecord>>> names_;
};

}  // namespace hcs

#endif  // HCS_SRC_BINDNS_ZONE_H_
