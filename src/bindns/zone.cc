#include "src/bindns/zone.h"

#include "src/common/strings.h"

namespace hcs {

Zone::Zone(std::string origin) : origin_(std::move(origin)) {
  origin_key_ = AsciiToLower(origin_);
}

std::string Zone::Key(const std::string& name) { return AsciiToLower(name); }

bool Zone::Contains(const std::string& name) const {
  std::string key = Key(name);
  if (key == origin_key_) {
    return true;
  }
  return EndsWith(key, "." + origin_key_);
}

Status Zone::CheckRecord(const ResourceRecord& rr) const {
  if (rr.rdata.size() > kMaxRdataBytes) {
    return InvalidArgumentError(
        StrFormat("rdata of %s exceeds %zu bytes", rr.name.c_str(), kMaxRdataBytes));
  }
  if (!Contains(rr.name)) {
    return InvalidArgumentError(
        StrFormat("%s is outside zone %s", rr.name.c_str(), origin_.c_str()));
  }
  return Status::Ok();
}

void Zone::Insert(ResourceRecord rr) { names_[Key(rr.name)][rr.type].push_back(std::move(rr)); }

size_t Zone::Erase(const std::string& name, std::optional<RrType> type) {
  auto it = names_.find(Key(name));
  if (it == names_.end()) {
    return 0;
  }
  size_t removed = 0;
  if (type.has_value()) {
    auto tit = it->second.find(*type);
    if (tit != it->second.end()) {
      removed = tit->second.size();
      it->second.erase(tit);
    }
  } else {
    for (const auto& [t, records] : it->second) {
      removed += records.size();
    }
    it->second.clear();
  }
  if (it->second.empty()) {
    names_.erase(it);
  }
  return removed;
}

Status Zone::Add(ResourceRecord rr) {
  HCS_RETURN_IF_ERROR(CheckRecord(rr));
  Insert(std::move(rr));
  ++serial_;
  return Status::Ok();
}

size_t Zone::Remove(const std::string& name, std::optional<RrType> type) {
  size_t removed = Erase(name, type);
  if (removed > 0) {
    ++serial_;
  }
  return removed;
}

Status Zone::Apply(const std::vector<UpdateOperation>& ops) {
  for (const UpdateOperation& op : ops) {
    HCS_RETURN_IF_ERROR(CheckRecord(op.record));  // a delete carries no rdata
  }
  bool changed = false;
  for (const UpdateOperation& op : ops) {
    if (op.op == UpdateOp::kAdd) {
      Insert(op.record);
      changed = true;
    } else {
      std::optional<RrType> type;
      if (op.record.type != RrType::kAny) {
        type = op.record.type;
      }
      changed = Erase(op.record.name, type) > 0 || changed;
    }
  }
  if (changed) {
    ++serial_;
  }
  return Status::Ok();
}

Result<std::vector<ResourceRecord>> Zone::Lookup(const std::string& name, RrType type) const {
  auto it = names_.find(Key(name));
  if (it == names_.end()) {
    return NotFoundError("no such name in zone: " + name);
  }
  if (type == RrType::kAny) {
    std::vector<ResourceRecord> out;
    for (const auto& [t, records] : it->second) {
      out.insert(out.end(), records.begin(), records.end());
    }
    return out;
  }
  auto tit = it->second.find(type);
  if (tit != it->second.end()) {
    return tit->second;
  }
  // CNAME indirection: if the name is an alias, chase one level within the
  // zone (BIND 4.x behaviour for in-zone aliases).
  auto cit = it->second.find(RrType::kCname);
  if (cit != it->second.end() && !cit->second.empty()) {
    HCS_ASSIGN_OR_RETURN(std::string target, cit->second.front().TextRdata());
    if (Contains(target) && Key(target) != Key(name)) {
      HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> chased, Lookup(target, type));
      // Prepend the alias record so the caller can see the indirection.
      std::vector<ResourceRecord> out;
      out.push_back(cit->second.front());
      out.insert(out.end(), chased.begin(), chased.end());
      return out;
    }
  }
  // Name exists but not with this type.
  return std::vector<ResourceRecord>{};
}

Status Zone::ReplaceAll(std::vector<ResourceRecord> records, uint32_t new_serial) {
  decltype(names_) fresh;
  for (ResourceRecord& rr : records) {
    if (rr.rdata.size() > kMaxRdataBytes) {
      return InvalidArgumentError("rdata too large in zone transfer");
    }
    if (!Contains(rr.name)) {
      return InvalidArgumentError("transferred record outside zone: " + rr.name);
    }
    fresh[Key(rr.name)][rr.type].push_back(std::move(rr));
  }
  names_ = std::move(fresh);
  serial_ = new_serial;
  return Status::Ok();
}

std::vector<ResourceRecord> Zone::All() const {
  std::vector<ResourceRecord> out;
  for (const auto& [name, by_type] : names_) {
    for (const auto& [t, records] : by_type) {
      out.insert(out.end(), records.begin(), records.end());
    }
  }
  return out;
}

size_t Zone::size() const {
  size_t n = 0;
  for (const auto& [name, by_type] : names_) {
    for (const auto& [t, records] : by_type) {
      n += records.size();
    }
  }
  return n;
}

}  // namespace hcs
