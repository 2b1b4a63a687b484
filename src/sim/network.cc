#include "src/sim/network.h"

#include "src/common/strings.h"

namespace hcs {

std::string MachineTypeName(MachineType t) {
  switch (t) {
    case MachineType::kSun:
      return "Sun";
    case MachineType::kMicroVax:
      return "MicroVAX-II";
    case MachineType::kXeroxD:
      return "Xerox D-machine";
    case MachineType::kIbmRt:
      return "IBM RT";
    case MachineType::kTektronix4400:
      return "Tektronix 4400";
  }
  return "unknown";
}

std::string OsTypeName(OsType t) {
  switch (t) {
    case OsType::kUnix:
      return "Unix";
    case OsType::kXde:
      return "XDE";
    case OsType::kUniflex:
      return "Uniflex";
  }
  return "unknown";
}

Result<uint32_t> Network::AddHost(const std::string& name, MachineType machine, OsType os) {
  std::string key = AsciiToLower(name);
  if (key.empty()) {
    return InvalidArgumentError("host name must be non-empty");
  }
  if (index_by_name_.count(key) != 0) {
    return AlreadyExistsError("host already registered: " + name);
  }
  HostInfo info;
  info.name = name;
  info.machine = machine;
  info.os = os;
  info.address = next_address_++;
  index_by_name_[key] = hosts_.size();
  hosts_.push_back(info);
  return info.address;
}

Result<HostInfo> Network::GetHost(const std::string& name) const {
  auto it = index_by_name_.find(AsciiToLower(name));
  if (it == index_by_name_.end()) {
    return NotFoundError("no such host: " + name);
  }
  return hosts_[it->second];
}

bool Network::HasHost(const std::string& name) const {
  return index_by_name_.count(AsciiToLower(name)) != 0;
}

}  // namespace hcs
