// The simulated internetwork: a set of named heterogeneous hosts joined by
// an Ethernet. Latency comes from the CostModel.

#ifndef HCS_SRC_SIM_NETWORK_H_
#define HCS_SRC_SIM_NETWORK_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace hcs {

// The machine families of the HCS testbed (paper §3: Suns, VAXen, Xerox
// D-machines, IBM RTs, Tektronix 4400s).
enum class MachineType {
  kSun,
  kMicroVax,
  kXeroxD,
  kIbmRt,
  kTektronix4400,
};

// Operating systems of the testbed (Unix, Xerox XDE, Uniflex).
enum class OsType {
  kUnix,
  kXde,
  kUniflex,
};

std::string MachineTypeName(MachineType t);
std::string OsTypeName(OsType t);

struct HostInfo {
  std::string name;
  MachineType machine = MachineType::kMicroVax;
  OsType os = OsType::kUnix;
  // Simulated 32-bit internet address, assigned at registration.
  uint32_t address = 0;
};

class Network {
 public:
  Network() = default;

  // Registers a host. Host names are case-insensitive and must be unique.
  // Returns the assigned address.
  HCS_NODISCARD Result<uint32_t> AddHost(const std::string& name, MachineType machine, OsType os);

  // Looks up a registered host.
  HCS_NODISCARD Result<HostInfo> GetHost(const std::string& name) const;

  bool HasHost(const std::string& name) const;

  // All registered hosts, in registration order.
  const std::vector<HostInfo>& hosts() const { return hosts_; }

 private:
  std::vector<HostInfo> hosts_;
  std::map<std::string, size_t> index_by_name_;  // lower-cased name -> index
  uint32_t next_address_ = 0x80010001;  // 128.1.0.1 onward
};

}  // namespace hcs

#endif  // HCS_SRC_SIM_NETWORK_H_
