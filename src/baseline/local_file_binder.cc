#include "src/baseline/local_file_binder.h"

#include "src/common/strings.h"
#include "src/rpc/portmapper.h"
#include "src/rpc/ports.h"

namespace hcs {

void ReplicatedBindingFile::Register(const std::string& host, const std::string& service,
                                     uint32_t program, uint32_t version, uint32_t protocol,
                                     uint32_t address) {
  text_ += StrFormat("%s %s %u %u %u %u\n", AsciiToLower(host).c_str(),
                     AsciiToLower(service).c_str(), program, version, protocol, address);
  ++lines_;
  ++registrations_;
}

LocalFileBinder::LocalFileBinder(World* world, std::string locus_host, Transport* transport,
                                 std::shared_ptr<ReplicatedBindingFile> file)
    : world_(world),
      locus_host_(std::move(locus_host)),
      rpc_client_(world, locus_host_, transport),
      file_(std::move(file)) {}

Result<HrpcBinding> LocalFileBinder::Bind(const std::string& service,
                                          const std::string& host) {
  // Open and scan the whole replica (1987 local disk); this dominates the
  // baseline's cost.
  ChargeMs(world_,
           kCosts.local_file_open_scan_ms + 0.05 * static_cast<double>(file_->line_count()));

  std::string want_host = AsciiToLower(host);
  std::string want_service = AsciiToLower(service);
  for (const std::string& line : StrSplit(file_->text(), '\n')) {
    std::vector<std::string> fields = StrSplit(line, ' ');
    if (fields.size() != 6 || fields[0] != want_host || fields[1] != want_service) {
      continue;
    }
    // Replica lines are plain text anyone can edit; a corrupt numeric field
    // is a malformed-file error, not a std::stoul throw.
    HCS_ASSIGN_OR_RETURN(uint32_t program, ParseU32(fields[2]));
    HCS_ASSIGN_OR_RETURN(uint32_t version, ParseU32(fields[3]));
    HCS_ASSIGN_OR_RETURN(uint32_t protocol, ParseU32(fields[4]));
    HCS_ASSIGN_OR_RETURN(uint32_t address, ParseU32(fields[5]));

    // The Sun binding protocol proper.
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
    binding.bind_protocol = BindProtocol::kLocalFile;
    return binding;
  }
  return NotFoundError(StrFormat("no reregistered entry for %s on %s (replica stale?)",
                                 service.c_str(), host.c_str()));
}

}  // namespace hcs
