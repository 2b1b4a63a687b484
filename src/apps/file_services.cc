#include "src/apps/file_services.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/wire/courier.h"
#include "src/wire/xdr.h"

namespace hcs {

// ---------------------------------------------------------------------------
// NfsLiteServer
// ---------------------------------------------------------------------------

NfsLiteServer::NfsLiteServer(World* world, std::string host)
    : world_(world), host_(std::move(host)), rpc_server_(ControlKind::kSunRpc, "nfs@" + host_) {
  RegisterHandlers();
}

Result<NfsLiteServer*> NfsLiteServer::InstallOn(World* world, const std::string& host) {
  auto server = std::unique_ptr<NfsLiteServer>(new NfsLiteServer(world, host));
  NfsLiteServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kNfsLitePort, raw->rpc()));
  return raw;
}

void NfsLiteServer::PutFile(const std::string& path, Bytes contents) {
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.contents = std::move(contents);
    return;
  }
  uint32_t handle = next_handle_++;
  files_[path] = File{handle, std::move(contents)};
  paths_by_handle_[handle] = path;
}

Result<Bytes> NfsLiteServer::GetFile(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + path);
  }
  return it->second.contents;
}

void NfsLiteServer::RegisterHandlers() {
  rpc_server_.RegisterProcedure(
      kNfsLiteProgram, kNfsProcLookup, [this](BytesView args) -> Result<Bytes> {
        ChargeMs(world_, 4.0);  // directory walk
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(std::string path, dec.GetString());
        auto it = files_.find(path);
        if (it == files_.end()) {
          return NotFoundError("no such file: " + path);
        }
        XdrEncoder enc;
        enc.PutUint32(it->second.handle);
        enc.PutUint32(static_cast<uint32_t>(it->second.contents.size()));
        return enc.Take();
      });

  rpc_server_.RegisterProcedure(
      kNfsLiteProgram, kNfsProcRead, [this](BytesView args) -> Result<Bytes> {
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(uint32_t handle, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t offset, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t count, dec.GetUint32());
        auto pit = paths_by_handle_.find(handle);
        if (pit == paths_by_handle_.end()) {
          return InvalidArgumentError("stale file handle");
        }
        const Bytes& contents = files_[pit->second].contents;
        if (offset > contents.size()) {
          return InvalidArgumentError("read past end of file");
        }
        size_t n = std::min<size_t>(count, contents.size() - offset);
        n = std::min(n, kNfsBlockBytes);
        // Disk block read.
        ChargeMs(world_, 3.0 + static_cast<double>(n) / 1024.0);
        XdrEncoder enc;
        enc.PutOpaque(Bytes(contents.begin() + offset, contents.begin() + offset + n));
        enc.PutBool(offset + n >= contents.size());  // eof
        return enc.Take();
      });

  rpc_server_.RegisterProcedure(
      kNfsLiteProgram, kNfsProcWrite, [this](BytesView args) -> Result<Bytes> {
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(uint32_t handle, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(uint32_t offset, dec.GetUint32());
        HCS_ASSIGN_OR_RETURN(Bytes data, dec.GetOpaque());
        auto pit = paths_by_handle_.find(handle);
        if (pit == paths_by_handle_.end()) {
          return InvalidArgumentError("stale file handle");
        }
        Bytes& contents = files_[pit->second].contents;
        if (offset > contents.size()) {
          return InvalidArgumentError("write past end of file");
        }
        if (contents.size() < offset + data.size()) {
          contents.resize(offset + data.size());
        }
        std::copy(data.begin(), data.end(), contents.begin() + offset);
        ChargeMs(world_, 4.0 + static_cast<double>(data.size()) / 1024.0);
        XdrEncoder enc;
        enc.PutUint32(static_cast<uint32_t>(contents.size()));
        return enc.Take();
      });

  rpc_server_.RegisterProcedure(
      kNfsLiteProgram, kNfsProcCreate, [this](BytesView args) -> Result<Bytes> {
        ChargeMs(world_, 5.0);
        XdrDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(std::string path, dec.GetString());
        if (files_.count(path) == 0) {
          PutFile(path, Bytes{});
        }
        XdrEncoder enc;
        enc.PutUint32(files_[path].handle);
        return enc.Take();
      });
}

// ---------------------------------------------------------------------------
// XdeFileServer
// ---------------------------------------------------------------------------

XdeFileServer::XdeFileServer(World* world, std::string host)
    : world_(world),
      host_(std::move(host)),
      rpc_server_(ControlKind::kCourier, "xdefiling@" + host_) {
  RegisterHandlers();
}

Result<XdeFileServer*> XdeFileServer::InstallOn(World* world, const std::string& host) {
  auto server = std::unique_ptr<XdeFileServer>(new XdeFileServer(world, host));
  XdeFileServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kXdeFilingPort, raw->rpc()));
  return raw;
}

void XdeFileServer::AddAccount(const std::string& user, const std::string& password) {
  accounts_[AsciiToLower(user)] = password;
}

void XdeFileServer::PutFile(const std::string& name, Bytes contents) {
  files_[AsciiToLower(name)] = std::move(contents);
}

Result<Bytes> XdeFileServer::GetFile(const std::string& name) const {
  auto it = files_.find(AsciiToLower(name));
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  return it->second;
}

Status XdeFileServer::Authenticate(const std::string& user, const std::string& password) {
  // Xerox services authenticate every access (same story as the
  // Clearinghouse).
  ChargeMs(world_, kCosts.ch_auth_ms);
  auto it = accounts_.find(AsciiToLower(user));
  if (it == accounts_.end() || it->second != password) {
    return PermissionDeniedError("filing authentication failed for " + user);
  }
  return Status::Ok();
}

void XdeFileServer::RegisterHandlers() {
  rpc_server_.RegisterProcedure(
      kXdeFilingProgram, kXdeProcRetrieve, [this](BytesView args) -> Result<Bytes> {
        CourierDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(std::string user, dec.GetString());
        HCS_ASSIGN_OR_RETURN(std::string password, dec.GetString());
        HCS_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        HCS_RETURN_IF_ERROR(Authenticate(user, password));
        auto it = files_.find(AsciiToLower(name));
        if (it == files_.end()) {
          return NotFoundError("no such file: " + name);
        }
        // Whole-file disk retrieval.
        ChargeMs(world_, kCosts.ch_disk_ms + static_cast<double>(it->second.size()) / 1024.0);
        CourierEncoder enc;
        enc.PutSequence(it->second);
        return enc.Take();
      });

  rpc_server_.RegisterProcedure(
      kXdeFilingProgram, kXdeProcStore, [this](BytesView args) -> Result<Bytes> {
        CourierDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(std::string user, dec.GetString());
        HCS_ASSIGN_OR_RETURN(std::string password, dec.GetString());
        HCS_ASSIGN_OR_RETURN(std::string name, dec.GetString());
        HCS_ASSIGN_OR_RETURN(Bytes contents, dec.GetSequence());
        HCS_RETURN_IF_ERROR(Authenticate(user, password));
        ChargeMs(world_, kCosts.ch_disk_ms + static_cast<double>(contents.size()) / 1024.0);
        files_[AsciiToLower(name)] = std::move(contents);
        return Bytes{};
      });

  rpc_server_.RegisterProcedure(
      kXdeFilingProgram, kXdeProcEnumerate, [this](BytesView args) -> Result<Bytes> {
        CourierDecoder dec(args);
        HCS_ASSIGN_OR_RETURN(std::string user, dec.GetString());
        HCS_ASSIGN_OR_RETURN(std::string password, dec.GetString());
        HCS_ASSIGN_OR_RETURN(std::string prefix, dec.GetString());
        HCS_RETURN_IF_ERROR(Authenticate(user, password));
        ChargeMs(world_, kCosts.ch_disk_ms);
        CourierEncoder enc;
        uint16_t count = 0;
        std::string prefix_key = AsciiToLower(prefix);
        for (const auto& [name, contents] : files_) {
          if (StartsWith(name, prefix_key)) {
            ++count;
          }
        }
        enc.PutCardinal(count);
        for (const auto& [name, contents] : files_) {
          if (StartsWith(name, prefix_key)) {
            enc.PutString(name);
          }
        }
        return enc.Take();
      });
}

}  // namespace hcs
