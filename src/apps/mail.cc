#include "src/apps/mail.h"

#include "src/common/strings.h"
#include "src/wire/courier.h"
#include "src/wire/xdr.h"

namespace hcs {

// ---------------------------------------------------------------------------
// MailDropServer
// ---------------------------------------------------------------------------

MailDropServer::MailDropServer(World* world, std::string host, ControlKind control)
    : world_(world),
      host_(std::move(host)),
      control_(control),
      rpc_server_(control, "maildrop@" + host_) {
  RegisterHandlers();
}

Result<MailDropServer*> MailDropServer::InstallOn(World* world, const std::string& host,
                                                  ControlKind control) {
  auto server =
      std::unique_ptr<MailDropServer>(new MailDropServer(world, host, control));
  MailDropServer* raw = world->OwnService(std::move(server));
  HCS_RETURN_IF_ERROR(world->RegisterService(host, kMailDropPort, raw->rpc()));
  return raw;
}

Result<std::pair<std::string, std::string>> MailDropServer::DecodeDeliver(
    BytesView args) const {
  if (control_ == ControlKind::kCourier) {
    CourierDecoder dec(args);
    HCS_ASSIGN_OR_RETURN(std::string recipient, dec.GetString());
    HCS_ASSIGN_OR_RETURN(std::string message, dec.GetString());
    return std::make_pair(std::move(recipient), std::move(message));
  }
  XdrDecoder dec(args);
  HCS_ASSIGN_OR_RETURN(std::string recipient, dec.GetString());
  HCS_ASSIGN_OR_RETURN(std::string message, dec.GetString());
  return std::make_pair(std::move(recipient), std::move(message));
}

Result<std::string> MailDropServer::DecodeRecipient(BytesView args) const {
  if (control_ == ControlKind::kCourier) {
    CourierDecoder dec(args);
    return dec.GetString();
  }
  XdrDecoder dec(args);
  return dec.GetString();
}

void MailDropServer::RegisterHandlers() {
  rpc_server_.RegisterProcedure(
      kMailDropProgram, kMailProcDeliver, [this](BytesView args) -> Result<Bytes> {
        HCS_ASSIGN_OR_RETURN(auto delivery, DecodeDeliver(args));
        // Spool write to disk.
        ChargeMs(world_, 6.0 + static_cast<double>(delivery.second.size()) / 1024.0);
        spools_[AsciiToLower(delivery.first)].push_back(std::move(delivery.second));
        return Bytes{};
      });

  rpc_server_.RegisterProcedure(
      kMailDropProgram, kMailProcList, [this](BytesView args) -> Result<Bytes> {
        HCS_ASSIGN_OR_RETURN(std::string recipient, DecodeRecipient(args));
        ChargeMs(world_, 2.0);
        uint32_t count = 0;
        auto it = spools_.find(AsciiToLower(recipient));
        if (it != spools_.end()) {
          count = static_cast<uint32_t>(it->second.size());
        }
        if (control_ == ControlKind::kCourier) {
          CourierEncoder enc;
          enc.PutLongCardinal(count);
          return enc.Take();
        }
        XdrEncoder enc;
        enc.PutUint32(count);
        return enc.Take();
      });

  rpc_server_.RegisterProcedure(
      kMailDropProgram, kMailProcFetch, [this](BytesView args) -> Result<Bytes> {
        ChargeMs(world_, 4.0);
        std::string recipient;
        uint32_t index = 0;
        if (control_ == ControlKind::kCourier) {
          CourierDecoder dec(args);
          HCS_ASSIGN_OR_RETURN(recipient, dec.GetString());
          HCS_ASSIGN_OR_RETURN(index, dec.GetLongCardinal());
        } else {
          XdrDecoder dec(args);
          HCS_ASSIGN_OR_RETURN(recipient, dec.GetString());
          HCS_ASSIGN_OR_RETURN(index, dec.GetUint32());
        }
        auto it = spools_.find(AsciiToLower(recipient));
        if (it == spools_.end() || index >= it->second.size()) {
          return NotFoundError("no such spooled message");
        }
        if (control_ == ControlKind::kCourier) {
          CourierEncoder enc;
          enc.PutString(it->second[index]);
          return enc.Take();
        }
        XdrEncoder enc;
        enc.PutString(it->second[index]);
        return enc.Take();
      });
}

size_t MailDropServer::SpoolSize(const std::string& recipient) const {
  auto it = spools_.find(AsciiToLower(recipient));
  return it == spools_.end() ? 0 : it->second.size();
}

Result<std::string> MailDropServer::SpooledMessage(const std::string& recipient,
                                                   size_t index) const {
  auto it = spools_.find(AsciiToLower(recipient));
  if (it == spools_.end() || index >= it->second.size()) {
    return NotFoundError("no such spooled message");
  }
  return it->second[index];
}

// ---------------------------------------------------------------------------
// MailAgent
// ---------------------------------------------------------------------------

MailAgent::MailAgent(HnsSession* session) : session_(session), importer_(session) {}

Result<std::string> MailAgent::BindingContextFor(const std::string& mail_context) {
  // "Mail-<world>" routes through "HRPCBinding-<world>": the world suffix is
  // the HNS administrator's convention tying contexts of one subsystem
  // together.
  if (!StartsWith(mail_context, "Mail-")) {
    return InvalidArgumentError("not a mail context: " + mail_context);
  }
  return "HRPCBinding-" + mail_context.substr(5);
}

std::string MailAgent::SpoolKey(const HnsName& recipient) { return recipient.individual; }

std::string MailAgent::MailboxQueryName(const HnsName& recipient) {
  // Unix-world recipients look like "user@domain": the relay is chosen per
  // domain (MX semantics). Other worlds use the whole individual name.
  size_t at = recipient.individual.find('@');
  if (at != std::string::npos && at + 1 < recipient.individual.size()) {
    return recipient.individual.substr(at + 1);
  }
  return recipient.individual;
}

Result<std::string> MailAgent::Deliver(const std::string& to, const std::string& message) {
  HCS_ASSIGN_OR_RETURN(HnsName recipient, HnsName::Parse(to));
  // Validate the context shape before spending remote lookups.
  HCS_ASSIGN_OR_RETURN(std::string binding_context, BindingContextFor(recipient.context));

  // 1. Who is responsible for this recipient's mail?
  HnsName mailbox_name;
  mailbox_name.context = recipient.context;
  mailbox_name.individual = MailboxQueryName(recipient);
  WireValue no_args = WireValue::OfRecord({});
  HCS_ASSIGN_OR_RETURN(WireValue mailbox,
                       session_->Query(mailbox_name, kQueryClassMailboxInfo, no_args));
  HCS_ASSIGN_OR_RETURN(std::string relay, mailbox.StringField("mail_host"));

  // 2. Bind to the relay's mail-drop service through the same world's
  // binding context.
  HnsName relay_name;
  relay_name.context = binding_context;
  relay_name.individual = relay;
  HCS_ASSIGN_OR_RETURN(HrpcBinding binding, importer_.Import("MailDrop", relay_name));

  // 3. One DELIVER call in the relay's native representation.
  Bytes args;
  if (binding.data_rep == DataRep::kCourier) {
    CourierEncoder enc;
    enc.PutString(SpoolKey(recipient));
    enc.PutString(message);
    args = enc.Take();
  } else {
    XdrEncoder enc;
    enc.PutString(SpoolKey(recipient));
    enc.PutString(message);
    args = enc.Take();
  }
  HCS_ASSIGN_OR_RETURN(Bytes reply,
                       session_->rpc_client().Call(binding, kMailProcDeliver, args));
  (void)reply;
  ++deliveries_;
  return relay;
}

}  // namespace hcs
