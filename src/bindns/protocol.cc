#include "src/bindns/protocol.h"

#include "src/common/strings.h"
#include "src/wire/xdr.h"

namespace hcs {

namespace {

void EncodeRecords(XdrEncoder* enc, const std::vector<ResourceRecord>& records) {
  enc->PutUint32(static_cast<uint32_t>(records.size()));
  for (const ResourceRecord& rr : records) {
    rr.EncodeTo(enc);
  }
}

Result<std::vector<ResourceRecord>> DecodeRecords(XdrDecoder* dec) {
  HCS_ASSIGN_OR_RETURN(uint32_t n, dec->GetUint32());
  if (n > 65536) {
    return ProtocolError("record set implausibly large");
  }
  std::vector<ResourceRecord> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    HCS_ASSIGN_OR_RETURN(ResourceRecord rr, ResourceRecord::DecodeFrom(dec));
    out.push_back(std::move(rr));
  }
  return out;
}

}  // namespace

Bytes BindQueryRequest::Encode() const {
  XdrEncoder enc;
  enc.PutString(name);
  enc.PutUint32(static_cast<uint32_t>(type));
  enc.PutBool(recursion_desired);
  return enc.Take();
}

Result<BindQueryRequest> BindQueryRequest::Decode(const Bytes& data) {
  XdrDecoder dec(data);
  BindQueryRequest req;
  HCS_ASSIGN_OR_RETURN(req.name, dec.GetString());
  HCS_ASSIGN_OR_RETURN(uint32_t type, dec.GetUint32());
  req.type = static_cast<RrType>(type);
  HCS_ASSIGN_OR_RETURN(req.recursion_desired, dec.GetBool());
  return req;
}

Bytes BindQueryResponse::Encode() const {
  XdrEncoder enc;
  enc.PutUint32(static_cast<uint32_t>(rcode));
  enc.PutBool(authoritative);
  EncodeRecords(&enc, answers);
  return enc.Take();
}

Result<BindQueryResponse> BindQueryResponse::Decode(const Bytes& data) {
  XdrDecoder dec(data);
  BindQueryResponse resp;
  HCS_ASSIGN_OR_RETURN(uint32_t rcode, dec.GetUint32());
  resp.rcode = static_cast<Rcode>(rcode);
  HCS_ASSIGN_OR_RETURN(resp.authoritative, dec.GetBool());
  HCS_ASSIGN_OR_RETURN(resp.answers, DecodeRecords(&dec));
  return resp;
}

Bytes BindUpdateRequest::Encode() const {
  XdrEncoder enc;
  if (ops.size() != 1) {
    enc.PutUint32(kUpdateListCode);
    enc.PutUint32(static_cast<uint32_t>(ops.size()));
  }
  for (const UpdateOperation& op : ops) {
    enc.PutUint32(static_cast<uint32_t>(op.op));
    op.record.EncodeTo(&enc);
  }
  return enc.Take();
}

Result<BindUpdateRequest> BindUpdateRequest::Decode(const Bytes& data) {
  XdrDecoder dec(data);
  BindUpdateRequest req;
  HCS_ASSIGN_OR_RETURN(uint32_t code, dec.GetUint32());
  const bool listed = code == kUpdateListCode;
  uint32_t count = 1;
  if (listed) {
    HCS_ASSIGN_OR_RETURN(count, dec.GetUint32());
    if (count == 0 || count > 65536) {
      return ProtocolError(StrFormat("bad update list length %u", count));
    }
  }
  for (uint32_t i = 0; i < count; ++i) {
    if (listed) {
      HCS_ASSIGN_OR_RETURN(code, dec.GetUint32());
    }
    if (code > 1) {
      return ProtocolError(StrFormat("bad update op %u", code));
    }
    UpdateOperation op;
    op.op = static_cast<UpdateOp>(code);
    HCS_ASSIGN_OR_RETURN(op.record, ResourceRecord::DecodeFrom(&dec));
    req.ops.push_back(std::move(op));
  }
  return req;
}

Bytes BindUpdateResponse::Encode() const {
  XdrEncoder enc;
  enc.PutUint32(static_cast<uint32_t>(rcode));
  return enc.Take();
}

Result<BindUpdateResponse> BindUpdateResponse::Decode(const Bytes& data) {
  XdrDecoder dec(data);
  BindUpdateResponse resp;
  HCS_ASSIGN_OR_RETURN(uint32_t rcode, dec.GetUint32());
  resp.rcode = static_cast<Rcode>(rcode);
  return resp;
}

Bytes BindInvalidateRequest::Encode() const {
  XdrEncoder enc;
  enc.PutString(name);
  return enc.Take();
}

Result<BindInvalidateRequest> BindInvalidateRequest::Decode(const Bytes& data) {
  XdrDecoder dec(data);
  BindInvalidateRequest req;
  HCS_ASSIGN_OR_RETURN(req.name, dec.GetString());
  return req;
}

Bytes BindAxfrRequest::Encode() const {
  XdrEncoder enc;
  enc.PutString(origin);
  return enc.Take();
}

Result<BindAxfrRequest> BindAxfrRequest::Decode(const Bytes& data) {
  XdrDecoder dec(data);
  BindAxfrRequest req;
  HCS_ASSIGN_OR_RETURN(req.origin, dec.GetString());
  return req;
}

Bytes BindAxfrResponse::Encode() const {
  XdrEncoder enc;
  enc.PutUint32(static_cast<uint32_t>(rcode));
  enc.PutUint32(serial);
  EncodeRecords(&enc, records);
  return enc.Take();
}

Result<BindAxfrResponse> BindAxfrResponse::Decode(const Bytes& data) {
  XdrDecoder dec(data);
  BindAxfrResponse resp;
  HCS_ASSIGN_OR_RETURN(uint32_t rcode, dec.GetUint32());
  resp.rcode = static_cast<Rcode>(rcode);
  HCS_ASSIGN_OR_RETURN(resp.serial, dec.GetUint32());
  HCS_ASSIGN_OR_RETURN(resp.records, DecodeRecords(&dec));
  return resp;
}

}  // namespace hcs
