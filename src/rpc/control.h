// Control protocols: the component of an RPC facility that frames calls and
// replies and tracks call state. Three real wire formats are implemented —
// Sun RPC (RFC 1057-style), Courier (XNS), and the Raw HRPC
// request/response protocol the HCS project used to talk to arbitrary
// message-passing programs ("make a request and wait for a response").
//
// An insular server speaks exactly one of these; the HRPC client selects the
// matching implementation at call time from the binding.

#ifndef HCS_SRC_RPC_CONTROL_H_
#define HCS_SRC_RPC_CONTROL_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"
#include "src/common/result.h"
#include "src/rpc/binding.h"
#include "src/rpc/context.h"

namespace hcs {

// A framed call as seen by the control protocol.
struct RpcCall {
  uint32_t xid = 0;
  uint32_t program = 0;
  uint32_t version = 0;
  uint32_t procedure = 0;
  // Per-request budget, carried in the RPC header. An empty context is
  // wire-invisible: every protocol then emits its seed encoding, byte for
  // byte, so context-free callers (the whole sim-world path) are unchanged.
  RequestContext context;
  Bytes args;
};

// A framed reply. Application-level failures travel as a status code plus
// message so a remote Status round-trips losslessly.
struct RpcReplyMsg {
  uint32_t xid = 0;
  StatusCode app_status = StatusCode::kOk;
  std::string error_message;
  Bytes results;
};

// A call whose argument bytes are a view: the zero-copy hand-off from
// transport to dispatch on the serving side (decoded from a frame), and
// from caller to wire on the client side (encoded from the caller's
// buffer). The view is valid only while that buffer lives (on the serve
// path: until the handler returns; DESIGN.md §13).
struct RpcCallView {
  uint32_t xid = 0;
  uint32_t program = 0;
  uint32_t version = 0;
  uint32_t procedure = 0;
  RequestContext context;
  // Call-scoped carrier: HandleFrame constructs this struct, dispatches, and
  // drops it before the reply is sent, all inside the frame's arena binding;
  // an encoder reads it within one EncodeCallTo.
  // hcs:owns-view(dies with the frame or the encode: built and consumed in one call)
  BytesView args;
};

// A decoded reply whose results are a view into the message buffer: the
// client decodes the header in place and copies the results once.
struct RpcReplyView {
  uint32_t xid = 0;
  StatusCode app_status = StatusCode::kOk;
  std::string error_message;
  // hcs:owns-view(dies with the datagram: decoded and consumed before the next receive)
  BytesView results;
};

class ControlProtocol {
 public:
  virtual ~ControlProtocol() = default;
  virtual ControlKind kind() const = 0;

  // Encode into `*out` (cleared first, sized once): the allocation-reusing
  // primitives the hot paths call.
  virtual void EncodeCallTo(const RpcCallView& call, Bytes* out) const = 0;
  virtual void EncodeReplyTo(const RpcReplyMsg& reply, Bytes* out) const = 0;
  // Decode without copying the argument or result bytes; the returned view
  // aliases [data, data + size).
  HCS_NODISCARD virtual Result<RpcCallView> DecodeCallView(const uint8_t* data,
                                                           size_t size) const = 0;
  HCS_NODISCARD virtual Result<RpcReplyView> DecodeReplyView(BytesView message) const = 0;

  // Owning convenience wrappers over the primitives above.
  Bytes EncodeCall(const RpcCall& call) const;
  Bytes EncodeReply(const RpcReplyMsg& reply) const {
    Bytes out;
    EncodeReplyTo(reply, &out);
    return out;
  }
  HCS_NODISCARD Result<RpcCall> DecodeCall(const Bytes& message) const;
  HCS_NODISCARD Result<RpcReplyMsg> DecodeReply(BytesView message) const;
};

// Returns the process-wide instance for a control protocol kind.
const ControlProtocol& GetControlProtocol(ControlKind kind);

// Courier transaction ids are 16-bit: a reply's xid matches its call's
// within the protocol's width.
inline uint32_t MaskXid(ControlKind control, uint32_t xid) {
  return control == ControlKind::kCourier ? (xid & 0xffff) : xid;
}

}  // namespace hcs

#endif  // HCS_SRC_RPC_CONTROL_H_
