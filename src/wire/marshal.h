// Marshalling engines. The bytes produced are identical; what differs is
// the simulated CPU cost, reproducing the paper's Table 3.2 finding that the
// stub-compiler-generated marshalling for the HRPC interface to BIND was an
// order of magnitude more expensive than the hand-coded standard BIND
// library routines (procedure-call overhead, indirect calls, dynamic
// allocation, redundant marshalling layers).

#ifndef HCS_SRC_WIRE_MARSHAL_H_
#define HCS_SRC_WIRE_MARSHAL_H_

#include "src/sim/world.h"
#include "src/wire/value.h"

namespace hcs {

// Marshalling costs scale with the number of resource-record-sized items in
// a message (the paper's Table 3.2 is parameterized by "resource records
// per name"). For arbitrary payloads we convert encoded size to
// record-equivalents: one unit per 128 bytes, minimum one.
inline int MarshalUnitsForBytes(size_t bytes) {
  return bytes == 0 ? 1 : static_cast<int>((bytes + 127) / 128);
}

// Record-equivalents of a self-describing value: the units of its
// encoding, sized without encoding it.
inline int MarshalUnits(const WireValue& value) {
  return MarshalUnitsForBytes(value.EncodedSize());
}

enum class MarshalEngine {
  // Generated by the HRPC stub compiler from an interface description.
  kStubGenerated,
  // Hand-written, format-specific routines (the standard BIND library).
  kHandCoded,
};

// Charges the simulated CPU cost of marshalling a message containing
// `records` resource-record-sized items (nothing without a World).
inline void ChargeMarshal(World* world, MarshalEngine engine, int records) {
  ChargeMs(world, engine == MarshalEngine::kStubGenerated ? kCosts.StubMarshalMs(records)
                                                          : kCosts.HandMarshalMs(records));
}

// Charges the simulated CPU cost of demarshalling a message containing
// `records` resource-record-sized items (nothing without a World).
inline void ChargeDemarshal(World* world, MarshalEngine engine, int records) {
  ChargeMs(world, engine == MarshalEngine::kStubGenerated ? kCosts.StubDemarshalMs(records)
                                                          : kCosts.HandMarshalMs(records));
}

}  // namespace hcs

#endif  // HCS_SRC_WIRE_MARSHAL_H_
