// CostModel: the calibrated per-operation costs of the simulated 1987
// testbed (MicroVAX-IIs on Ethernet, Sun RPC / Courier RPC, BIND 4.x, Xerox
// Clearinghouse).
//
// This is the single place the calibrated costs come from: one compile-time
// constant, kCosts, charged through ChargeMs (src/sim/world.h). Every
// constant is expressed in milliseconds and documented with the paper
// evidence it is calibrated against. EXPERIMENTS.md records how the composed
// paths compare with the paper's reported figures.

#ifndef HCS_SRC_SIM_COST_MODEL_H_
#define HCS_SRC_SIM_COST_MODEL_H_

#include <cstddef>

namespace hcs {

struct CostModel {
  // --- Network ---------------------------------------------------------
  // Raw round trip of a small datagram between two hosts on the Ethernet
  // (wire + kernel + protocol stack, excluding RPC-layer work).
  double net_rtt_cross_host_ms = 8.0;
  // Round trip between two processes on the same host (no wire). The paper
  // observes that colocating client and servers on one host saves ~20 ms on
  // a full RPC exchange.
  double net_rtt_same_host_ms = 2.0;
  // Additional transfer cost per kilobyte in each direction (3 Mbit/s era
  // Ethernet plus per-packet kernel work).
  double net_per_kbyte_ms = 3.0;

  // --- RPC control protocols -------------------------------------------
  // Per-call control-protocol processing (header construction/validation,
  // credential handling, retransmission timers) on top of the raw network
  // cost. Calibrated so a small Sun RPC call lands near the paper's 22 ms
  // and a Courier call near its 38 ms upper bound.
  double sunrpc_control_ms = 10.0;
  double courier_control_ms = 24.0;
  // The raw request/response datagram protocol used by the HNS's HRPC
  // interface to BIND ("Raw HRPC protocol suite").
  double raw_control_ms = 6.0;

  // --- BIND (both the public instance and the HNS meta-instance) --------
  // In-memory lookup, no authentication (paper: BIND keeps all data in
  // primary memory and does no authentication; a name-to-address lookup
  // totals 27 ms end to end).
  double bind_lookup_cpu_ms = 4.0;
  // Applying a dynamic update (the HNS-modified BIND supports these).
  double bind_update_cpu_ms = 6.0;
  // Zone transfer: fixed cost plus per-record cost. Calibrated so the ~2 KB
  // meta zone preload lands near the measured 390 ms.
  double bind_axfr_base_ms = 60.0;
  double bind_axfr_per_record_ms = 4.5;

  // --- Clearinghouse -----------------------------------------------------
  // Every Clearinghouse access is authenticated and virtually all data is
  // retrieved from disk (paper footnote 5; lookup totals 156 ms).
  double ch_auth_ms = 70.0;
  double ch_disk_ms = 55.0;
  double ch_lookup_cpu_ms = 8.0;

  // --- Marshalling --------------------------------------------------------
  // Stub-generated marshalling (the HRPC interface to BIND, built with the
  // interface description language + stub compiler). Expensive: procedure
  // call overhead, indirect calls, dynamic allocation, redundant layers.
  // Calibrated against Table 3.2's marshalled-cache-hit column: demarshal of
  // a 1-RR reply ~10.4 ms, a 6-RR reply ~25.4 ms.
  double stub_marshal_per_call_ms = 3.0;
  double stub_marshal_per_record_ms = 1.2;
  double stub_demarshal_per_call_ms = 7.4;
  double stub_demarshal_per_record_ms = 3.0;
  // Hand-coded marshalling (the standard BIND library routines). The paper
  // measures 0.65 ms and 2.6 ms for 1 and 6 resource records.
  double hand_marshal_per_call_ms = 0.26;
  double hand_marshal_per_record_ms = 0.39;

  // --- HNS cache -----------------------------------------------------------
  // Probing the cache (hash + TTL check).
  double cache_probe_ms = 0.75;
  // Copying an already-demarshalled record out of the cache.
  double cache_copy_per_record_ms = 0.078;
  // Inserting an entry after a miss.
  double cache_insert_ms = 0.5;

  // --- Binding protocols (per system type) --------------------------------
  // Sun: one extra round trip to the portmapper on the target host.
  double sun_portmapper_cpu_ms = 3.0;
  // Courier: consult the Clearinghouse-registered address (already resolved)
  // plus a courier listener handshake on the target host.
  double courier_bind_handshake_cpu_ms = 6.0;

  // --- Baselines -----------------------------------------------------------
  // Parsing the replicated local binding file (the interim pre-HNS scheme;
  // whole binding measured at 200 ms). Dominated by opening and scanning a
  // flat file on a 1987 local disk.
  double local_file_open_scan_ms = 175.0;

  // ---- Derived helpers ----------------------------------------------------

  // CPU cost of stub-generated marshalling of `records` records.
  constexpr double StubMarshalMs(int records) const {
    return stub_marshal_per_call_ms + stub_marshal_per_record_ms * records;
  }
  // CPU cost of stub-generated demarshalling of `records` records.
  constexpr double StubDemarshalMs(int records) const {
    return stub_demarshal_per_call_ms + stub_demarshal_per_record_ms * records;
  }
  // CPU cost of hand-coded (de)marshalling of `records` records; the paper
  // reports one number per direction for the standard BIND routines.
  constexpr double HandMarshalMs(int records) const {
    return hand_marshal_per_call_ms + hand_marshal_per_record_ms * records;
  }

  // Network round trip between the named pair, for a payload of
  // `request_bytes` + `response_bytes`.
  constexpr double NetRttMs(bool same_host, size_t request_bytes, size_t response_bytes) const {
    double base = same_host ? net_rtt_same_host_ms : net_rtt_cross_host_ms;
    return base + net_per_kbyte_ms *
                      (static_cast<double>(request_bytes + response_bytes) / 1024.0);
  }
};

// The cost model every charge reads.
inline constexpr CostModel kCosts{};

}  // namespace hcs

#endif  // HCS_SRC_SIM_COST_MODEL_H_
