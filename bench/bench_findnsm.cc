// In-text experiment E1 — FindNSM cost and the basic overhead of HNS naming:
//   * initial (uncached) FindNSM: 460 ms,
//   * with the cache installed:    88 ms,
//   * remote call to an NSM:    22-38 ms depending on the RPC system,
//   * total basic HNS overhead: 88-126 ms.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/hns/session.h"
#include "src/hns/wire_protocol.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

void RunComposite(double record_cache_warm_ms);

void Run() {
  Testbed bed;

  PrintHeader("E1: FindNSM cost and basic HNS naming overhead (sim msec vs paper)");

  ClientSetup client = bed.MakeClient(Arrangement::kRemoteNsms);
  Hns* hns = client.session->local_hns();

  HnsName name;
  name.context = kContextBindBinding;
  name.individual = kSunServerHost;

  // Cold FindNSM: the six remote data mappings.
  client.FlushAll();
  double cold = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  // Warm FindNSM: every mapping served from the (marshalled) cache.
  double warm = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  PrintComparison("FindNSM, initial implementation (no cache)", cold, 460);
  PrintComparison("FindNSM, with cache installed", warm, 88);

  // The remote NSM call itself, over the raw HRPC protocol and with the
  // NSM's cache warm (the paper quotes 22-38 ms depending on the RPC
  // system; our NSMs speak the raw protocol, Sun RPC and Courier frames
  // are measured for reference).
  Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
  if (!handle.ok()) {
    std::abort();
  }
  // Warm the remote NSM.
  WireValue args = RecordBuilder().Str("service", kDesiredService).Build();
  (void)client.session->Query(name, kQueryClassHrpcBinding, args);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)

  double nsm_call = MeasureMs(&bed.world(), [&] {
    Result<WireValue> result = client.session->Query(name, kQueryClassHrpcBinding, args);
    if (!result.ok()) std::abort();
  });
  // Query() on a warm path = cached FindNSM + the remote NSM exchange; peel
  // the FindNSM part off to isolate the call.
  double remote_call_only = nsm_call - warm;
  PrintComparison("remote call to the NSM (raw HRPC)", remote_call_only, 30);

  double total = warm + remote_call_only;
  PrintComparison("basic overhead of HNS naming (total)", total, 107);
  PrintRule();
  std::printf("  paper: overhead between 88 ms (call avoided by caching) and 126 ms;\n");
  std::printf("  measured overhead range: %.1f - %.1f ms\n", warm, total);

  RunComposite(warm);
}

// The composite fast path: the same E1 warm FindNSM, with the level-2
// binding cache enabled. A warm lookup must be exactly one composite probe
// and zero record-cache probes, and measurably under the 88 ms cached
// baseline of the paper.
void RunComposite(double record_cache_warm_ms) {
  TestbedOptions options;
  options.hns_composite_cache = true;
  Testbed bed(options);

  PrintHeader("E1+: FindNSM with the composite binding cache (beyond the paper)");

  ClientSetup client = bed.MakeClient(Arrangement::kRemoteNsms);
  Hns* hns = client.session->local_hns();

  HnsName name;
  name.context = kContextBindBinding;
  name.individual = kSunServerHost;

  client.FlushAll();
  double cold = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  hns->cache().ResetStats();
  hns->composite_cache().ResetStats();
  double warm = MeasureMs(&bed.world(), [&] {
    Result<NsmHandle> handle = hns->FindNsm(name, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });

  CacheStats record_stats = hns->cache().stats();
  CacheStats composite_stats = hns->composite_cache().stats();
  // Warm path invariant: one composite probe, no record-cache probes.
  if (composite_stats.Probes() != 1 || composite_stats.hits != 1 ||
      record_stats.Probes() != 0) {
    std::printf("FATAL: warm composite FindNSM probed composite=%llu record=%llu "
                "(want 1 and 0)\n",
                static_cast<unsigned long long>(composite_stats.Probes()),
                static_cast<unsigned long long>(record_stats.Probes()));
    std::abort();
  }
  if (warm >= record_cache_warm_ms) {
    std::printf("FATAL: composite warm FindNSM (%.1f ms) not below record-cache warm "
                "path (%.1f ms)\n", warm, record_cache_warm_ms);
    std::abort();
  }

  PrintValue("FindNSM, cold (composite enabled)", cold);
  PrintComparison("FindNSM, warm (composite hit)", warm, 88);
  PrintValue("record-cache warm path, for reference", record_cache_warm_ms);
  PrintRule();
  PrintCacheStats("composite cache", composite_stats);
  PrintCacheStats("record cache", record_stats);
  std::printf("  warm FindNSM = 1 composite probe + 1 handle copy "
              "(vs 6 record probes): %.1f ms -> %.1f ms\n",
              record_cache_warm_ms, warm);
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
