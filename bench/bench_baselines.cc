// In-text experiment E2 — the underlying name services and the two
// reregistration baselines the HNS is compared with:
//   * BIND name-to-address lookup:            27 ms,
//   * Clearinghouse name-to-address lookup:  156 ms,
//   * interim replicated-local-file binding: 200 ms,
//   * Clearinghouse-only reregistered binding:166 ms,
//   * HNS binding, for reference:        104-547 ms (Table 3.1).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/bindns/resolver.h"
#include "src/ch/client.h"
#include "src/hns/import.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

void Run() {
  Testbed bed;

  PrintHeader("E2: underlying name services and reregistration baselines (sim msec)");

  RpcClient client(&bed.world(), kClientHost, &bed.transport());

  // --- Raw BIND lookup (standard resolver, hand-coded marshalling) --------
  {
    BindResolverOptions options;
    options.server_host = kPublicBindHost;
    BindResolver resolver(&client, options);
    double ms = MeasureMs(&bed.world(), [&] {
      Result<uint32_t> address = resolver.LookupAddress(kSunServerHost);
      if (!address.ok()) std::abort();
    });
    PrintComparison("BIND name-to-address lookup", ms, 27);
  }

  // --- Raw Clearinghouse lookup (authenticated, from disk) ----------------
  {
    ChClient stub(&client, kChServerHost, TestbedCredentials());
    double ms = MeasureMs(&bed.world(), [&] {
      Result<ChRetrieveItemResponse> response = stub.RetrieveItem(
          ChName::Parse(kXeroxServerHost).value(), kChPropAddress);
      if (!response.ok()) std::abort();
    });
    PrintComparison("Clearinghouse name-to-address lookup", ms, 156);
  }

  // --- Interim scheme: reregistered replicated local files ----------------
  {
    auto binder = bed.MakeLocalFileBinder();
    double ms = MeasureMs(&bed.world(), [&] {
      Result<HrpcBinding> binding = binder->Bind(kDesiredService, kSunServerHost);
      if (!binding.ok()) std::abort();
    });
    PrintComparison("binding via replicated local files", ms, 200);
  }

  // --- Reregistered Clearinghouse-only global service ---------------------
  {
    auto binder = bed.MakeChOnlyBinder();
    double ms = MeasureMs(&bed.world(), [&] {
      Result<HrpcBinding> binding = binder->Bind(kDesiredService, kSunServerHost);
      if (!binding.ok()) std::abort();
    });
    PrintComparison("binding via Clearinghouse-only registry", ms, 166);
  }

  // --- HNS binding range for reference (row 1 warm .. row 5 cold) ---------
  {
    ClientSetup warm_client = bed.MakeClient(Arrangement::kAllLinked);
    Importer importer(warm_client.session.get());
    std::string host_name = std::string(kContextBindBinding) + "!" + kSunServerHost;
    (void)importer.Import(kDesiredService, host_name);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    double best = MeasureMs(&bed.world(), [&] {
      (void)importer.Import(kDesiredService, host_name);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    });

    ClientSetup cold_client = bed.MakeClient(Arrangement::kAllRemote);
    cold_client.FlushAll();
    Importer cold_importer(cold_client.session.get());
    double worst = MeasureMs(&bed.world(), [&] {
      (void)cold_importer.Import(kDesiredService, host_name);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    });
    std::printf("  %-44s %5.1f - %5.1f ms   (paper: 104 - 547 ms)\n",
                "HNS binding (best warm .. worst cold)", best, worst);
  }

  PrintRule();
  std::printf("  Shape checks: BIND << Clearinghouse; tuned (warm) HNS binding is\n"
              "  competitive with both reregistration baselines, while avoiding\n"
              "  reregistration entirely.\n");
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
