// A1 ablation — §3's design choice: FindNSM keeps its mappings *separate*
//   (context -> NS, (NS, query class) -> NSM, NSM -> binding)
// instead of collapsing (context, query class) directly to an NSM binding.
// The paper: collapsing would be faster uncached but "requires more
// redundant information" and caching recovers the cost anyway.
//
// This harness builds both layouts in the meta store and measures:
//   * cold and warm lookup latency for each,
//   * meta records stored (redundancy),
//   * dynamic updates needed to relocate one NSM (evolution cost).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/hns/session.h"
#include "src/testbed/testbed.h"
#include "src/wire/marshal.h"

namespace hcs {
namespace {

struct Pair {
  const char* context;
  const char* qc;
};

const Pair kPairs[] = {
    {kContextBindBinding, kQueryClassHrpcBinding},
    {kContextBind, kQueryClassHostAddress},
    {kContextBindMail, kQueryClassMailboxInfo},
    {kContextChBinding, kQueryClassHrpcBinding},
    {kContextCh, kQueryClassHostAddress},
    {kContextChMail, kQueryClassMailboxInfo},
};

std::string CollapsedRecordName(const std::string& context, const std::string& qc) {
  return "flat." + AsciiToLower(qc) + "." + AsciiToLower(context) + "." +
         MetaStore::kMetaZoneOrigin;
}

void Run() {
  Testbed bed;
  PrintHeader("A1 ablation: separate FindNSM mappings vs collapsed (context,qc)->binding");

  ClientSetup client = bed.MakeClient(Arrangement::kRemoteNsms);
  Hns* hns = client.session->local_hns();

  // --- Build the collapsed layout: one complete record per (context, qc). --
  // Every record duplicates the NSM's full binding info, address included.
  size_t collapsed_records = 0;
  size_t collapsed_bytes = 0;
  {
    Zone* zone = bed.meta_bind()->FindZone(MetaStore::kMetaZoneOrigin);
    for (const Pair& pair : kPairs) {
      HnsName probe;
      probe.context = pair.context;
      probe.individual = kSunServerHost;
      Result<NsmHandle> handle = hns->FindNsm(probe, pair.qc);
      if (!handle.ok()) std::abort();
      WireValue flat = handle->binding.ToWire();
      for (ResourceRecord& rr :
           UnspecRecordsFromValue(CollapsedRecordName(pair.context, pair.qc), flat)) {
        collapsed_bytes += rr.rdata.size();
        ++collapsed_records;
        (void)zone->Add(std::move(rr));  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
      }
    }
  }

  // --- Lookup latency ---------------------------------------------------------
  // Collapsed: one cache-aware meta read resolves everything, through the
  // same stub-marshalled interface the real mappings use.
  HnsCache flat_cache(&bed.world(), CacheMode::kMarshalled);
  auto read_flat = [&](const Pair& pair) -> double {
    return MeasureMs(&bed.world(), [&] {
      Result<WireValue> v = flat_cache.Get(CollapsedRecordName(pair.context, pair.qc));
      if (!v.ok()) {
        // Miss: one remote read through the same stub-marshalled interface.
        BindResolverOptions options;
        options.server_host = kMetaSecondaryHost;
        options.engine = MarshalEngine::kStubGenerated;
        BindResolver resolver(&hns->rpc_client(), options);
        Result<std::vector<ResourceRecord>> records =
            resolver.Query(CollapsedRecordName(pair.context, pair.qc), RrType::kUnspec);
        if (!records.ok()) std::abort();
        Result<WireValue> value = ValueFromUnspecRecords(std::move(records).value());
        if (!value.ok()) std::abort();
        flat_cache.Put(CollapsedRecordName(pair.context, pair.qc), *value, 3600);
      }
    });
  };

  client.FlushAll();
  flat_cache.Clear();
  double separate_cold = MeasureMs(&bed.world(), [&] {
    HnsName probe;
    probe.context = kContextBindBinding;
    probe.individual = kSunServerHost;
    Result<NsmHandle> handle = hns->FindNsm(probe, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });
  double separate_warm = MeasureMs(&bed.world(), [&] {
    HnsName probe;
    probe.context = kContextBindBinding;
    probe.individual = kSunServerHost;
    Result<NsmHandle> handle = hns->FindNsm(probe, kQueryClassHrpcBinding);
    if (!handle.ok()) std::abort();
  });
  double collapsed_cold = read_flat(kPairs[0]);
  double collapsed_warm = read_flat(kPairs[0]);

  PrintValue("separate mappings, cold FindNSM", separate_cold);
  PrintValue("collapsed mapping, cold lookup", collapsed_cold);
  PrintValue("separate mappings, warm FindNSM", separate_warm);
  PrintValue("collapsed mapping, warm lookup", collapsed_warm);

  // --- Redundancy ---------------------------------------------------------------
  // Separate layout: one ctx record per context, one map record per
  // (NS, qc), one loc record per NSM.
  Zone* zone = bed.meta_bind()->FindZone(MetaStore::kMetaZoneOrigin);
  size_t separate_records = 0;
  size_t separate_bytes = 0;
  for (const ResourceRecord& rr : zone->All()) {
    if (StartsWith(rr.name, "flat.")) {
      continue;
    }
    ++separate_records;
    separate_bytes += rr.rdata.size();
  }
  std::printf("\n  meta store size: separate %zu records / %zu B, collapsed %zu records / %zu B\n",
              separate_records, separate_bytes, collapsed_records, collapsed_bytes);

  // --- Evolution cost: relocate one NSM ------------------------------------------
  // Separate: rewrite one loc record. Collapsed: rewrite every (context,qc)
  // record that references the NSM (here: every context bound to its NS).
  int separate_updates = 1;
  int collapsed_updates = 0;
  for (const Pair& pair : kPairs) {
    if (std::string(pair.qc) == kQueryClassHrpcBinding) {
      ++collapsed_updates;  // each binding context duplicates the NSM info
    }
  }
  std::printf("  relocating one NSM: separate layout %d update, collapsed layout %d updates\n",
              separate_updates, collapsed_updates);

  PrintRule();
  std::printf("  Shape: collapsed wins only on the cold path (%.0f%% of separate);\n"
              "  with warm caches both cost about the same, while the collapsed\n"
              "  layout stores duplicated binding data and multiplies update traffic —\n"
              "  the paper's reason to keep the mappings separate.\n",
              100.0 * collapsed_cold / separate_cold);
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
