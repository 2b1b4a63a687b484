// Table 3.2 — The Effect of Marshalling Costs on Cache Access Speed (msec),
// plus the in-text standard-BIND marshalling comparison (0.65 / 2.6 ms for
// 1 / 6 resource records).
//
// Workload: BIND lookups through the HNS's HRPC interface (stub-generated
// marshalling) of names carrying 1 or 6 resource records, against a cache
// that stores entries (a) not at all, (b) marshalled — demarshal per hit,
// (c) demarshalled. The paper's lesson: keeping demarshalled data made
// cache hits ~13-20x faster.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/bindns/resolver.h"
#include "src/hns/cache.h"
#include "src/testbed/testbed.h"
#include "src/wire/marshal.h"

namespace hcs {
namespace {

// Names with N TXT records of ~128 bytes each (one marshal unit per record,
// like a typical BIND resource record).
std::string RecordName(int n) {
  return StrFormat("table32-%drr.cs.washington.edu", n);
}

void PopulateRecords(Testbed* bed, int n) {
  Zone* zone = bed->public_bind()->FindZone("cs.washington.edu");
  std::string payload(96, 'x');
  for (int i = 0; i < n; ++i) {
    ResourceRecord rr = ResourceRecord::MakeTxt(RecordName(n), payload + StrFormat("%02d", i));
    (void)zone->Add(rr);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
  }
}

// One cache-aware lookup through the stub-marshalled BIND interface,
// mirroring the prototype's cache structure.
struct CachedStubResolver {
  World* world;
  BindResolver resolver;
  HnsCache cache;

  CachedStubResolver(World* w, RpcClient* client, CacheMode mode)
      : world(w),
        resolver(client,
                 [] {
                   BindResolverOptions options;
                   options.server_host = kPublicBindHost;
                   options.engine = MarshalEngine::kStubGenerated;
                   return options;
                 }()),
        cache(w, mode) {}

  Result<WireValue> Lookup(const std::string& name) {
    if (cache.mode() != CacheMode::kNone) {
      Result<WireValue> hit = cache.Get(name);
      if (hit.ok()) {
        return hit;
      }
    }
    HCS_ASSIGN_OR_RETURN(std::vector<ResourceRecord> records,
                         resolver.Query(name, RrType::kTxt));
    std::vector<WireValue> items;
    items.reserve(records.size());
    for (const ResourceRecord& rr : records) {
      items.push_back(WireValue::OfBlob(rr.rdata));
    }
    WireValue value = WireValue::OfList(std::move(items));
    if (cache.mode() != CacheMode::kNone) {
      cache.Put(name, value, 3600);
    }
    return value;
  }
};

void Run() {
  Testbed bed;
  PopulateRecords(&bed, 1);
  PopulateRecords(&bed, 6);

  PrintHeader("Table 3.2: marshalling costs vs cache access speed (sim msec vs paper)");
  std::printf("  %-10s %18s %22s %24s\n", "RRs/name", "cache miss",
              "marshalled cache hit", "demarshalled cache hit");
  PrintRule();

  struct PaperRow {
    int records;
    double miss;
    double marshalled_hit;
    double demarshalled_hit;
  };
  const PaperRow paper_rows[] = {{1, 20.23, 11.11, 0.83}, {6, 32.34, 26.17, 1.22}};

  RpcClient client(&bed.world(), kClientHost, &bed.transport());
  for (const PaperRow& row : paper_rows) {
    CachedStubResolver marshalled(&bed.world(), &client, CacheMode::kMarshalled);
    CachedStubResolver demarshalled(&bed.world(), &client, CacheMode::kDemarshalled);

    double miss = MeasureMs(&bed.world(), [&] {
      CachedStubResolver cold(&bed.world(), &client, CacheMode::kNone);
      Result<WireValue> r = cold.Lookup(RecordName(row.records));
      if (!r.ok()) std::abort();
    });

    (void)marshalled.Lookup(RecordName(row.records));  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    double marshalled_hit = MeasureMs(&bed.world(), [&] {
      Result<WireValue> r = marshalled.Lookup(RecordName(row.records));
      if (!r.ok()) std::abort();
    });

    (void)demarshalled.Lookup(RecordName(row.records));  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    double demarshalled_hit = MeasureMs(&bed.world(), [&] {
      Result<WireValue> r = demarshalled.Lookup(RecordName(row.records));
      if (!r.ok()) std::abort();
    });

    std::printf("  %-10d %8.2f (%6.2f) %10.2f (%6.2f) %12.2f (%6.2f)\n", row.records, miss,
                row.miss, marshalled_hit, row.marshalled_hit, demarshalled_hit,
                row.demarshalled_hit);
  }
  PrintRule();

  // The in-text comparison: the standard BIND library's hand-coded
  // marshalling routines for the same record counts.
  std::printf("\n  Standard (hand-coded) BIND marshalling, for comparison:\n");
  PrintComparison("1 resource record", kCosts.HandMarshalMs(1), 0.65);
  PrintComparison("6 resource records", kCosts.HandMarshalMs(6), 2.6);
  std::printf("\n  Shape checks: miss > marshalled hit >> demarshalled hit;\n"
              "  stub-generated marshalling ~an order of magnitude over hand-coded.\n");
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
