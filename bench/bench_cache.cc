// Cache-subsystem harness (beyond the paper's tables): exercises the parts
// of the resolution cache the paper's prototype did not have —
//   A. warm-path probe counts, composite binding cache off vs on,
//   B. the sharded LRU's byte budget and eviction behaviour,
//   C. negative caching of NotFound meta records.
// Miss coalescing under a real multi-threaded stampede is checked by
// UdpTransportTest.MetaStoreCoalescesConcurrentMisses. Exits non-zero if
// any invariant fails.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/strings.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

struct Target {
  const char* context;
  const char* qc;
  const char* individual;
};

const Target kTargets[] = {
    {kContextBindBinding, kQueryClassHrpcBinding, kSunServerHost},
    {kContextBind, kQueryClassHostAddress, kSunServerHost},
    {kContextBindMail, kQueryClassMailboxInfo, "cs.washington.edu"},
    {kContextCh, kQueryClassHostAddress, kXeroxServerHost},
    {kContextChBinding, kQueryClassHrpcBinding, kXeroxServerHost},
    {kContextChMail, kQueryClassMailboxInfo, "Purcell:CSL:Xerox"},
};

// --- A: warm-path probes per FindNSM, composite off vs on -------------------

void RunWarmPath() {
  PrintHeader("A: warm FindNSM probes/op — record cache vs composite fast path");
  constexpr int kRounds = 20;

  for (bool composite : {false, true}) {
    TestbedOptions options;
    options.hns_composite_cache = composite;
    Testbed bed(options);
    ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
    Hns* hns = client.session->local_hns();

    // Warm every target once, then measure steady state.
    for (const Target& target : kTargets) {
      HnsName name;
      name.context = target.context;
      name.individual = target.individual;
      if (!hns->FindNsm(name, target.qc).ok()) std::abort();
    }
    hns->cache().ResetStats();
    hns->composite_cache().ResetStats();

    int ops = 0;
    double ms = MeasureMs(&bed.world(), [&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const Target& target : kTargets) {
          HnsName name;
          name.context = target.context;
          name.individual = target.individual;
          if (!hns->FindNsm(name, target.qc).ok()) std::abort();
          ++ops;
        }
      }
    });

    CacheStats record = hns->cache().stats();
    CacheStats comp = hns->composite_cache().stats();
    double probes_per_op =
        static_cast<double>(record.Probes() + comp.Probes()) / ops;
    std::printf("  composite %-3s  %6.2f ms/op   %4.2f probes/op\n",
                composite ? "on" : "off", ms / ops, probes_per_op);
    PrintCacheStats(composite ? "  composite" : "  record", composite ? comp : record);
    if (composite && probes_per_op != 1.0) {
      std::printf("FATAL: composite warm path should be exactly 1 probe/op\n");
      std::abort();
    }
  }
}

// --- B: sharded LRU byte budget ---------------------------------------------

void RunByteBudget() {
  PrintHeader("B: sharded LRU under a byte budget (no simulated world)");
  HnsCacheOptions options;
  options.shards = 4;
  options.max_bytes = 16 * 1024;
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled, options);

  constexpr int kEntries = 500;
  for (int i = 0; i < kEntries; ++i) {
    WireValue value =
        RecordBuilder().Str("blob", std::string(200, static_cast<char>('a' + i % 26))).Build();
    cache.Put(StrFormat("record-%04d.hns", i), value, 300);
  }

  CacheStats stats = cache.stats();
  std::printf("  inserted %d x ~200 B entries into a %zu B budget\n", kEntries,
              options.max_bytes);
  std::printf("  resident entries=%zu bytes=%zu evictions=%llu\n", cache.size(),
              cache.ApproximateBytes(), static_cast<unsigned long long>(stats.evictions));
  if (cache.ApproximateBytes() > options.max_bytes) {
    std::printf("FATAL: cache exceeded its byte budget\n");
    std::abort();
  }
  if (stats.evictions == 0) {
    std::printf("FATAL: expected LRU evictions under this budget\n");
    std::abort();
  }
  if (Status invariants = cache.CheckInvariants(); !invariants.ok()) {
    std::printf("FATAL: cache invariants violated after eviction storm: %s\n",
                invariants.ToString().c_str());
    std::abort();
  }
}

// --- C: negative caching ----------------------------------------------------

void RunNegativeCaching() {
  PrintHeader("C: negative caching of NotFound meta records");
  Testbed bed;
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  Hns* hns = client.session->local_hns();

  HnsName name;
  name.context = "NoSuchContext";
  name.individual = "whatever";

  uint64_t before = hns->meta().remote_lookups();
  double first = MeasureMs(&bed.world(), [&] {
    if (hns->FindNsm(name, kQueryClassHostAddress).ok()) std::abort();
  });
  uint64_t after_first = hns->meta().remote_lookups();
  double second = MeasureMs(&bed.world(), [&] {
    if (hns->FindNsm(name, kQueryClassHostAddress).ok()) std::abort();
  });
  uint64_t after_second = hns->meta().remote_lookups();

  CacheStats stats = hns->cache().stats();
  std::printf("  first NotFound: %.1f ms, %llu upstream lookups\n", first,
              static_cast<unsigned long long>(after_first - before));
  std::printf("  repeat within negative TTL: %.1f ms, %llu upstream lookups, "
              "negative hits=%llu\n",
              second, static_cast<unsigned long long>(after_second - after_first),
              static_cast<unsigned long long>(stats.negative_hits));
  if (after_second != after_first || stats.negative_hits == 0) {
    std::printf("FATAL: repeat NotFound should be absorbed by the negative cache\n");
    std::abort();
  }
}

void Run() {
  RunWarmPath();
  RunByteBudget();
  RunNegativeCaching();
  std::printf("\nall cache invariants held\n");
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
