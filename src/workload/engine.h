// The deterministic workload engine: a population of virtual clients
// scheduled as actors on the sim World's EventQueue, driving a real
// HnsSession with Zipf-skewed (context, query class) popularity, Poisson
// arrival and churn, register/unregister storms, flash crowds, and cache
// stampedes — the "does this architecture survive millions of users?"
// harness (DESIGN.md §16; NANDA's shifting-popularity and ANDNA's
// churn-heavy shapes from PAPERS.md).
//
// Determinism discipline (DESIGN.md §16): every random draw comes from a
// SplitMix64 stream that is a pure function of (seed, actor id), the
// simulation is single-threaded, and same-time events run FIFO — so two
// runs at one seed produce byte-identical counters, and (seed, options)
// replays any run.

#ifndef HCS_SRC_WORKLOAD_ENGINE_H_
#define HCS_SRC_WORKLOAD_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rand.h"
#include "src/common/result.h"
#include "src/hns/cache.h"
#include "src/hns/meta_store.h"
#include "src/hns/session.h"
#include "src/sim/world.h"
#include "src/workload/distributions.h"

namespace hcs {

// The context the churn storm toggles registrations under.
inline constexpr char kStormContext[] = "wl-storm";
inline constexpr char kStormNameService[] = "wl-storm-ns";

struct WorkloadOptions {
  uint64_t seed = 0x5eedf00d;

  // Population shape.
  uint32_t population = 10'000;  // virtual clients that arrive over the run
  uint32_t contexts = 64;        // synthetic contexts registered at Setup
  double zipf_s = 1.0;           // skew over (context, query class) pairs

  // Arrival and per-client behaviour (Poisson arrivals; geometric number
  // of queries per client with exponential think times — classic M/G
  // session churn).
  double arrivals_per_second = 2000;
  double mean_queries_per_client = 3.0;
  double mean_think_ms = 250;

  // Name services (already registered with the HNS) the synthetic contexts
  // are spread over round-robin. Required: Setup fails when empty.
  std::vector<std::string> name_services;

  // Churn storm (storm_toggles == 0: off): Poisson-timed register/
  // unregister toggles of `storm_nsm` under kStormNameService, with
  // kStormContext mapped into the pair space so client traffic sees the
  // flapping registration (NotFound while unregistered, negative-cache
  // purge on re-register).
  double storm_rate_per_second = 50;
  uint32_t storm_toggles = 0;
  NsmInfo storm_nsm;

  // Flash crowd (flash_burst == 0: off): at `flash_crowd_at_us` the
  // coldest pair is promoted to rank 0 (popularity shift) and flash_burst
  // one-shot queries for it fire at that instant.
  SimTime flash_crowd_at_us = 0;
  uint32_t flash_burst = 0;

  // Cache stampede (stampede_burst == 0: off): at `stampede_at_us` every
  // observed HNS cache is flushed (scripted mass expiry) and
  // stampede_burst same-instant queries hit the hottest pair.
  SimTime stampede_at_us = 0;
  uint32_t stampede_burst = 0;
};

// The byte-identical-across-same-seed-runs state: pure counters plus a
// log2 latency histogram. No floating point beyond what the histogram
// buckets discretize, so Fingerprint() equality is exact.
struct WorkloadCounters {
  uint64_t arrivals = 0;
  uint64_t departures = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_not_found = 0;
  uint64_t queries_failed = 0;
  uint64_t registers_ok = 0;
  uint64_t registers_failed = 0;
  uint64_t unregisters_ok = 0;
  uint64_t unregisters_failed = 0;
  uint64_t cache_flushes = 0;
  uint64_t latency_samples = 0;
  uint64_t latency_total_us = 0;
  uint64_t latency_max_us = 0;
  // Bucket k counts latencies with bit_width(us) == k (0 = 0 us).
  std::array<uint64_t, 40> latency_log2_histogram{};

  // FNV-1a over every field in declaration order.
  uint64_t Fingerprint() const;

  friend bool operator==(const WorkloadCounters& a, const WorkloadCounters& b) {
    return a.Fingerprint() == b.Fingerprint();
  }
};

struct WorkloadReport {
  WorkloadCounters counters;
  // Cache behaviour of the observed HNS instance over the run (stats are
  // reset at the end of Setup, so these cover the workload only).
  CacheStats record_cache;
  CacheStats composite_cache;
  uint64_t meta_remote_lookups = 0;  // meta-store load (BIND exchanges)
  uint64_t network_messages = 0;
  // The measured window: the virtual time Run started at (after Setup) and
  // the time the event queue drained.
  SimTime started_at_us = 0;
  SimTime ended_at_us = 0;
  // Exact percentiles over per-op sim-clock latencies.
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;

  // Queries per second of the measured window, so set-up's virtual time
  // is not part of the throughput.
  double QueriesPerSimSecond() const {
    const SimTime window_us = ended_at_us - started_at_us;
    if (window_us <= 0) {
      return 0;
    }
    uint64_t total = counters.queries_ok + counters.queries_not_found + counters.queries_failed;
    return static_cast<double>(total) / (static_cast<double>(window_us) / 1e6);
  }
};

// Drives `session` (and, for registrations, `admin`) against `world`.
// `admin` is the Hns used for Setup's context registrations and the storm
// toggles; pass session->local_hns() in linked arrangements so storm
// invalidations hit the cache under test. Cache/meta observations come
// from session->local_hns() when present, else from `admin`.
class WorkloadEngine {
 public:
  WorkloadEngine(World* world, HnsSession* session, Hns* admin, WorkloadOptions options);

  // Registers the synthetic contexts (and the storm fixture when storms
  // are enabled), then zeroes the observation baselines. Call once, before
  // Run.
  HCS_NODISCARD Status Setup();

  // Runs the workload to completion (every actor has a finite schedule, so
  // the event queue drains deterministically) and reports.
  WorkloadReport Run();

  // Pair space: contexts x {HRPCBinding, HostAddress}, with the last pair
  // remapped to (kStormContext, HRPCBinding) when storms are enabled.
  uint32_t pair_count() const;
  std::pair<std::string, QueryClass> PairFor(uint32_t pair) const;

 private:
  struct ClientState {
    Rng rng;
    uint32_t ops_left = 0;
  };

  std::string ContextName(uint32_t index) const;
  Hns* observed() const;

  void ScheduleArrival();
  void ClientArrive();
  void ClientOp(uint32_t client);
  void ScheduleStorm();
  void StormToggle();
  void FlashCrowd();
  void Stampede();

  // One resolution op: a single FindNsm, with sim-clock latency accounting.
  void ExecuteQuery(uint32_t pair);
  void ExecuteRegister();
  void ExecuteUnregister();
  void NoteQueryStatus(const Status& status);
  void NoteLatency(SimDuration elapsed_us);
  WorkloadReport BuildReport();

  World* world_;
  HnsSession* session_;
  Hns* admin_;
  WorkloadOptions options_;

  ZipfSampler zipf_;
  std::vector<uint32_t> rank_to_pair_;  // popularity permutation (flash crowds rotate it)
  Rng arrival_rng_;
  Rng storm_rng_;
  std::vector<ClientState> clients_;
  uint32_t arrived_ = 0;
  uint32_t storm_done_ = 0;
  bool storm_registered_ = true;  // Setup leaves the storm NSM registered

  WorkloadCounters counters_;
  LatencyCounts latency_counts_;  // per-op sim-clock latency, us -> ops

  // Observation baselines snapshotted at the end of Setup.
  uint64_t meta_lookups_base_ = 0;
  uint64_t network_messages_base_ = 0;
  SimTime started_at_us_ = 0;  // when Run began
};

}  // namespace hcs

#endif  // HCS_SRC_WORKLOAD_ENGINE_H_
