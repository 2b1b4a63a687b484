// sim_population: the workload engine (src/workload) on the sim clock. One
// process, one thread, no sockets: a million virtual clients over 8
// contexts x 2 query classes (Zipf s=0.8) on an all-linked testbed with the
// composite cache on, while a churn storm toggles one registration 200
// times at 100/s — BENCH_10's churn_storm shape at 1M clients.
//
// Each pass builds a fresh testbed and replays the same seed, so every pass
// of a run must end with the same WorkloadCounters fingerprint. Virtual
// latencies are exact functions of code and seed; wall time is engine and
// hns-cache CPU only.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "harness.h"
#include "src/common/sync.h"
#include "src/testbed/testbed.h"
#include "src/workload/engine.h"

namespace hnsbench {
namespace {

using hcs::Status;

constexpr uint32_t kPopulation = 1'000'000;
constexpr uint32_t kSimContexts = 8;
constexpr double kSimZipfS = 0.8;
constexpr uint32_t kStormToggles = 200;
constexpr double kStormRate = 100;
constexpr int kMinPasses = 3;
// Set-ups timed per untraced pass; the pass runs on the last. setup_s is
// the median of all of them.
constexpr int kSetupsPerPass = 4;
// The nominal time of CpuReferenceNs (harness.h) that set-up times are
// scaled to, about its median on the machine the bounds were set on.
constexpr double kNominalCpuReferenceNs = 2'500'000;

struct SimPass {
  std::unique_ptr<hcs::Testbed> bed;
  std::unique_ptr<TracedTransport> traced;
  std::unique_ptr<hcs::HnsSession> session;
  std::vector<hcs::HnsCache*> nsm_caches;
  std::unique_ptr<hcs::WorkloadEngine> engine;
};

// Builds the testbed and the client (the all-linked arrangement, as
// Testbed::MakeClient builds it, but over a transport the traced run can
// wrap), registers the engine's contexts and storm fixture, and resolves
// every pair once.
Status BuildPass(uint64_t seed, bool traced, SimPass* pass) {
  hcs::TestbedOptions bed_options;
  bed_options.hns_composite_cache = true;
  pass->bed = std::make_unique<hcs::Testbed>(bed_options);
  hcs::Testbed& bed = *pass->bed;
  hcs::Transport* transport = &bed.transport();
  if (traced) {
    pass->traced = std::make_unique<TracedTransport>(
        &bed.transport(), &bed.world(),
        std::vector<std::string>{hcs::kMetaSecondaryHost, hcs::kMetaBindHost});
    transport = pass->traced.get();
  }
  hcs::SessionOptions options;
  options.hns.meta_server_host = hcs::kMetaSecondaryHost;
  options.hns.meta_authority_host = hcs::kMetaBindHost;
  options.hns.cache_mode = bed_options.hns_cache_mode;
  options.hns.cache = bed_options.hns_cache;
  options.hns.composite_cache = true;
  pass->session =
      std::make_unique<hcs::HnsSession>(&bed.world(), hcs::kClientHost, transport, options);
  for (std::shared_ptr<hcs::Nsm>& nsm : bed.MakeLinkedNsms(hcs::kClientHost)) {
    pass->nsm_caches.push_back(nsm->cache());
    HCS_RETURN_IF_ERROR(pass->session->LinkNsm(std::move(nsm)));
  }

  hcs::WorkloadOptions workload;
  workload.seed = seed;
  workload.population = kPopulation;
  workload.contexts = kSimContexts;
  workload.zipf_s = kSimZipfS;
  workload.arrivals_per_second = 20'000;
  workload.mean_queries_per_client = 2.0;
  workload.mean_think_ms = 50;
  workload.name_services = {hcs::kNsBind, hcs::kNsCh};
  workload.storm_toggles = kStormToggles;
  workload.storm_rate_per_second = kStormRate;
  workload.storm_nsm = bed.BindingBindInfo();
  workload.storm_nsm.nsm_name = "wl-storm-nsm";
  pass->engine = std::make_unique<hcs::WorkloadEngine>(
      &bed.world(), pass->session.get(), pass->session->local_hns(), workload);
  HCS_RETURN_IF_ERROR(pass->engine->Setup());
  for (uint32_t pair = 0; pair < pass->engine->pair_count(); ++pair) {
    auto [context, query_class] = pass->engine->PairFor(pair);
    HCS_RETURN_IF_ERROR(
        pass->session->FindNsm(hcs::HnsName{context, "x"}, query_class).status());
  }
  return Status::Ok();
}

uint64_t Resolutions(const hcs::WorkloadCounters& c) {
  return c.queries_ok + c.queries_not_found + c.queries_failed;
}

struct PassResult {
  std::vector<double> setup_s;
  std::vector<double> reference_ns;  // a CPU reference before each set-up
  double run_s = 0;
  hcs::WorkloadReport report;
  // Observed around Run only (set-up's cold resolutions excluded).
  hcs::CacheStats record;
  hcs::CacheStats composite;
  hcs::CacheStats nsm;
  uint64_t meta_lookups = 0;
  uint64_t exchanges = 0;
  uint64_t meta_exchanges = 0;
  int64_t meta_virtual_us = 0;
  uint64_t lock_wait_ns = 0;
  double peak_rss_mb = 0;  // the process's high-water mark when the pass ended
};

PassResult RunPass(uint64_t seed, bool traced) {
  PassResult result;
  std::optional<SimPass> pass;
  // Traced passes set up once, so that set-up exchanges add few spans.
  for (int i = 0; i < (traced ? 1 : kSetupsPerPass); ++i) {
    result.reference_ns.push_back(CpuReferenceNs());
    pass.reset();
    pass.emplace();
    int64_t start = NowNs();
    Status status = BuildPass(seed, traced, &*pass);
    result.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "sim set-up failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  hcs::Hns& hns = *pass->session->local_hns();
  hns.cache().ResetStats();
  hns.composite_cache().ResetStats();
  for (hcs::HnsCache* cache : pass->nsm_caches) {
    cache->ResetStats();
  }
  uint64_t meta0 = hns.meta().remote_lookups();
  uint64_t lock0 = HnsLockWaitNs();
  int64_t start = NowNs();
  std::optional<ScopedSpan> span;
  if (traced) {
    span.emplace("workload.pass", 0);
  }
  result.report = pass->engine->Run();
  span.reset();
  result.run_s = static_cast<double>(NowNs() - start) / 1e9;
  result.lock_wait_ns = HnsLockWaitNs() - lock0;
  result.meta_lookups = hns.meta().remote_lookups() - meta0;
  result.record = hns.cache().stats();
  result.composite = hns.composite_cache().stats();
  for (hcs::HnsCache* cache : pass->nsm_caches) {
    result.nsm += cache->stats();
  }
  result.peak_rss_mb = PeakRssMb();
  if (traced) {
    result.exchanges = pass->traced->exchanges;
    result.meta_exchanges = pass->traced->meta_exchanges;
    result.meta_virtual_us = pass->traced->meta_virtual_us;
  }
  return result;
}

double Qps(const PassResult& pass) {
  return static_cast<double>(Resolutions(pass.report.counters)) / pass.run_s;
}

// Passes until `seconds` of wall time have gone (at least kMinPasses).
std::vector<PassResult> RunPasses(uint64_t seed, bool traced, double seconds) {
  std::vector<PassResult> passes;
  int64_t start = NowNs();
  while (passes.size() < kMinPasses ||
         static_cast<double>(NowNs() - start) / 1e9 < seconds) {
    passes.push_back(RunPass(seed, traced));
    const PassResult& p = passes.back();
    const hcs::WorkloadCounters& c = p.report.counters;
    std::printf("pass %zu: set-up %.2f ms (median of %zu), %" PRIu64 " resolutions in %.3f s = "
                "%.0f/s, ok %" PRIu64 ", storm-window NotFound %" PRIu64 ", failed %" PRIu64
                ", fingerprint %016" PRIx64 "\n",
                passes.size(), Median(p.setup_s) * 1e3, p.setup_s.size(), Resolutions(c), p.run_s,
                Qps(p), c.queries_ok, c.queries_not_found, c.queries_failed, c.Fingerprint());
  }
  return passes;
}

// Same seed, same counters: every pass must end with the first pass's
// fingerprint.
bool Deterministic(const std::vector<PassResult>& passes) {
  for (const PassResult& p : passes) {
    if (p.report.counters.Fingerprint() != passes[0].report.counters.Fingerprint()) {
      std::fprintf(stderr, "fingerprint mismatch across passes at one seed\n");
      return false;
    }
  }
  return true;
}

void Account(const std::vector<PassResult>& passes, RunResult* result) {
  if (!Deterministic(passes)) {
    result->correct = false;
  }
  for (const PassResult& p : passes) {
    const hcs::WorkloadCounters& c = p.report.counters;
    result->attempted += Resolutions(c) + c.registers_ok + c.registers_failed +
                         c.unregisters_ok + c.unregisters_failed;
    result->failed += c.queries_failed + c.registers_failed + c.unregisters_failed;
  }
}

double MedianQps(const std::vector<PassResult>& passes) {
  std::vector<double> qps;
  for (const PassResult& p : passes) {
    qps.push_back(Qps(p));
  }
  return Median(qps);
}

}  // namespace

RunResult RunSimWorkload(const RunConfig& config) {
  RunResult result;
  std::printf("workload sim_population: %u virtual clients, %u contexts x 2 query classes, "
              "zipf s=%.1f, %u storm toggles at %.0f/s, sim clock, 1 thread\n",
              kPopulation, kSimContexts, kSimZipfS, kStormToggles, kStormRate);
  double untraced_seconds = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<PassResult> passes = RunPasses(config.seed, /*traced=*/false, untraced_seconds);
  Account(passes, &result);
  const hcs::WorkloadReport& report = passes[0].report;
  const hcs::WorkloadCounters& counters = report.counters;
  double virtual_mean_us = static_cast<double>(counters.latency_total_us) /
                           static_cast<double>(counters.latency_samples);
  std::printf("virtual clock over %" PRIu64 " resolutions: mean %.4f ms, p50 %.3f ms, "
              "p99 %.3f ms, p999 %.3f ms; fingerprint %016" PRIx64 "\n",
              counters.latency_samples, virtual_mean_us / 1e3, report.p50_ms, report.p99_ms,
              report.p999_ms, counters.Fingerprint());
  double untraced_qps = MedianQps(passes);
  std::printf("wall clock: %.0f resolutions/s (median over %zu passes)\n", untraced_qps,
              passes.size());

  if (!config.trace) {
    std::vector<double> setup_times;
    std::vector<double> reference_ns;
    for (const PassResult& p : passes) {
      setup_times.insert(setup_times.end(), p.setup_s.begin(), p.setup_s.end());
      reference_ns.insert(reference_ns.end(), p.reference_ns.begin(), p.reference_ns.end());
    }
    // Set-up is single-threaded CPU work, scaled to the host speed at which
    // the CPU reference takes its nominal time.
    double scale = kNominalCpuReferenceNs / Median(reference_ns);
    std::printf("setup: %zu set-ups, quartiles %.3f / %.3f / %.3f ms; CPU reference median "
                "%.1f us, set-up scaled by %.4f\n",
                setup_times.size(), Quantile(setup_times, 0.25) * 1e3,
                Quantile(setup_times, 0.5) * 1e3, Quantile(setup_times, 0.75) * 1e3,
                Median(reference_ns) / 1e3, scale);
    // The virtual mean, not the median: the median is the composite-hit
    // cost of the cost model (0.828 ms at every seed), which no change to
    // the code paths a resolution takes can move. Wall time is not gated
    // here; engine CPU shows in workload.self_us_per_query.
    result.Set("op_latency_us", virtual_mean_us);
    result.Set("setup_s", Median(setup_times) * scale);
    // The first pass's peak: later passes only repeat it for timing, and
    // the allocator's reuse of freed pass memory varies between processes.
    result.Set("peak_rss_mb", passes[0].peak_rss_mb);
    return result;
  }

  SpanLog::Get().Clear();
  hcs::SetMutexTimingEnabled(true);
  std::vector<PassResult> traced = RunPasses(config.seed, /*traced=*/true, config.seconds / 2);
  hcs::SetMutexTimingEnabled(false);
  Account(traced, &result);
  if (traced[0].report.counters.Fingerprint() != counters.Fingerprint()) {
    std::fprintf(stderr, "tracing changed the workload's counters\n");
    result.correct = false;
  }

  double resolutions = 0;
  double ops = 0;
  PassResult sum;
  for (const PassResult& p : traced) {
    const hcs::WorkloadCounters& c = p.report.counters;
    resolutions += static_cast<double>(Resolutions(c));
    ops += static_cast<double>(Resolutions(c) + c.registers_ok + c.registers_failed +
                               c.unregisters_ok + c.unregisters_failed);
    sum.record += p.record;
    sum.composite += p.composite;
    sum.nsm += p.nsm;
    sum.meta_lookups += p.meta_lookups;
    sum.exchanges += p.exchanges;
    sum.meta_exchanges += p.meta_exchanges;
    sum.meta_virtual_us += p.meta_virtual_us;
    sum.lock_wait_ns += p.lock_wait_ns;
  }
  std::map<std::string, SpanLog::NameStats> spans = SpanLog::Get().Aggregate();
  const SpanLog::NameStats& pass_spans = spans["workload.pass"];
  const SpanLog::NameStats& exchange_spans = spans["sim.exchange"];
  double record_probes =
      static_cast<double>(sum.record.hits + sum.record.misses + sum.record.negative_hits);

  for (const char* name : {"hns.find_nsm_us", "hns.register_us", "wire.encode_us",
                           "wire.decode_us", "rpc.call_us", "rpc.serve_nsm_us",
                           "rpc.serve_meta_us", "rpc.hop_us", "rpc.retries_per_kcall",
                           "rpc.unmatched_replies", "rpc.send_drops", "rpc.server_drops",
                           "nsm.query_us"}) {
    result.Set(name, 0);
  }
  result.Set("hns.composite_hit_ratio", sum.composite.HitFraction());
  result.Set("hns.record_hit_ratio",
             record_probes == 0 ? 1.0 : static_cast<double>(sum.record.hits) / record_probes);
  result.Set("hns.meta_lookups_per_kquery",
             Ratio(1e3 * static_cast<double>(sum.meta_lookups), resolutions));
  result.Set("hns.coalesced_per_kquery",
             Ratio(1e3 * static_cast<double>(sum.record.coalesced_misses), resolutions));
  result.Set("hns.lock_wait_us", Ratio(static_cast<double>(sum.lock_wait_ns) / 1e3, resolutions));
  result.Set("nsm.cache_hit_ratio", sum.nsm.HitFraction());
  result.Set("bindns.meta_requests_per_kop",
             Ratio(1e3 * static_cast<double>(sum.meta_exchanges), ops));
  result.Set("sim.messages_per_query", Ratio(static_cast<double>(sum.exchanges), resolutions));
  result.Set("sim.meta_exchange_virtual_ms",
             Ratio(static_cast<double>(sum.meta_virtual_us) / 1e3,
                   static_cast<double>(sum.meta_exchanges)));
  result.Set("sim.exchange_wall_us",
             Ratio(exchange_spans.total_ns / 1e3, static_cast<double>(exchange_spans.count)));
  result.Set("workload.self_us_per_query", Ratio(pass_spans.self_ns / 1e3, resolutions));
  double traced_qps = MedianQps(traced);
  result.Set("trace.overhead_pct", 100.0 * (untraced_qps / traced_qps - 1.0));

  std::printf("traced: %.0f resolutions/s vs %.0f untraced; per resolution %.4f us in the "
              "engine and hns cache, %.4f us in %.4f sim exchanges\n",
              traced_qps, untraced_qps, pass_spans.self_ns / 1e3 / resolutions,
              exchange_spans.total_ns / 1e3 / resolutions,
              static_cast<double>(sum.exchanges) / resolutions);
  if (!config.spans_path.empty() && !SpanLog::Get().WriteTsv(config.spans_path, 1)) {
    std::fprintf(stderr, "cannot write spans to %s\n", config.spans_path.c_str());
  }
  return result;
}

}  // namespace hnsbench
