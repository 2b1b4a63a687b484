// Sim-clock workload runner. Drives the deterministic workload engine
// (src/workload) over the sim testbed at several population sizes plus
// churn and stampede shapes, and prints one JSON document of virtual-time
// latency tails (p50/p99/p999), the cache hit-rate-vs-population curve, and
// meta-store load. The virtual clock makes every number a pure function of
// (code, seed), so the `seed_outputs` ctest holds the output byte for byte
// against tests/golden/bench_workload_engine.txt — on any machine, under
// any load. Takes no arguments.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/testbed/testbed.h"
#include "src/workload/engine.h"

namespace hcs {
namespace {

// Fixed: the golden must be reproducible byte for byte, so the seed is
// part of the output's identity, not an input.
constexpr uint64_t kBenchSeed = 0x5eedf00d;

struct Scenario {
  std::string name;
  WorkloadOptions options;
  bool churn = false;  // storm fixture needs the testbed's NsmInfo template
};

struct ScenarioResult {
  Scenario scenario;
  WorkloadReport report;
};

// One scenario, one fresh all-linked testbed with the composite cache on —
// the arrangement a production resolver would run. Same shape as the
// workload_test RunWorkload helper, so the golden numbers describe exactly
// what the test suite exercises.
ScenarioResult RunScenario(Scenario scenario) {
  std::fprintf(stderr, "  running %-16s population=%-8u contexts=%-3u zipf_s=%.2f\n",
               scenario.name.c_str(), scenario.options.population,
               scenario.options.contexts, scenario.options.zipf_s);
  TestbedOptions bed_options;
  bed_options.hns_composite_cache = true;
  Testbed bed(bed_options);
  if (scenario.churn) {
    scenario.options.storm_nsm = bed.BindingBindInfo();
    scenario.options.storm_nsm.nsm_name = "wl-storm-nsm";
  }
  ClientSetup client = bed.MakeClient(Arrangement::kAllLinked);
  WorkloadEngine engine(&bed.world(), client.session.get(),
                        client.session->local_hns(), scenario.options);
  Status setup = engine.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", setup.ToString().c_str());
    std::abort();
  }
  ScenarioResult result;
  result.report = engine.Run();
  result.scenario = std::move(scenario);
  return result;
}

void AppendJsonScenario(std::string* out, const ScenarioResult& r, bool last) {
  const WorkloadReport& rep = r.report;
  const WorkloadCounters& c = rep.counters;
  uint64_t queries = c.queries_ok + c.queries_not_found + c.queries_failed;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "    {\n"
                "      \"name\": \"%s\",\n"
                "      \"population\": %u,\n"
                "      \"contexts\": %u,\n"
                "      \"zipf_s\": %.2f,\n"
                "      \"queries\": %" PRIu64 ",\n"
                "      \"sim_qps\": %.1f,\n"
                "      \"p50_ms\": %.3f,\n"
                "      \"p99_ms\": %.3f,\n"
                "      \"p999_ms\": %.3f,\n"
                "      \"record_hit_rate\": %.4f,\n"
                "      \"composite_hit_rate\": %.4f,\n"
                "      \"meta_remote_lookups\": %" PRIu64 ",\n"
                "      \"fingerprint\": \"%016" PRIx64 "\"\n"
                "    }%s\n",
                r.scenario.name.c_str(), r.scenario.options.population,
                r.scenario.options.contexts, r.scenario.options.zipf_s, queries,
                rep.QueriesPerSimSecond(), rep.p50_ms, rep.p99_ms, rep.p999_ms,
                rep.record_cache.HitFraction(), rep.composite_cache.HitFraction(),
                rep.meta_remote_lookups, c.Fingerprint(), last ? "" : ",");
  out->append(buf);
}

int Main() {
  auto base = [](uint32_t population) {
    WorkloadOptions o;
    o.seed = kBenchSeed;
    o.population = population;
    o.contexts = 64;
    o.zipf_s = 1.1;
    o.arrivals_per_second = 20'000;
    o.mean_queries_per_client = 2.0;
    o.mean_think_ms = 50;
    o.name_services = {kNsBind, kNsCh};
    return o;
  };

  std::vector<Scenario> scenarios;
  // The hit-rate-vs-population curve: one Zipf shape, growing population.
  // The working set is fixed (contexts x query classes), so the hit rate
  // must not degrade as the population grows 100x — that is the paper's
  // "scale by caching the popular head" claim, held by the golden.
  for (const auto& [name, population] :
       {std::pair<const char*, uint32_t>{"zipf_pop_10k", 10'000},
        {"zipf_pop_100k", 100'000},
        {"zipf_pop_1m", 1'000'000}}) {
    Scenario point;
    point.name = name;
    point.options = base(population);
    scenarios.push_back(std::move(point));
  }
  {
    Scenario churn;
    churn.name = "churn_storm";
    churn.options = base(100'000);
    churn.options.contexts = 8;
    churn.options.zipf_s = 0.8;
    churn.options.storm_toggles = 200;
    churn.options.storm_rate_per_second = 100;
    churn.churn = true;
    scenarios.push_back(std::move(churn));
  }
  {
    Scenario stampede;
    stampede.name = "cache_stampede";
    stampede.options = base(100'000);
    stampede.options.stampede_at_us = 1'000'000;
    stampede.options.stampede_burst = 1'000;
    scenarios.push_back(std::move(stampede));
  }

  std::vector<ScenarioResult> results;
  results.reserve(scenarios.size());
  for (Scenario& scenario : scenarios) {
    results.push_back(RunScenario(std::move(scenario)));
  }

  std::string json;
  json.append("{\n");
  json.append("  \"environment\": \"sim virtual clock, single-threaded, deterministic\",\n");
  json.append("  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    AppendJsonScenario(&json, results[i], i + 1 == results.size());
  }
  json.append("  ]\n}\n");
  std::fputs(json.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace hcs

int main() { return hcs::Main(); }
