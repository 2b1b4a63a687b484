#include "src/workload/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/hns/name.h"

namespace hcs {
namespace {

// The two query classes the pair space spans. Both have NSMs registered
// for every testbed name service, so any (context, class) pair resolves.
const char* const kPairQueryClasses[] = {kQueryClassHrpcBinding, kQueryClassHostAddress};
constexpr uint32_t kPairQueryClassCount = 2;

// SplitMix64 finalizer: derives statistically independent per-actor seeds
// from (engine seed, actor id) — the fault injector's replay discipline
// applied to load generation.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

uint64_t WorkloadCounters::Fingerprint() const {
  uint64_t hash = 0xcbf29ce484222325ull;
  hash = Fnv1a(hash, arrivals);
  hash = Fnv1a(hash, departures);
  hash = Fnv1a(hash, queries_ok);
  hash = Fnv1a(hash, queries_not_found);
  hash = Fnv1a(hash, queries_failed);
  hash = Fnv1a(hash, batches);
  hash = Fnv1a(hash, registers_ok);
  hash = Fnv1a(hash, registers_failed);
  hash = Fnv1a(hash, unregisters_ok);
  hash = Fnv1a(hash, unregisters_failed);
  hash = Fnv1a(hash, cache_flushes);
  hash = Fnv1a(hash, latency_samples);
  hash = Fnv1a(hash, latency_total_us);
  hash = Fnv1a(hash, latency_max_us);
  for (uint64_t bucket : latency_log2_histogram) {
    hash = Fnv1a(hash, bucket);
  }
  return hash;
}

WorkloadEngine::WorkloadEngine(World* world, HnsSession* session, Hns* admin,
                               WorkloadOptions options)
    : world_(world),
      session_(session),
      admin_(admin),
      options_(std::move(options)),
      zipf_(std::max<uint32_t>(1, options_.contexts) * kPairQueryClassCount,
            options_.zipf_s),
      arrival_rng_(MixSeed(options_.seed, 0xa441)),
      storm_rng_(MixSeed(options_.seed, 0x5702)) {
  if (options_.contexts == 0) {
    options_.contexts = 1;
  }
  rank_to_pair_.resize(pair_count());
  for (uint32_t i = 0; i < pair_count(); ++i) {
    rank_to_pair_[i] = i;
  }
  trace_.header.seed = options_.seed;
  trace_.header.population = options_.population;
  trace_.header.contexts = options_.contexts;
  trace_.header.zipf_s_micros = static_cast<uint32_t>(options_.zipf_s * 1e6);
}

uint32_t WorkloadEngine::pair_count() const {
  return options_.contexts * kPairQueryClassCount;
}

std::string WorkloadEngine::ContextName(uint32_t index) const {
  return "wl-ctx-" + std::to_string(index);
}

std::pair<std::string, QueryClass> WorkloadEngine::PairFor(uint32_t pair) const {
  pair %= pair_count();
  if (options_.storm_toggles > 0 && pair == pair_count() - 1) {
    return {kStormContext, kPairQueryClasses[0]};
  }
  return {ContextName(pair % options_.contexts),
          kPairQueryClasses[pair / options_.contexts]};
}

Hns* WorkloadEngine::observed() const {
  return session_->local_hns() != nullptr ? session_->local_hns() : admin_;
}

Status WorkloadEngine::Setup() {
  if (options_.name_services.empty()) {
    return InvalidArgumentError("workload: options.name_services must not be empty");
  }
  for (uint32_t i = 0; i < options_.contexts; ++i) {
    const std::string& ns = options_.name_services[i % options_.name_services.size()];
    HCS_RETURN_IF_ERROR(admin_->RegisterContext(ContextName(i), ns));
  }
  if (options_.storm_toggles > 0) {
    if (options_.storm_nsm.nsm_name.empty()) {
      return InvalidArgumentError("workload: storms need options.storm_nsm");
    }
    NameServiceInfo ns_info;
    ns_info.name = kStormNameService;
    ns_info.type = "BIND";
    HCS_RETURN_IF_ERROR(admin_->RegisterNameService(ns_info));
    HCS_RETURN_IF_ERROR(admin_->RegisterContext(kStormContext, kStormNameService));
    options_.storm_nsm.ns_name = kStormNameService;
    options_.storm_nsm.query_class = kPairQueryClasses[0];
    HCS_RETURN_IF_ERROR(admin_->RegisterNsm(options_.storm_nsm));
    storm_registered_ = true;
  }
  // Observation baselines: the report covers the workload, not the fixture.
  observed()->cache().ResetStats();
  observed()->composite_cache().ResetStats();
  meta_lookups_base_ = observed()->meta().remote_lookups();
  network_messages_base_ = world_->stats().total_messages;
  return Status::Ok();
}

void WorkloadEngine::ScheduleArrival() {
  if (arrived_ >= options_.population) {
    return;
  }
  SimDuration gap = SampleInterArrival(arrival_rng_, options_.arrivals_per_second);
  world_->events().ScheduleAfter(gap, [this] { ClientArrive(); });
}

void WorkloadEngine::ClientArrive() {
  uint32_t id = arrived_++;
  ++counters_.arrivals;
  RecordEvent(TraceEventKind::kArrive, id, 0, 0);

  ClientState state{Rng(MixSeed(options_.seed, id)), 0};
  // Geometric number of queries, mean options_.mean_queries_per_client,
  // capped at 8x the mean so the schedule is finite by construction.
  double mean = std::max(1.0, options_.mean_queries_per_client);
  double p_continue = 1.0 - 1.0 / mean;
  uint32_t cap = std::max<uint32_t>(1, static_cast<uint32_t>(mean * 8));
  uint32_t ops = 1;
  while (ops < cap && state.rng.NextDouble() < p_continue) {
    ++ops;
  }
  state.ops_left = ops;
  clients_.push_back(state);

  ScheduleArrival();
  ClientOp(id);  // the first query fires at arrival time
}

void WorkloadEngine::ClientOp(uint32_t client) {
  ClientState& state = clients_[client];
  uint32_t rank = zipf_.Sample(state.rng);
  uint32_t pair = rank_to_pair_[rank];
  ExecuteQuery(client, pair, options_.resolve_batch, options_.record_trace);

  if (--state.ops_left == 0) {
    ++counters_.departures;
    RecordEvent(TraceEventKind::kDepart, client, 0, 0);
    return;
  }
  double think_rate = 1000.0 / std::max(1e-3, options_.mean_think_ms);
  SimDuration think = SampleInterArrival(state.rng, think_rate);
  world_->events().ScheduleAfter(think, [this, client] { ClientOp(client); });
}

void WorkloadEngine::ScheduleStorm() {
  if (storm_done_ >= options_.storm_toggles) {
    return;
  }
  SimDuration gap = SampleInterArrival(storm_rng_, options_.storm_rate_per_second);
  world_->events().ScheduleAfter(gap, [this] { StormToggle(); });
}

void WorkloadEngine::StormToggle() {
  ++storm_done_;
  if (storm_registered_) {
    ExecuteUnregister(options_.record_trace);
  } else {
    ExecuteRegister(options_.record_trace);
  }
  storm_registered_ = !storm_registered_;
  ScheduleStorm();
}

void WorkloadEngine::FlashCrowd() {
  // Popularity shift: the coldest pair becomes the hottest. Everything the
  // population draws from here on follows the new permutation; the burst
  // below is the crowd front hammering the freshly-hot key.
  std::swap(rank_to_pair_[0], rank_to_pair_[pair_count() - 1]);
  uint32_t hot = rank_to_pair_[0];
  for (uint32_t k = 0; k < options_.flash_burst; ++k) {
    uint32_t actor = options_.population + k;
    world_->events().ScheduleAt(world_->clock().Now(), [this, actor, hot] {
      ExecuteQuery(actor, hot, 0, options_.record_trace);
    });
  }
}

void WorkloadEngine::Stampede() {
  ++counters_.cache_flushes;
  RecordEvent(TraceEventKind::kCacheFlush, 0, 0, 0);
  FlushObservedCaches();
  uint32_t hot = rank_to_pair_[0];
  for (uint32_t k = 0; k < options_.stampede_burst; ++k) {
    uint32_t actor = options_.population + options_.flash_burst + k;
    world_->events().ScheduleAt(world_->clock().Now(), [this, actor, hot] {
      ExecuteQuery(actor, hot, 0, options_.record_trace);
    });
  }
}

void WorkloadEngine::FlushObservedCaches() {
  observed()->cache().Clear();
  observed()->composite_cache().Clear();
}

void WorkloadEngine::ExecuteQuery(uint32_t client, uint32_t pair, uint32_t count,
                                  bool record) {
  if (record) {
    RecordEvent(count > 1 ? TraceEventKind::kResolveMany : TraceEventKind::kFindNsm,
                client, pair, count > 1 ? count : 0);
  }
  SimTime t0 = world_->clock().Now();
  if (count > 1) {
    std::vector<HnsSession::ResolveRequest> requests;
    requests.reserve(count);
    for (uint32_t j = 0; j < count; ++j) {
      auto [context, query_class] = PairFor(pair + j);
      requests.push_back({HnsName{std::move(context), "x"}, std::move(query_class)});
    }
    std::vector<Result<NsmHandle>> results = session_->ResolveMany(requests);
    ++counters_.batches;
    for (const Result<NsmHandle>& result : results) {
      NoteQueryStatus(result.status());
    }
  } else {
    auto [context, query_class] = PairFor(pair);
    Result<NsmHandle> result =
        session_->FindNsm(HnsName{std::move(context), "x"}, query_class);
    NoteQueryStatus(result.status());
  }
  NoteLatency(world_->clock().Now() - t0);
}

void WorkloadEngine::ExecuteRegister(bool record) {
  if (record) {
    RecordEvent(TraceEventKind::kRegisterNsm, 0, 0, 0);
  }
  Status status = admin_->RegisterNsm(options_.storm_nsm);
  if (status.ok()) {
    ++counters_.registers_ok;
  } else {
    ++counters_.registers_failed;
  }
}

void WorkloadEngine::ExecuteUnregister(bool record) {
  if (record) {
    RecordEvent(TraceEventKind::kUnregisterNsm, 0, 0, 0);
  }
  Status status = admin_->UnregisterNsm(kStormNameService, kPairQueryClasses[0]);
  if (status.ok()) {
    ++counters_.unregisters_ok;
  } else {
    ++counters_.unregisters_failed;
  }
}

void WorkloadEngine::RecordEvent(TraceEventKind kind, uint32_t client, uint32_t pair,
                                 uint32_t count) {
  if (!options_.record_trace) {
    return;
  }
  TraceEvent event;
  event.at_us = static_cast<uint64_t>(world_->clock().Now());
  event.client = client;
  event.kind = kind;
  event.pair = pair;
  event.count = count;
  trace_.events.push_back(event);
}

void WorkloadEngine::NoteQueryStatus(const Status& status) {
  if (status.ok()) {
    ++counters_.queries_ok;
  } else if (status.code() == StatusCode::kNotFound) {
    ++counters_.queries_not_found;
  } else {
    ++counters_.queries_failed;
  }
}

void WorkloadEngine::NoteLatency(SimDuration elapsed_us) {
  if (elapsed_us < 0) {
    elapsed_us = 0;
  }
  uint64_t us = static_cast<uint64_t>(elapsed_us);
  ++counters_.latency_samples;
  counters_.latency_total_us += us;
  counters_.latency_max_us = std::max(counters_.latency_max_us, us);
  size_t bucket = std::min<size_t>(std::bit_width(us),
                                   counters_.latency_log2_histogram.size() - 1);
  ++counters_.latency_log2_histogram[bucket];
  ++latency_counts_[us];
}

WorkloadReport WorkloadEngine::Run() {
  clients_.reserve(options_.population);

  ScheduleArrival();
  ScheduleStorm();
  if (options_.flash_burst > 0) {
    world_->events().ScheduleAt(options_.flash_crowd_at_us, [this] { FlashCrowd(); });
  }
  if (options_.stampede_burst > 0) {
    world_->events().ScheduleAt(options_.stampede_at_us, [this] { Stampede(); });
  }
  world_->events().RunUntilIdle();
  return BuildReport();
}

Result<WorkloadReport> WorkloadEngine::Replay(const WorkloadTrace& trace) {
  if (trace.header.magic != kTraceMagic || trace.header.version != kTraceVersion) {
    return InvalidArgumentError("workload replay: bad trace header");
  }
  for (const TraceEvent& event : trace.events) {
    world_->events().ScheduleAt(static_cast<SimTime>(event.at_us),
                                [this, event] { ReplayEvent(event); });
  }
  world_->events().RunUntilIdle();
  return BuildReport();
}

void WorkloadEngine::ReplayEvent(const TraceEvent& event) {
  switch (event.kind) {
    case TraceEventKind::kArrive:
      ++counters_.arrivals;
      return;
    case TraceEventKind::kDepart:
      ++counters_.departures;
      return;
    case TraceEventKind::kFindNsm:
      ExecuteQuery(event.client, event.pair, 0, /*record=*/false);
      return;
    case TraceEventKind::kResolveMany:
      ExecuteQuery(event.client, event.pair, event.count, /*record=*/false);
      return;
    case TraceEventKind::kRegisterNsm:
      ExecuteRegister(/*record=*/false);
      return;
    case TraceEventKind::kUnregisterNsm:
      ExecuteUnregister(/*record=*/false);
      return;
    case TraceEventKind::kRegisterContext: {
      Status status = admin_->RegisterContext(kStormContext, kStormNameService);
      if (status.ok()) {
        ++counters_.registers_ok;
      } else {
        ++counters_.registers_failed;
      }
      return;
    }
    case TraceEventKind::kCacheFlush:
      ++counters_.cache_flushes;
      FlushObservedCaches();
      return;
  }
}

WorkloadReport WorkloadEngine::BuildReport() {
  WorkloadReport report;
  report.counters = counters_;
  report.record_cache = observed()->cache().stats();
  report.composite_cache = observed()->composite_cache().stats();
  report.meta_remote_lookups = observed()->meta().remote_lookups() - meta_lookups_base_;
  report.network_messages = world_->stats().total_messages - network_messages_base_;
  report.ended_at_us = world_->clock().Now();

  const Percentiles tails_us = ComputePercentiles(latency_counts_);
  report.p50_ms = static_cast<double>(tails_us.p50) / 1000.0;
  report.p99_ms = static_cast<double>(tails_us.p99) / 1000.0;
  report.p999_ms = static_cast<double>(tails_us.p999) / 1000.0;
  return report;
}

}  // namespace hcs
