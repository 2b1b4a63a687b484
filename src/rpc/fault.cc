#include "src/rpc/fault.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "src/common/logging.h"
#include "src/common/rand.h"
#include "src/common/strings.h"
#include "src/rpc/context.h"
#include "src/rpc/udp_transport.h"

namespace hcs {

namespace {

// Stable 64-bit FNV-1a over the endpoint key. std::hash would work within
// one process, but the decision stream must reproduce across builds and
// platforms for a printed seed to mean anything.
uint64_t HashKey(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Finalizer-quality mixer (the murmur3 fmix64 constants), so nearby
// sequence numbers and similar endpoint hashes land far apart in seed
// space.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// The per-decision PRNG seed: a pure function of (injector seed, endpoint,
// per-endpoint sequence number). This is the whole replay story — the draw
// for decision N toward an endpoint does not depend on traffic to any other
// endpoint or on thread interleaving.
uint64_t DecisionSeed(uint64_t seed, const std::string& endpoint_key, uint64_t sequence) {
  return Mix64(seed ^ Mix64(HashKey(endpoint_key) ^ Mix64(sequence + 0x9e3779b97f4a7c15ULL)));
}

// Keep traces bounded: a runaway scenario must not turn the injector into
// an allocator bench. 1<<16 decisions is far more than any scripted
// scenario draws.
constexpr size_t kMaxTraceEntries = 1 << 16;

std::string EndpointKeyOf(const std::string& host_key, uint16_t port) {
  return host_key + ":" + std::to_string(port);
}

}  // namespace

FaultInjector::FaultInjector(FaultConfig config) : config_(std::move(config)) {
  MutexLock lock(mu_);
  for (const FaultPlan& plan : config_.plans) {
    PlanState state;
    state.plan = plan;
    state.plan.endpoint = AsciiToLower(state.plan.endpoint);
    state.epoch_ms = Now();
    plans_[state.plan.endpoint] = std::move(state);
  }
}

int64_t FaultInjector::Now() const {
  if (now_ms_) {
    return now_ms_();
  }
  return SteadyNowMs();
}

void FaultInjector::SetPlan(FaultPlan plan) {
  MutexLock lock(mu_);
  PlanState state;
  state.plan = std::move(plan);
  state.plan.endpoint = AsciiToLower(state.plan.endpoint);
  state.epoch_ms = Now();
  plans_[state.plan.endpoint] = std::move(state);
}

void FaultInjector::RemovePlan(const std::string& endpoint) {
  MutexLock lock(mu_);
  plans_.erase(AsciiToLower(endpoint));
}

void FaultInjector::BlackholeEndpoint(const std::string& endpoint) {
  FaultPlan plan;
  plan.endpoint = endpoint;
  FaultPhase phase;
  phase.spec.blackhole = true;
  plan.phases.push_back(phase);
  SetPlan(std::move(plan));
}

void FaultInjector::HealEndpoint(const std::string& endpoint) { RemovePlan(endpoint); }

void FaultInjector::SetTimeFn(std::function<int64_t()> now_ms) {
  MutexLock lock(mu_);
  now_ms_ = std::move(now_ms);
  for (auto& [endpoint, state] : plans_) {
    state.epoch_ms = Now();
  }
}

void FaultInjector::ResetPhaseClocks() {
  MutexLock lock(mu_);
  for (auto& [endpoint, state] : plans_) {
    state.epoch_ms = Now();
  }
}

const FaultSpec* FaultInjector::ActiveSpec(const std::string& host_key,
                                           const std::string& endpoint_key) const {
  const PlanState* state = nullptr;
  auto it = plans_.find(endpoint_key);
  if (it == plans_.end()) {
    it = plans_.find(host_key);
  }
  if (it == plans_.end()) {
    it = plans_.find("*");
  }
  if (it == plans_.end()) {
    return nullptr;
  }
  state = &it->second;
  if (state->plan.phases.empty()) {
    return nullptr;
  }
  int64_t elapsed = Now() - state->epoch_ms;
  for (const FaultPhase& phase : state->plan.phases) {
    if (phase.duration_ms <= 0 || elapsed < phase.duration_ms) {
      return &phase.spec;
    }
    elapsed -= phase.duration_ms;
  }
  // Ran past every timed phase: the last one holds forever.
  return &state->plan.phases.back().spec;
}

FaultDecision FaultInjector::Decide(const std::string& host, uint16_t port) {
  std::string host_key = AsciiToLower(host);
  std::string endpoint_key = EndpointKeyOf(host_key, port);

  MutexLock lock(mu_);
  FaultDecision decision;
  decision.sequence = sequence_[endpoint_key]++;
  counters_.decisions.fetch_add(1, std::memory_order_relaxed);

  const FaultSpec* spec = ActiveSpec(host_key, endpoint_key);
  if (spec != nullptr && !spec->healthy()) {
    if (spec->blackhole) {
      decision.blackhole = true;
      counters_.blackholed.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Fixed draw order, every draw taken regardless of which probabilities
      // are zero: the PRNG consumption per decision is constant, so editing
      // one probability in a plan cannot shift any other decision's draws.
      Rng rng(DecisionSeed(config_.seed, endpoint_key, decision.sequence));
      decision.drop = rng.Bernoulli(spec->drop);
      decision.duplicate = rng.Bernoulli(spec->duplicate);
      decision.reorder = rng.Bernoulli(spec->reorder);
      decision.corrupt = rng.Bernoulli(spec->corrupt);
      bool delayed = rng.Bernoulli(spec->delay);
      int64_t lo = spec->delay_min_ms;
      int64_t hi = spec->delay_max_ms < lo ? lo : spec->delay_max_ms;
      int64_t delay_draw = rng.UniformInRange(lo, hi);
      decision.corrupt_salt = rng.Next();
      if (decision.drop) {
        // A dropped message has no further fate; the flags below describe
        // what happens to a message that is actually carried.
        decision.duplicate = false;
        decision.reorder = false;
        decision.corrupt = false;
        delayed = false;
      }
      // A reordered message is one held back so later traffic overtakes it:
      // in this synchronous harness that is an injected hold-back delay.
      if (delayed || decision.reorder) {
        decision.delay_ms = delay_draw;
      }
      if (decision.drop) counters_.drops.fetch_add(1, std::memory_order_relaxed);
      if (decision.duplicate) counters_.duplicates.fetch_add(1, std::memory_order_relaxed);
      if (decision.reorder) counters_.reorders.fetch_add(1, std::memory_order_relaxed);
      if (decision.corrupt) counters_.corruptions.fetch_add(1, std::memory_order_relaxed);
      if (decision.delay_ms > 0) {
        counters_.delays.fetch_add(1, std::memory_order_relaxed);
        counters_.delay_ms_total.fetch_add(static_cast<uint64_t>(decision.delay_ms),
                                           std::memory_order_relaxed);
      }
    }
  }

  if (trace_enabled_ && trace_.size() < kMaxTraceEntries) {
    std::string flags;
    if (decision.blackhole) flags += 'X';
    if (decision.drop) flags += 'D';
    if (decision.duplicate) flags += '2';
    if (decision.reorder) flags += 'R';
    if (decision.corrupt) flags += 'C';
    if (decision.delay_ms > 0) flags += "+" + std::to_string(decision.delay_ms);
    if (flags.empty()) flags = ".";
    trace_.push_back(endpoint_key + "#" + std::to_string(decision.sequence) + ":" + flags);
  }
  return decision;
}

void FaultInjector::CorruptFrame(Bytes* frame, uint64_t salt) {
  if (frame == nullptr) {
    return;
  }
  CorruptFrame(frame->data(), frame->size(), salt);
}

void FaultInjector::CorruptFrame(uint8_t* data, size_t size, uint64_t salt) {
  if (data == nullptr || size == 0) {
    return;
  }
  Rng rng(Mix64(salt ^ 0xc0a2f7d9e5b31847ULL));
  uint64_t flips = 1 + rng.Uniform(3);
  uint64_t bits = static_cast<uint64_t>(size) * 8;
  for (uint64_t i = 0; i < flips; ++i) {
    uint64_t bit = rng.Uniform(bits);
    data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
}

FaultStats FaultInjector::stats() const {
  FaultStats out;
  out.decisions = counters_.decisions.load(std::memory_order_relaxed);
  out.drops = counters_.drops.load(std::memory_order_relaxed);
  out.duplicates = counters_.duplicates.load(std::memory_order_relaxed);
  out.reorders = counters_.reorders.load(std::memory_order_relaxed);
  out.corruptions = counters_.corruptions.load(std::memory_order_relaxed);
  out.delays = counters_.delays.load(std::memory_order_relaxed);
  out.delay_ms_total = counters_.delay_ms_total.load(std::memory_order_relaxed);
  out.blackholed = counters_.blackholed.load(std::memory_order_relaxed);
  out.server_drops = counters_.server_drops.load(std::memory_order_relaxed);
  return out;
}

void FaultInjector::NoteServerDrop() {
  counters_.server_drops.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::set_trace_enabled(bool enabled) {
  MutexLock lock(mu_);
  trace_enabled_ = enabled;
  if (!enabled) {
    trace_.clear();
  }
}

std::vector<std::string> FaultInjector::TakeTrace() {
  MutexLock lock(mu_);
  std::vector<std::string> out = std::move(trace_);
  trace_.clear();
  return out;
}

namespace {

HCS_NODISCARD Status ParseProbability(const std::string& token, const std::string& value,
                                      double* out) {
  char* end = nullptr;
  double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return InvalidArgumentError("HCS_FAULTS: bad probability in '" + token + "' (want [0,1])");
  }
  *out = p;
  return Status::Ok();
}

HCS_NODISCARD Status ParseInt64(const std::string& token, const std::string& value, int64_t* out) {
  char* end = nullptr;
  long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || v < 0) {
    return InvalidArgumentError("HCS_FAULTS: bad integer in '" + token + "'");
  }
  *out = static_cast<int64_t>(v);
  return Status::Ok();
}

}  // namespace

Result<FaultConfig> ParseFaultConfig(const std::string& spec) {
  FaultConfig config;
  FaultPlan* plan = nullptr;       // current endpoint= plan
  FaultPhase* phase = nullptr;     // current phase of that plan

  // Re-resolve the current plan/phase pointers after any vector growth.
  auto current_phase = [&]() -> FaultPhase* {
    if (plan == nullptr) {
      return nullptr;
    }
    if (plan->phases.empty()) {
      // Spec keys before any phase= token: the plan is a single terminal
      // phase.
      plan->phases.push_back(FaultPhase{});
    }
    return &plan->phases.back();
  };

  size_t pos = 0;
  while (pos < spec.size()) {
    while (pos < spec.size() && std::isspace(static_cast<unsigned char>(spec[pos]))) pos++;
    size_t start = pos;
    while (pos < spec.size() && !std::isspace(static_cast<unsigned char>(spec[pos]))) pos++;
    if (start == pos) {
      break;
    }
    std::string token = spec.substr(start, pos - start);
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      return InvalidArgumentError("HCS_FAULTS: malformed token '" + token + "' (want key=value)");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);

    if (key == "seed") {
      int64_t seed = 0;
      HCS_RETURN_IF_ERROR(ParseInt64(token, value, &seed));
      config.seed = static_cast<uint64_t>(seed);
      continue;
    }
    if (key == "endpoint") {
      config.plans.push_back(FaultPlan{});
      plan = &config.plans.back();
      plan->endpoint = value;
      phase = nullptr;
      continue;
    }
    if (plan == nullptr) {
      return InvalidArgumentError("HCS_FAULTS: '" + token + "' before any endpoint= token");
    }
    if (key == "phase") {
      int64_t duration = 0;
      HCS_RETURN_IF_ERROR(ParseInt64(token, value, &duration));
      plan->phases.push_back(FaultPhase{});
      plan->phases.back().duration_ms = duration;
      phase = &plan->phases.back();
      continue;
    }
    phase = current_phase();
    if (key == "drop") {
      HCS_RETURN_IF_ERROR(ParseProbability(token, value, &phase->spec.drop));
    } else if (key == "dup") {
      HCS_RETURN_IF_ERROR(ParseProbability(token, value, &phase->spec.duplicate));
    } else if (key == "reorder") {
      HCS_RETURN_IF_ERROR(ParseProbability(token, value, &phase->spec.reorder));
    } else if (key == "corrupt") {
      HCS_RETURN_IF_ERROR(ParseProbability(token, value, &phase->spec.corrupt));
    } else if (key == "delay") {
      HCS_RETURN_IF_ERROR(ParseProbability(token, value, &phase->spec.delay));
    } else if (key == "delay_ms") {
      size_t dots = value.find("..");
      if (dots == std::string::npos) {
        return InvalidArgumentError("HCS_FAULTS: '" + token + "' wants delay_ms=MIN..MAX");
      }
      HCS_RETURN_IF_ERROR(
          ParseInt64(token, value.substr(0, dots), &phase->spec.delay_min_ms));
      HCS_RETURN_IF_ERROR(
          ParseInt64(token, value.substr(dots + 2), &phase->spec.delay_max_ms));
      if (phase->spec.delay_max_ms < phase->spec.delay_min_ms) {
        return InvalidArgumentError("HCS_FAULTS: empty range in '" + token + "'");
      }
    } else if (key == "blackhole") {
      if (value != "0" && value != "1") {
        return InvalidArgumentError("HCS_FAULTS: '" + token + "' wants blackhole=0|1");
      }
      phase->spec.blackhole = value == "1";
    } else {
      return InvalidArgumentError("HCS_FAULTS: unknown key '" + key + "'");
    }
  }
  return config;
}

namespace {

std::atomic<FaultInjector*> g_installed_injector{nullptr};

FaultInjector* EnvFaultInjector() {
  // Parsed once per process; a FaultInjector built from HCS_FAULTS lives for
  // the process lifetime (reachable through this static, so leak-clean).
  static FaultInjector* env_injector = []() -> FaultInjector* {
    const char* spec = std::getenv("HCS_FAULTS");
    if (spec == nullptr || spec[0] == '\0') {
      return nullptr;
    }
    Result<FaultConfig> config = ParseFaultConfig(spec);
    if (!config.ok()) {
      // A typo must not silently run a healthy "chaos" test: injection is
      // disabled loudly rather than partially.
      HCS_LOG(Warning) << "ignoring HCS_FAULTS: " << config.status().ToString();
      return nullptr;
    }
    HCS_LOG(Info) << "HCS_FAULTS active, seed=" << config->seed
                  << ", plans=" << config->plans.size();
    return new FaultInjector(std::move(config).value());
  }();
  return env_injector;
}

}  // namespace

FaultInjector* GlobalFaultInjector() {
  FaultInjector* installed = g_installed_injector.load(std::memory_order_acquire);
  if (installed != nullptr) {
    return installed;
  }
  return EnvFaultInjector();
}

void InstallGlobalFaultInjector(FaultInjector* injector) {
  g_installed_injector.store(injector, std::memory_order_release);
}

Status FilterInboundFrame(FaultInjector* injector, uint16_t local_port, uint8_t* data,
                          size_t size) {
  if (injector == nullptr) {
    return Status::Ok();
  }
  FaultDecision decision = injector->Decide("local", local_port);
  if (decision.blackhole) {
    injector->NoteServerDrop();
    return UnavailableError("injected blackhole of inbound message on port " +
                            std::to_string(local_port) + " (seq " +
                            std::to_string(decision.sequence) + ")");
  }
  if (decision.drop) {
    injector->NoteServerDrop();
    return TimeoutError("injected drop of inbound message on port " +
                        std::to_string(local_port) + " (seq " +
                        std::to_string(decision.sequence) + ")");
  }
  if (decision.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(decision.delay_ms));
  }
  if (decision.corrupt) {
    FaultInjector::CorruptFrame(data, size, decision.corrupt_salt);
  }
  // `duplicate` is a carrier-side fault; inbound filtering has no second
  // copy to deliver, so the flag is intentionally a no-op here.
  return Status::Ok();
}

FaultStats CollectFaultStats(const FaultInjector* injector, const UdpServerHost* host) {
  FaultStats out;
  if (injector != nullptr) {
    out = injector->stats();
  }
  if (host != nullptr) {
    out.endpoint_drops = host->dropped_by_endpoint();
  }
  return out;
}

Result<Bytes> FaultInjectingTransport::RoundTrip(const std::string& from_host,
                                                 const std::string& to_host, uint16_t port,
                                                 const Bytes& message) {
  auto forward = [&](const Bytes& frame) -> Result<Bytes> {
    return inner_->RoundTrip(from_host, to_host, port, frame);
  };
  if (injector_ == nullptr) {
    return forward(message);
  }
  FaultDecision decision = injector_->Decide(to_host, port);
  if (decision.blackhole) {
    return UnavailableError("injected blackhole: " + to_host + ":" + std::to_string(port) +
                            " (seq " + std::to_string(decision.sequence) + ")");
  }
  if (decision.drop) {
    return TimeoutError("injected drop: " + to_host + ":" + std::to_string(port) + " (seq " +
                        std::to_string(decision.sequence) + ")");
  }
  if (decision.delay_ms > 0) {
    // Injected latency (a delayed or reordered carry). On the sim world the
    // charge advances the virtual clock deterministically; otherwise the
    // wall clock pays.
    if (world_ != nullptr) {
      world_->ChargeMs(static_cast<double>(decision.delay_ms));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(decision.delay_ms));
    }
  }
  if (decision.corrupt) {
    Bytes corrupted = message;
    FaultInjector::CorruptFrame(&corrupted, decision.corrupt_salt);
    if (decision.duplicate) {
      (void)forward(corrupted);  // hcs:ignore-status(injected duplicate delivery; first reply wins)
    }
    return forward(corrupted);
  }
  if (decision.duplicate) {
    // The duplicate is carried too — the server handles the message twice —
    // but the caller only ever sees the first exchange's reply.
    Result<Bytes> reply = forward(message);
    (void)forward(message);  // hcs:ignore-status(injected duplicate delivery; first reply wins)
    return reply;
  }
  return forward(message);
}

}  // namespace hcs
