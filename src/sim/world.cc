#include "src/sim/world.h"

#include <chrono>

#include "src/common/strings.h"

namespace hcs {

SimTime ClockNow(const World* world) {
  if (world != nullptr) {
    return world->clock().Now();
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string World::EndpointKey(const std::string& host, uint16_t port) {
  return AsciiToLower(host) + ":" + std::to_string(port);
}

Status World::RegisterService(const std::string& host, uint16_t port, SimService* service) {
  if (!network_.HasHost(host)) {
    return NotFoundError("cannot register service on unknown host: " + host);
  }
  std::string key = EndpointKey(host, port);
  if (services_.count(key) != 0) {
    return AlreadyExistsError("endpoint already in use: " + key);
  }
  services_[key] = service;
  return Status::Ok();
}

void World::UnregisterService(const std::string& host, uint16_t port) {
  services_.erase(EndpointKey(host, port));
}

bool World::HasService(const std::string& host, uint16_t port) const {
  return services_.count(EndpointKey(host, port)) != 0;
}

void World::CrashHost(const std::string& host) { crashed_hosts_.insert(AsciiToLower(host)); }

void World::RestartHost(const std::string& host) { crashed_hosts_.erase(AsciiToLower(host)); }

bool World::HostCrashed(const std::string& host) const {
  return crashed_hosts_.count(AsciiToLower(host)) != 0;
}

void World::Partition(std::set<std::string> group) {
  partition_group_.clear();
  for (const std::string& host : group) {
    partition_group_.insert(AsciiToLower(host));
  }
  partitioned_ = true;
}

void World::HealPartition() {
  partition_group_.clear();
  partitioned_ = false;
}

Result<Bytes> World::RoundTrip(const std::string& from_host, const std::string& to_host,
                               uint16_t port, const Bytes& request) {
  if (!network_.HasHost(from_host)) {
    return NotFoundError("unknown source host: " + from_host);
  }
  if (!network_.HasHost(to_host)) {
    return NotFoundError("unknown destination host: " + to_host);
  }
  std::string key = EndpointKey(to_host, port);
  auto it = services_.find(key);
  if (it == services_.end()) {
    return UnavailableError("no service listening at " + key);
  }

  bool same_host = EqualsIgnoreCase(from_host, to_host);

  // Chaos controls. A crashed destination refuses everything (the service
  // registration survives for the restart). A partition cut times the
  // exchange out: the request bytes leave and vanish, so the one-way cost
  // is still charged to the clock.
  if (crashed_hosts_.count(AsciiToLower(to_host)) != 0) {
    return UnavailableError("host crashed (injected): " + AsciiToLower(to_host));
  }
  if (partitioned_ && !same_host &&
      (partition_group_.count(AsciiToLower(from_host)) != 0) !=
          (partition_group_.count(AsciiToLower(to_host)) != 0)) {
    clock_.AdvanceMs(kCosts.NetRttMs(false, request.size(), 0) / 2);
    return TimeoutError("network partition (injected): " + AsciiToLower(from_host) +
                        " cannot reach " + AsciiToLower(to_host));
  }

  // Request propagation + server processing (the service charges its own CPU
  // and disk costs while handling the message) + response propagation. The
  // whole round trip including per-byte costs is charged once, after the
  // response size is known; the exchange is synchronous so only the total
  // matters.
  Result<Bytes> response = it->second->HandleMessage(request);
  size_t response_bytes = response.ok() ? response.value().size() : 0;
  clock_.AdvanceMs(kCosts.NetRttMs(same_host, request.size(), response_bytes));

  stats_.total_messages += 1;
  stats_.total_bytes += request.size() + response_bytes;
  stats_.messages_per_endpoint[key] += 1;

  return response;
}

}  // namespace hcs
