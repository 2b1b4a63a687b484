// The real-socket client drivers shared by the runtime benches and the
// workload scenario suite (hoisted from bench/bench_reactor_util.h so the
// two no longer drift): a thread-per-call closed loop and its single-thread
// counterpart, which issues waves of calls as CallMany batches. Unlike the
// sim-clock engine in engine.h, these numbers are wall-clock — the point is
// the serving and client runtimes, not the name-service model.

#ifndef HCS_SRC_WORKLOAD_DRIVER_H_
#define HCS_SRC_WORKLOAD_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/rpc/udp_transport.h"

namespace hcs {

struct SweepPoint {
  int clients = 0;
  double throughput_qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
};

// Drives `requests_per_client` sequential budgeted calls from each of
// `clients` threads against the served endpoint and reports aggregate
// throughput plus the latency distribution tails. Every call carries a
// RequestContext deadline so the per-attempt retry loop is live; the
// attempt/retry totals from RpcCallInfo are surfaced in the row.
inline HrpcBinding SweepBinding(uint16_t port) {
  HrpcBinding binding;
  binding.service_name = "runtime-sweep";
  binding.host = "localhost";
  binding.port = port;
  binding.program = 7;
  binding.version = 2;
  binding.control = ControlKind::kRaw;
  binding.transport = TransportKind::kUdp;
  return binding;
}

inline SweepPoint DriveClients(uint16_t port, int clients, int requests_per_client) {
  HrpcBinding binding = SweepBinding(port);
  const Bytes payload{1, 2, 3, 4};

  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<int> failures{0};

  auto start = std::chrono::steady_clock::now();
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      UdpTransport transport(/*timeout_ms=*/2000);
      RpcClient client(/*world=*/nullptr, "benchclient", &transport);
      latencies[c].reserve(requests_per_client);
      for (int i = 0; i < requests_per_client; ++i) {
        RpcCallInfo info;
        auto t0 = std::chrono::steady_clock::now();
        Result<Bytes> reply = client.Call(binding, 1, payload,
                                          RequestContext::WithTimeout(5000), &info);
        auto t1 = std::chrono::steady_clock::now();
        if (!reply.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        latencies[c].push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
        attempts.fetch_add(info.attempts, std::memory_order_relaxed);
        retries.fetch_add(info.retries, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  double elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                         .count();

  std::vector<double> all;
  for (const std::vector<double>& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());

  SweepPoint point;
  point.clients = clients;
  if (!all.empty() && elapsed_s > 0) {
    point.throughput_qps = static_cast<double>(all.size()) / elapsed_s;
    point.p50_ms = all[all.size() / 2];
    point.p99_ms = all[std::min(all.size() - 1, (all.size() * 99) / 100)];
  }
  point.attempts = attempts.load(std::memory_order_relaxed);
  point.retries = retries.load(std::memory_order_relaxed);
  if (failures.load(std::memory_order_relaxed) != 0) {
    std::printf("  WARNING: %d calls failed at %d clients\n",
                failures.load(std::memory_order_relaxed), clients);
  }
  return point;
}

// The single-thread counterpart of DriveClients: ONE client on ONE thread
// issues `total_requests` calls as CallMany waves of `window` calls each,
// so about `window` calls are in flight at a time without a thread per
// call. Every call of a wave returns with the wave, so each one's latency
// is its wave's. `clients` in the returned point is the window, so rows
// line up with a thread-per-call sweep at the same concurrency.
inline SweepPoint DriveClientsMany(uint16_t port, int window, int total_requests) {
  const HrpcBinding binding = SweepBinding(port);
  const Bytes payload{1, 2, 3, 4};
  UdpTransport transport(/*timeout_ms=*/2000);
  RpcClient client(/*world=*/nullptr, "benchclient", &transport);

  std::vector<double> all;
  all.reserve(total_requests);
  uint64_t attempts = 0;
  uint64_t retries = 0;
  int failures = 0;
  std::vector<RpcClient::Request> wave;
  std::vector<RpcCallInfo> infos;
  auto start = std::chrono::steady_clock::now();
  for (int issued = 0; issued < total_requests;) {
    const int size = std::min(window, total_requests - issued);
    wave.clear();
    for (int i = 0; i < size; ++i) {
      wave.push_back(RpcClient::Request{binding, 1, payload, RequestContext::WithTimeout(5000)});
    }
    auto t0 = std::chrono::steady_clock::now();
    std::vector<Result<Bytes>> replies = client.CallMany(wave, &infos);
    const double wave_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    for (int i = 0; i < size; ++i) {
      if (replies[i].ok()) {
        all.push_back(wave_ms);
      } else {
        ++failures;
      }
      attempts += infos[i].attempts;
      retries += infos[i].retries;
    }
    issued += size;
  }
  double elapsed_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                         .count();

  std::sort(all.begin(), all.end());
  SweepPoint point;
  point.clients = window;
  if (!all.empty() && elapsed_s > 0) {
    point.throughput_qps = static_cast<double>(all.size()) / elapsed_s;
    point.p50_ms = all[all.size() / 2];
    point.p99_ms = all[std::min(all.size() - 1, (all.size() * 99) / 100)];
  }
  point.attempts = attempts;
  point.retries = retries;
  if (failures != 0) {
    std::printf("  WARNING: %d batched calls failed at window %d\n", failures, window);
  }
  return point;
}

}  // namespace hcs

#endif  // HCS_SRC_WORKLOAD_DRIVER_H_
