// The real-socket client driver behind bench_runner's rows and the
// workload scenario suite: client threads making budgeted calls against
// one served endpoint, one at a time or in CallMany waves. Unlike the
// sim-clock engine in engine.h, these numbers are wall-clock — the point is
// the serving and client runtimes, not the name-service model.

#ifndef HCS_SRC_WORKLOAD_DRIVER_H_
#define HCS_SRC_WORKLOAD_DRIVER_H_

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "src/rpc/client.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"
#include "src/rpc/udp_transport.h"
#include "src/workload/distributions.h"

namespace hcs {

struct SweepPoint {
  int clients = 0;            // calls in flight: threads x window
  double throughput_qps = 0;  // calls that succeeded, per second
  Percentiles latency_us;     // whole us, over the calls that succeeded
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t failed = 0;  // calls that returned an error
};

// Drives `threads` client threads, each with its own client and socket,
// against the endpoint on `port`, and reports aggregate throughput, the
// latency tails, and the attempt/retry/failure totals. Each thread makes
// `calls_per_thread` calls in waves of `window`: a wave of one is a plain
// Call (the thread-per-call shape), a larger wave is one CallMany whose
// calls all return with the wave, so each one's latency is its wave's.
// Every call carries a RequestContext deadline, so the per-attempt retry
// loop is live.
inline SweepPoint DriveClients(uint16_t port, int threads, int window, int calls_per_thread) {
  HrpcBinding binding;
  binding.service_name = "runtime-sweep";
  binding.host = "localhost";
  binding.port = port;
  binding.program = 7;
  binding.version = 2;
  binding.control = ControlKind::kRaw;
  binding.transport = TransportKind::kUdp;
  const Bytes payload{1, 2, 3, 4};
  struct PerThread {
    LatencyCounts latencies_us;
    uint64_t attempts = 0;
    uint64_t retries = 0;
    uint64_t failed = 0;
  };
  std::vector<PerThread> per_thread(static_cast<size_t>(threads));

  auto drive = [&](PerThread* out) {
    UdpTransport transport(/*timeout_ms=*/2000);
    RpcClient client(/*world=*/nullptr, "benchclient", &transport);
    auto since_us = [](std::chrono::steady_clock::time_point t0) {
      return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                       std::chrono::steady_clock::now() - t0)
                                       .count());
    };
    auto tally = [out](bool ok, const RpcCallInfo& info, uint64_t us) {
      if (ok) {
        ++out->latencies_us[us];
      } else {
        ++out->failed;
      }
      out->attempts += info.attempts;
      out->retries += info.retries;
    };
    std::vector<RpcClient::Request> wave;
    std::vector<RpcCallInfo> infos;
    for (int issued = 0; issued < calls_per_thread;) {
      const int size = std::min(window, calls_per_thread - issued);
      const auto t0 = std::chrono::steady_clock::now();
      if (size == 1) {
        RpcCallInfo info;
        const bool ok =
            client.Call(binding, 1, payload, RequestContext::WithTimeout(5000), &info).ok();
        tally(ok, info, since_us(t0));
      } else {
        wave.clear();
        for (int i = 0; i < size; ++i) {
          wave.push_back(
              RpcClient::Request{binding, 1, payload, RequestContext::WithTimeout(5000)});
        }
        std::vector<Result<Bytes>> replies = client.CallMany(wave, &infos);
        const uint64_t wave_us = since_us(t0);
        for (int i = 0; i < size; ++i) {
          tally(replies[i].ok(), infos[i], wave_us);
        }
      }
      issued += size;
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(per_thread.size());
  for (PerThread& slot : per_thread) {
    workers.emplace_back(drive, &slot);
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  SweepPoint point;
  point.clients = threads * window;
  LatencyCounts all;
  uint64_t succeeded = 0;
  for (const PerThread& t : per_thread) {
    for (const auto& [us, count] : t.latencies_us) {
      all[us] += count;
      succeeded += count;
    }
    point.attempts += t.attempts;
    point.retries += t.retries;
    point.failed += t.failed;
  }
  if (elapsed_s > 0) {
    point.throughput_qps = static_cast<double>(succeeded) / elapsed_s;
  }
  point.latency_us = ComputePercentiles(all);
  return point;
}

}  // namespace hcs

#endif  // HCS_SRC_WORKLOAD_DRIVER_H_
