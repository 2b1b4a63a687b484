// Real-socket perf gate. Re-measures the serving runtime's hot path over
// loopback UDP — a UDP echo floor, the E1-R / E5-R rows from EXPERIMENTS.md
// and the two shapes of the UDP client — and prints one JSON document with
// throughput, latency tails and server-side syscalls per request (from the
// mmsg wrapper counters). Then it checks itself: each floored row's qps
// must be at least `min_ratio` times a comparison row of the same run, and
// no measured call may fail. Any miss exits 1, so every number is checked
// against this machine in this run, never against a floor recorded
// elsewhere. `bench_runner --quick` is the tier-1 `bench_smoke` ctest.
//
// Usage: bench_runner [--quick]
//   --quick  ~10x fewer requests, same floors

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/rpc/mmsg.h"
#include "src/rpc/server.h"
#include "src/workload/driver.h"

namespace hcs {
namespace {

// A same-run floor: this row's qps must be at least `min_ratio` times the
// qps of the row named `vs`.
struct Floor {
  std::string vs;  // empty = no floor (a comparison row)
  double min_ratio = 0;
};

struct ScenarioResult {
  std::string name;
  bool concurrent = true;
  int udp_batch = 0;  // datagrams per serve-loop receive
  int clients = 0;    // calls in flight: threads x window
  int requests = 0;   // nominal total (threads * calls_per_thread)
  SweepPoint point;
  UdpIoSnapshot before;
  UdpIoSnapshot after;
  Floor floor;
  double ratio = 0;  // qps / the `vs` row's qps, set once every row has run
};

// Hosts `server` on one endpoint — `concurrent` loops, one per call in
// flight, or one serial loop — then drives it with `threads` client threads
// making waves of `window` calls (src/workload/driver.h's DriveClients).
// One scenario, one host: the server side of the UdpIoSnapshot delta is
// this scenario's serve-loop syscalls.
ScenarioResult RunScenario(const std::string& name, RpcServer* server, bool concurrent,
                           int threads, int window, int calls_per_thread, Floor floor = {}) {
  UdpServerHost host(/*workers=*/threads * window);
  ScenarioResult result;
  result.name = name;
  result.concurrent = concurrent;
  result.udp_batch =
      concurrent ? UdpServerHost::kConcurrentRecvBatch : UdpServerHost::kSerialRecvBatch;
  std::fprintf(stderr, "  running %-27s batch=%-2d threads=%-2d window=%-2d reqs=%d\n",
               name.c_str(), result.udp_batch, threads, window, threads * calls_per_thread);
  result.clients = threads * window;
  result.requests = threads * calls_per_thread;
  result.floor = std::move(floor);

  Result<uint16_t> port = concurrent ? host.ServeConcurrent(server, 0) : host.Serve(server, 0);
  if (!port.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", port.status().ToString().c_str());
    std::abort();
  }
  // Warm the path (the endpoint's loops, scratch buffers) outside the
  // measured window: twenty waves per thread, or the whole row if shorter.
  // hcs:ignore-status(warmup sweep; the measured run below is what counts)
  (void)DriveClients(*port, threads, window, std::min(calls_per_thread, 20 * window));

  result.before = SnapshotUdpIoCounters();
  result.point = DriveClients(*port, threads, window, calls_per_thread);
  result.after = SnapshotUdpIoCounters();
  host.StopAll();
  return result;
}

void AppendJsonScenario(std::string* out, const ScenarioResult& r, bool last) {
  char buf[512];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out->append(buf);
  };
  add("    {\n");
  add("      \"name\": \"%s\",\n", r.name.c_str());
  add("      \"serve_mode\": \"%s\",\n", r.concurrent ? "concurrent" : "serial");
  add("      \"udp_batch\": %d,\n", r.udp_batch);
  add("      \"clients\": %d,\n", r.clients);
  add("      \"requests\": %d,\n", r.requests);
  add("      \"failed\": %" PRIu64 ",\n", r.point.failed);
  add("      \"qps\": %.1f,\n", r.point.throughput_qps);
  add("      \"p50_us\": %" PRIu64 ",\n", r.point.latency_us.p50);
  add("      \"p99_us\": %" PRIu64 ",\n", r.point.latency_us.p99);

  // Server side only: the serve loops' receive and send syscalls.
  const UdpIoCounts& before = r.before.server;
  const UdpIoCounts& after = r.after.server;
  uint64_t recv_sys = after.recv_syscalls - before.recv_syscalls;
  uint64_t send_sys = after.send_syscalls - before.send_syscalls;
  double n = static_cast<double>(r.requests);
  add("      \"recv_syscalls_per_req\": %.3f,\n", static_cast<double>(recv_sys) / n);
  add("      \"send_syscalls_per_req\": %.3f,\n", static_cast<double>(send_sys) / n);
  add("      \"syscalls_per_req\": %.3f,\n", static_cast<double>(recv_sys + send_sys) / n);
  if (r.floor.vs.empty()) {
    add("      \"floor\": null\n");
  } else {
    add("      \"floor\": {\"vs\": \"%s\", \"min_ratio\": %.2f, \"ratio\": %.2f}\n",
        r.floor.vs.c_str(), r.floor.min_ratio, r.ratio);
  }
  add("    }%s\n", last ? "" : ",");
}

int Main(int argc, char** argv) {
  const bool quick = argc == 2 && std::strcmp(argv[1], "--quick") == 0;
  if (argc != 1 && !quick) {
    std::fprintf(stderr, "usage: bench_runner [--quick]\n");
    return 2;
  }
  int scale = quick ? 10 : 1;

  // Echo floor: the trivial handler makes the serving runtime itself the
  // entire cost — the number batching is supposed to move.
  RpcServer echo(ControlKind::kRaw, "bench-echo");
  echo.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
    return args.ToBytes();
  });

  // E1-R profile: ~1 ms of downstream I/O per request (the warm remote-NSM
  // exchange), as in EXPERIMENTS.md.
  RpcServer e1r(ControlKind::kRaw, "bench-e1r");
  e1r.RegisterProcedure(7, 1, [](BytesView args) -> Result<Bytes> {
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
    return args.ToBytes();
  });

  // E5-R profile: the bimodal E5 mix — 9 in 10 requests ~0.2 ms (cache
  // hit), 1 in 10 ~2 ms (miss).
  std::atomic<uint64_t> sequence{0};
  RpcServer e5r(ControlKind::kRaw, "bench-e5r");
  e5r.RegisterProcedure(7, 1, [&sequence](BytesView args) -> Result<Bytes> {
    uint64_t n = sequence.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(n % 10 == 0 ? std::chrono::microseconds(2000)
                                            : std::chrono::microseconds(200));
    return args.ToBytes();
  });

  // Every floor is a ratio to a comparison row of this run (EXPERIMENTS.md
  // B19 has the runs they were set from):
  // - E1-R and E5-R: one loop per client must clear twice one serial loop,
  //   which caps out near 1/handler-cost, so the serial rows are short;
  // - eight concurrent echo loops against one batched serial loop, and one
  //   thread's CallMany waves of 64 against 64 thread-per-call threads, on
  //   the same serial echo loop: each at least 0.5x. Healthy runs on a
  //   4-core host never read below 0.74x, beside four CPU hogs included;
  //   a CallMany held to one call in flight reads 0.24-0.40x.
  // The client rows are longer (3000 requests per slot) so both sides of
  // their ratio get enough wall-clock to average out scheduler noise.
  std::vector<ScenarioResult> results;
  results.push_back(RunScenario("udp_echo_floor", &echo, /*concurrent=*/true, 8, 1,
                                4000 / scale, {"udp_echo_serial_batched", 0.5}));
  results.push_back(RunScenario("udp_echo_serial_batched", &echo, /*concurrent=*/false, 8, 1,
                                4000 / scale));
  results.push_back(RunScenario("e1r_concurrent", &e1r, /*concurrent=*/true, 64, 1, 400 / scale,
                                {"e1r_serial", 2.0}));
  results.push_back(RunScenario("e1r_serial", &e1r, /*concurrent=*/false, 64, 1, 20 / scale));
  results.push_back(RunScenario("e5r_concurrent", &e5r, /*concurrent=*/true, 64, 1, 600 / scale,
                                {"e5r_serial", 2.0}));
  results.push_back(RunScenario("e5r_serial", &e5r, /*concurrent=*/false, 64, 1, 20 / scale));
  results.push_back(RunScenario("client_thread_per_call_64", &echo, /*concurrent=*/false, 64, 1,
                                3000 / scale));
  results.push_back(RunScenario("client_async_64", &echo, /*concurrent=*/false, 1, 64,
                                64 * 3000 / scale, {"client_thread_per_call_64", 0.5}));

  int misses = 0;
  for (ScenarioResult& r : results) {
    if (r.point.failed != 0) {
      std::fprintf(stderr, "FAIL: %s: %" PRIu64 " of %d calls failed\n", r.name.c_str(),
                   r.point.failed, r.requests);
      ++misses;
    }
    if (r.floor.vs.empty()) {
      continue;
    }
    auto twin = std::find_if(results.begin(), results.end(),
                             [&r](const ScenarioResult& t) { return t.name == r.floor.vs; });
    const double twin_qps = twin->point.throughput_qps;
    r.ratio = twin_qps > 0 ? r.point.throughput_qps / twin_qps : 0;
    if (r.ratio < r.floor.min_ratio) {
      std::fprintf(stderr, "FAIL: %s %.0f qps is %.2fx %s %.0f qps, floor %.2fx\n",
                   r.name.c_str(), r.point.throughput_qps, r.ratio, r.floor.vs.c_str(),
                   twin_qps, r.floor.min_ratio);
      ++misses;
    }
  }

  char environment[96];
  std::snprintf(environment, sizeof(environment), "%u-CPU host, loopback UDP, wall-clock",
                std::thread::hardware_concurrency());
  std::string json;
  json.append("{\n");
  json.append("  \"environment\": \"" + std::string(environment) + "\",\n");
  json.append("  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    AppendJsonScenario(&json, results[i], i + 1 == results.size());
  }
  json.append("  ]\n}\n");
  std::fputs(json.c_str(), stdout);
  return misses == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hcs

int main(int argc, char** argv) { return hcs::Main(argc, argv); }
