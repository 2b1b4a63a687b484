// Real-socket perf gate. Re-measures the serving runtime's hot path over
// loopback UDP — a UDP echo floor, the E1-R / E5-R rows from EXPERIMENTS.md
// and the UDP client's CallMany batch — and prints one JSON document with
// throughput, latency tails and server-side syscalls per request (from the
// mmsg wrapper counters). Then it checks itself: each floored row must
// clear its ratios (qps, or requests per serve-loop receive) against
// comparison rows of the same run, and no measured call may fail. Any miss
// exits 1, so every number is checked against this machine in this run,
// never against a floor recorded elsewhere. `bench_runner --quick` is the
// tier-1 `bench_smoke` ctest.
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

// A same-run floor: a ratio between this row and the row named `vs` must
// be at least `min_ratio`. kQps divides this row's qps by vs's.
// kReceivesSaved divides vs's serve-loop receive syscalls per request by
// this row's: a receive takes several requests only when the client keeps
// several calls in flight together, and the ratio is a count the
// scheduler's thread placement does not move.
struct Floor {
  enum class Measure { kQps, kReceivesSaved };
  std::string vs;
  double min_ratio = 0;
  Measure measure = Measure::kQps;
  double ratio = 0;  // set once every row has run
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
  std::vector<Floor> floors;
};

// The serve loops' receive syscalls per request in `r`'s measured window.
double ReceivesPerRequest(const ScenarioResult& r) {
  return static_cast<double>(r.after.server.recv_syscalls - r.before.server.recv_syscalls) /
         static_cast<double>(r.requests);
}

// Hosts `server` on one endpoint — `concurrent` loops, one per call in
// flight, or one serial loop — then drives it with `threads` client threads
// making waves of `window` calls (src/workload/driver.h's DriveClients).
// One scenario, one host: the server side of the UdpIoSnapshot delta is
// this scenario's serve-loop syscalls.
ScenarioResult RunScenario(const std::string& name, RpcServer* server, bool concurrent,
                           int threads, int window, int calls_per_thread,
                           std::vector<Floor> floors = {}) {
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
  result.floors = std::move(floors);

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
  double recv = ReceivesPerRequest(r);
  double send = static_cast<double>(r.after.server.send_syscalls -
                                    r.before.server.send_syscalls) /
                static_cast<double>(r.requests);
  add("      \"recv_syscalls_per_req\": %.3f,\n", recv);
  add("      \"send_syscalls_per_req\": %.3f,\n", send);
  add("      \"syscalls_per_req\": %.3f,\n", recv + send);
  add("      \"floors\": [");
  for (size_t i = 0; i < r.floors.size(); ++i) {
    const Floor& f = r.floors[i];
    add("%s{\"vs\": \"%s\", \"measure\": \"%s\", \"min_ratio\": %.2f, \"ratio\": %.2f}",
        i == 0 ? "" : ", ", f.vs.c_str(),
        f.measure == Floor::Measure::kQps ? "qps" : "receives_saved", f.min_ratio, f.ratio);
  }
  add("]\n");
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
  // B19 and B20 have the runs they were set from):
  // - E1-R and E5-R: one loop per client must clear twice one serial loop,
  //   which caps out near 1/handler-cost, so the serial rows are short;
  // - eight concurrent echo loops against one batched serial loop: at
  //   least 0.5x. Healthy runs on a 4-core host never read below 0.74x,
  //   beside four CPU hogs included;
  // - one thread's CallMany waves of 64, on the same serial echo loop: at
  //   least 0.5x the qps of 64 thread-per-call threads, and at least 2x
  //   fewer serve-loop receives per request than one thread's calls made
  //   one at a time (which take exactly one each). Healthy runs read
  //   0.70-2.10x and 4.2-12.8x; a CallMany held to one call in flight reads
  //   0.20-0.51x and exactly 1x: the receive count catches it in every run,
  //   the throughput ratio does not.
  // The client rows are longer (3000 requests per slot) so both sides of
  // the throughput ratio get enough wall-clock to average out scheduler
  // noise.
  std::vector<ScenarioResult> results;
  results.push_back(RunScenario("udp_echo_floor", &echo, /*concurrent=*/true, 8, 1,
                                4000 / scale, {{"udp_echo_serial_batched", 0.5}}));
  results.push_back(RunScenario("udp_echo_serial_batched", &echo, /*concurrent=*/false, 8, 1,
                                4000 / scale));
  results.push_back(RunScenario("e1r_concurrent", &e1r, /*concurrent=*/true, 64, 1, 400 / scale,
                                {{"e1r_serial", 2.0}}));
  results.push_back(RunScenario("e1r_serial", &e1r, /*concurrent=*/false, 64, 1, 20 / scale));
  results.push_back(RunScenario("e5r_concurrent", &e5r, /*concurrent=*/true, 64, 1, 600 / scale,
                                {{"e5r_serial", 2.0}}));
  results.push_back(RunScenario("e5r_serial", &e5r, /*concurrent=*/false, 64, 1, 20 / scale));
  results.push_back(RunScenario("client_thread_per_call_64", &echo, /*concurrent=*/false, 64, 1,
                                3000 / scale));
  results.push_back(RunScenario("client_serial_calls", &echo, /*concurrent=*/false, 1, 1,
                                3000 / scale));
  results.push_back(RunScenario(
      "client_async_64", &echo, /*concurrent=*/false, 1, 64, 64 * 3000 / scale,
      {{"client_thread_per_call_64", 0.5},
       {"client_serial_calls", 2.0, Floor::Measure::kReceivesSaved}}));

  int misses = 0;
  for (ScenarioResult& r : results) {
    if (r.point.failed != 0) {
      std::fprintf(stderr, "FAIL: %s: %" PRIu64 " of %d calls failed\n", r.name.c_str(),
                   r.point.failed, r.requests);
      ++misses;
    }
    for (Floor& floor : r.floors) {
      auto twin = std::find_if(results.begin(), results.end(),
                               [&floor](const ScenarioResult& t) { return t.name == floor.vs; });
      double mine = r.point.throughput_qps;
      double theirs = twin->point.throughput_qps;
      const char* unit = "qps";
      if (floor.measure == Floor::Measure::kReceivesSaved) {
        // Requests per receive: the inverse of receives per request.
        mine = 1.0 / ReceivesPerRequest(r);
        theirs = 1.0 / ReceivesPerRequest(*twin);
        unit = "requests per serve-loop receive";
      }
      floor.ratio = theirs > 0 ? mine / theirs : 0;
      if (floor.ratio < floor.min_ratio) {
        std::fprintf(stderr, "FAIL: %s %.2f %s is %.2fx %s %.2f, floor %.2fx\n", r.name.c_str(),
                     mine, unit, floor.ratio, floor.vs.c_str(), theirs, floor.min_ratio);
        ++misses;
      }
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
