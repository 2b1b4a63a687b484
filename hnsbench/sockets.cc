// The two real-socket workloads, resolve_warm and evolve_churn.
//
// Table 3.1 row 4, [NSMs] [Client, HNS], in one process over loopback UDP:
// the HNS library is linked into the client; the meta-store BIND and the
// eight non-HostAddress testbed NSMs are served endpoints, each from its
// own Testbed (a World is single-threaded, and every endpoint runs on its
// own serving thread). The HostAddress NSMs are linked into the client as
// fixed-table NSMs, which bounds the FindNSM recursion without a World.
// Only row 4 can run on ephemeral ports: the remote-HNS and agent bindings
// are fixed at ports 700 and 730.
//
// Load is closed-loop from kThreads client threads, one Query in flight per
// thread, because HNS clients wait for each answer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "src/common/strings.h"
#include "src/common/sync.h"
#include "src/hns/session.h"
#include "src/hns/wire_protocol.h"
#include "src/rpc/async_client.h"
#include "src/rpc/context.h"
#include "src/rpc/udp_transport.h"
#include "src/testbed/testbed.h"

namespace hnsbench {
namespace {

using hcs::HnsName;
using hcs::Result;
using hcs::Status;
using hcs::WireValue;

constexpr int kThreads = 2;
constexpr int kContexts = 64;
constexpr double kZipfS = 1.1;
// evolve_churn: every kRegisterEvery-th operation of thread 0 registers.
constexpr uint64_t kRegisterEvery = 25;
constexpr int kWarmupQueriesPerThread = 2000;
// peak_rss_mb is read once this many operations of the window have ended:
// resident memory grows with every query answered, so the reading must come
// at a fixed amount of work, and this many fit in the slowest runs seen.
// The set-ups timed between slices start only after it, so that the memory
// they leave behind stays out of the reading.
constexpr uint64_t kRssAfterOps = 100'000;
constexpr uint32_t kLoopback = 0x7f000001;
// The host-speed reference (harness.h): round trips per sample, and the
// nominal round-trip time gated times are scaled to, about the median on
// the machine the bounds were set on.
constexpr int kReferenceTrips = 200;
constexpr double kNominalRoundTripNs = 25'000;

// The served NSMs (every testbed NSM except the two HostAddress ones) and,
// first, the four the query mix reaches.
const char* const kServedNsms[] = {
    hcs::kNsmBindingBind, hcs::kNsmMailboxBind, hcs::kNsmBindingCh,   hcs::kNsmMailboxCh,
    hcs::kNsmFileBind,    hcs::kNsmFileCh,      hcs::kNsmHostNameBind, hcs::kNsmHostNameCh,
};
constexpr int kMixNsms = 4;

// A linked HostAddress NSM answering from a fixed table (every host is on
// loopback).
class FixedAddressNsm : public hcs::Nsm {
 public:
  explicit FixedAddressNsm(hcs::NsmInfo info) : info_(std::move(info)) {}
  const hcs::NsmInfo& info() const override { return info_; }
  Result<WireValue> Query(const HnsName& name, const WireValue&) override {
    return hcs::RecordBuilder().U32("address", kLoopback).Str("host", name.individual).Build();
  }

 private:
  hcs::NsmInfo info_;
};

struct Pair {
  HnsName name;
  hcs::QueryClass query_class;
  WireValue args;
  WireValue expected;  // the checked first answer
};

struct SetupPhases {
  double testbeds_s = 0;
  double serve_s = 0;
  double session_s = 0;
  double register_s = 0;
  double resolve_s = 0;
  double Total() const { return testbeds_s + serve_s + session_s + register_s + resolve_s; }
};

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// Checks one answer against what the testbed registered.
Status CheckAnswer(const Pair& pair, const WireValue& answer, hcs::Testbed& bed) {
  bool bind = hcs::EndsWith(pair.name.context, "b");
  if (pair.query_class == hcs::kQueryClassHrpcBinding) {
    HCS_ASSIGN_OR_RETURN(hcs::HrpcBinding binding, hcs::HrpcBinding::FromWire(answer));
    const char* host = bind ? hcs::kSunServerHost : hcs::kXeroxServerHost;
    HCS_ASSIGN_OR_RETURN(hcs::HostInfo info, bed.world().network().GetHost(host));
    uint32_t program = bind ? hcs::kDesiredServiceProgram : hcs::kPrintServiceProgram;
    uint16_t port = bind ? hcs::kDesiredServicePort : hcs::kPrintServicePort;
    if (binding.program != program || binding.port != port || binding.address != info.address ||
        !hcs::EqualsIgnoreCase(binding.service_name,
                               bind ? hcs::kDesiredService : hcs::kPrintService)) {
      return hcs::InternalError("wrong HRPCBinding answer for " + pair.name.context);
    }
    return Status::Ok();
  }
  HCS_ASSIGN_OR_RETURN(std::string mail_host, answer.StringField("mail_host"));
  if (mail_host != (bind ? "june.cs.washington.edu" : hcs::kChServerHost)) {
    return hcs::InternalError("wrong MailboxInfo answer for " + pair.name.context);
  }
  return Status::Ok();
}

// One built row-4 topology. Member order is teardown order, reversed: the
// serving host stops before the services it serves are destroyed, and the
// session goes before the transport it calls through.
class Topology {
 public:
  // Builds the topology, registers the contexts and NSMs, and resolves
  // every pair once (cold), checking each answer.
  static std::unique_ptr<Topology> Build(bool traced, SetupPhases* phases, std::string* error);

  hcs::HnsSession& session() { return *session_; }
  hcs::Hns& hns() { return *session_->local_hns(); }
  const std::vector<Pair>& pairs() const { return pairs_; }
  const std::vector<hcs::NsmInfo>& served() const { return served_; }
  // Indices of the pairs that resolve to served NSM `nsm`.
  std::vector<size_t> pairs_of(size_t nsm) const {
    std::vector<size_t> out;
    for (size_t i = 0; i < pairs_.size(); ++i) {
      bool bind = hcs::EndsWith(pairs_[i].name.context, "b");
      if (served_[nsm].ns_name == (bind ? hcs::kNsBind : hcs::kNsCh) &&
          served_[nsm].query_class == pairs_[i].query_class) {
        out.push_back(i);
      }
    }
    return out;
  }
  std::vector<hcs::HnsCache*> nsm_caches() const { return nsm_caches_; }
  uint64_t server_drops() const {
    uint64_t total = 0;
    for (const auto& [port, dropped] : host_.dropped_by_endpoint()) {
      total += dropped;
    }
    return total;
  }
  const TracedService* meta_service() const { return meta_service_; }

 private:
  Status BuildImpl(bool traced, SetupPhases* phases);

  std::vector<std::unique_ptr<hcs::Testbed>> beds_;
  std::vector<std::unique_ptr<hcs::SimService>> decorators_;
  const TracedService* meta_service_ = nullptr;
  std::vector<hcs::HnsCache*> nsm_caches_;
  std::vector<hcs::NsmInfo> served_;
  hcs::UdpServerHost host_;
  hcs::UdpTransport transport_;
  std::unique_ptr<hcs::HnsSession> session_;
  std::vector<Pair> pairs_;
};

std::unique_ptr<Topology> Topology::Build(bool traced, SetupPhases* phases, std::string* error) {
  auto topology = std::unique_ptr<Topology>(new Topology);
  Status status = topology->BuildImpl(traced, phases);
  if (!status.ok()) {
    *error = status.ToString();
    return nullptr;
  }
  return topology;
}

Status Topology::BuildImpl(bool traced, SetupPhases* phases) {
  hcs::TestbedOptions bed_options;
  bed_options.install_remote_servers = false;

  int64_t t = NowNs();
  for (size_t i = 0; i < 1 + std::size(kServedNsms); ++i) {
    beds_.push_back(std::make_unique<hcs::Testbed>(bed_options));
  }
  phases->testbeds_s = SecondsSince(t);

  t = NowNs();
  auto serve = [&](hcs::RpcServer* server, const char* span_name) -> Result<uint16_t> {
    hcs::SimService* service = server;
    if (traced) {
      auto decorator = std::make_unique<TracedService>(server, span_name);
      service = decorator.get();
      if (std::string(span_name) == "rpc.serve_meta") {
        meta_service_ = decorator.get();
      }
      decorators_.push_back(std::move(decorator));
    }
    return host_.Serve(service, 0);
  };
  hcs::Testbed& meta_bed = *beds_[0];
  HCS_ASSIGN_OR_RETURN(uint16_t meta_port, serve(meta_bed.meta_bind()->rpc(), "rpc.serve_meta"));
  for (size_t i = 0; i < std::size(kServedNsms); ++i) {
    hcs::Testbed& bed = *beds_[i + 1];
    std::shared_ptr<hcs::Nsm> nsm;
    for (std::shared_ptr<hcs::Nsm>& candidate : bed.MakeLinkedNsms(hcs::kNsmServerHost)) {
      if (candidate->info().nsm_name == kServedNsms[i]) {
        nsm = std::move(candidate);
      }
    }
    if (nsm == nullptr) {
      return hcs::NotFoundError(std::string("testbed has no NSM ") + kServedNsms[i]);
    }
    if (traced) {
      nsm = std::make_shared<TracedNsm>(std::move(nsm));
    }
    nsm_caches_.push_back(nsm->cache());
    hcs::NsmInfo info = nsm->info();
    HCS_ASSIGN_OR_RETURN(hcs::NsmServer * server, hcs::NsmServer::InstallOn(&bed.world(), nsm));
    HCS_ASSIGN_OR_RETURN(info.port, serve(server->rpc(), "rpc.serve_nsm"));
    served_.push_back(info);
  }
  phases->serve_s = SecondsSince(t);

  t = NowNs();
  hcs::SessionOptions options;
  options.hns_location = hcs::HnsLocation::kLinked;
  options.nsm_location = hcs::NsmLocation::kLinked;  // only HostAddress is linked
  options.hns.meta_server_host = hcs::kMetaBindHost;
  options.hns.composite_cache = true;
  session_ = std::make_unique<hcs::HnsSession>(nullptr, hcs::kClientHost, &transport_, options);
  hns().meta().set_meta_port(meta_port);
  for (const hcs::NsmInfo& info : {meta_bed.HostAddrBindInfo(), meta_bed.HostAddrChInfo()}) {
    HCS_RETURN_IF_ERROR(session_->LinkNsm(std::make_shared<FixedAddressNsm>(info)));
  }
  phases->session_s = SecondsSince(t);

  // Synthetic contexts alternate between the two name services; a "b"
  // suffix marks the UW-BIND ones.
  t = NowNs();
  for (int i = 0; i < kContexts; ++i) {
    bool bind = i % 2 == 0;
    std::string context = hcs::StrFormat("ctx-%02d%s", i, bind ? "b" : "c");
    HCS_RETURN_IF_ERROR(hns().RegisterContext(context, bind ? hcs::kNsBind : hcs::kNsCh));
    for (const char* query_class : {hcs::kQueryClassHrpcBinding, hcs::kQueryClassMailboxInfo}) {
      Pair pair;
      pair.name.context = context;
      pair.query_class = query_class;
      if (query_class == std::string(hcs::kQueryClassHrpcBinding)) {
        pair.name.individual = bind ? hcs::kSunServerHost : hcs::kXeroxServerHost;
        pair.args = hcs::RecordBuilder()
                        .Str("service", bind ? hcs::kDesiredService : hcs::kPrintService)
                        .Build();
      } else {
        pair.name.individual = bind ? "cs.washington.edu" : "Purcell:CSL:Xerox";
        pair.args = hcs::RecordBuilder().Build();
      }
      pairs_.push_back(std::move(pair));
    }
  }
  for (const hcs::NsmInfo& info : served_) {
    HCS_RETURN_IF_ERROR(hns().RegisterNsm(info));
  }
  phases->register_s = SecondsSince(t);

  t = NowNs();
  for (Pair& pair : pairs_) {
    HCS_ASSIGN_OR_RETURN(WireValue answer,
                         session_->Query(pair.name, pair.query_class, pair.args));
    HCS_RETURN_IF_ERROR(CheckAnswer(pair, answer, meta_bed));
    pair.expected = std::move(answer);
  }
  phases->resolve_s = SecondsSince(t);
  return Status::Ok();
}

// The measured window is cut into equal slices of about kSliceSeconds. An
// operation is one Query or, on evolve_churn, one RegisterNsm together with
// the re-resolution it forces. op_latency_us is the lower quartile of the
// slice means: a contended spell on the machine slows the slices it covers,
// the calmer slices still report what the code costs, and a mean counts the
// ~2% of operations that register at their full cost.
constexpr double kSliceSeconds = 1.0;

// Per-thread tallies; merged after the threads join.
struct ThreadStats {
  Histogram query;
  Histogram reg;  // RegisterNsm plus its re-resolution
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t registers = 0;
  uint64_t refreshes = 0;  // FindNSMs re-resolving what a registration invalidated
  uint64_t register_failed = 0;
};

// One client thread's state, kept across the slices of a window.
struct Client {
  explicit Client(uint64_t seed) : rng(seed) {}
  SplitMix rng;
  uint64_t trace_counter = 0;
  uint64_t ops = 0;  // measured operations, for the registration cadence
  size_t next_nsm = 0;
  ThreadStats stats;
  // Operations of the current slice.
  uint64_t slice_ops = 0;
  int64_t slice_ns = 0;
};

// Query's remote-NSM path made from outside through the same public calls
// (FindNsm, NsmQueryRequest::Encode, RpcClient::Call, WireValue::Decode),
// one span per call, all under the request's trace id.
Result<WireValue> TracedQuery(hcs::HnsSession& session, const Pair& pair,
                              const hcs::RequestContext& context) {
  ScopedSpan root("query", context.trace_id);
  Result<hcs::NsmHandle> handle = hcs::InternalError("unset");
  {
    ScopedSpan span("hns.find_nsm", context.trace_id);
    handle = session.FindNsm(pair.name, pair.query_class, context);
  }
  if (!handle.ok()) {
    return handle.status();
  }
  if (handle->is_linked()) {
    return hcs::InternalError("query mix resolved to a linked NSM");
  }
  hcs::Bytes body;
  {
    ScopedSpan span("wire.encode", context.trace_id);
    hcs::NsmQueryRequest request;
    request.name = pair.name;
    request.args = pair.args;
    body = request.Encode();
  }
  Result<hcs::Bytes> reply = hcs::InternalError("unset");
  {
    ScopedSpan span("rpc.call", context.trace_id);
    reply = session.rpc_client().Call(handle->binding, hcs::kNsmProcQuery, body, context);
  }
  if (!reply.ok()) {
    return reply.status();
  }
  ScopedSpan span("wire.decode", context.trace_id);
  return WireValue::Decode(*reply);
}

struct Phase {
  double elapsed_s = 0;  // measured time, the slices added up
  ThreadStats total;
  // The process's peak RSS once kRssAfterOps operations of the window have
  // ended (or at its end, if fewer did).
  double rss_mb = 0;
  std::vector<double> slice_mean_us;
};

// Runs the closed loop on `topology` for `seconds` after a short warm-up,
// in slices of `slice_seconds`. The client threads end with each slice.
// Once peak RSS has been read, `between` (if set) runs after every slice
// but the last, while no client thread runs, outside the measured time.
Phase Measure(Topology& topology, const RunConfig& config, bool churn, bool traced,
              double seconds, double slice_seconds, const std::function<void()>& between) {
  const std::vector<Pair>& pairs = topology.pairs();
  Zipf zipf(static_cast<uint32_t>(pairs.size()), kZipfS);
  std::vector<Client> clients;
  for (int thread = 0; thread < kThreads; ++thread) {
    clients.emplace_back(config.seed * 1000003 + static_cast<uint64_t>(thread) + 1);
    clients.back().next_nsm = config.seed % kMixNsms;
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> wrong{false};
  std::atomic<uint64_t> ops_ended{0};
  double rss_mb = 0;  // written by the thread that ends operation kRssAfterOps

  auto next_context = [&](Client& client, int thread) {
    hcs::RequestContext context;
    if (traced) {
      context.trace_id = (static_cast<uint64_t>(thread + 1) << 40) | ++client.trace_counter;
    }
    return context;
  };
  auto one_query = [&](Client& client, int thread, bool record) {
    ThreadStats& mine = client.stats;
    const Pair& pair = pairs[zipf.Draw(client.rng)];
    hcs::RequestContext context = next_context(client, thread);
    int64_t start = NowNs();
    Result<WireValue> answer =
        traced ? TracedQuery(topology.session(), pair, context)
               : topology.session().Query(pair.name, pair.query_class, pair.args);
    int64_t ns = NowNs() - start;
    ++mine.queries;
    if (record) {
      mine.query.Record(ns);
      ++client.slice_ops;
      client.slice_ns += ns;
    }
    if (!answer.ok()) {
      if (++mine.failed <= 3) {
        std::fprintf(stderr, "query (%s, %s) failed: %s\n", pair.name.context.c_str(),
                     pair.query_class.c_str(), answer.status().ToString().c_str());
      }
    } else if (!(*answer == pair.expected)) {
      ++mine.wrong;
      std::fprintf(stderr, "wrong answer for (%s, %s)\n", pair.name.context.c_str(),
                   pair.query_class.c_str());
      wrong.store(true);
    }
  };
  // One RegisterNsm, then a re-resolution of every pair it invalidated
  // before the next one starts, timed together as one operation.
  // RegisterNsm rewrites its records delete-then-add, so a FindNSM that
  // re-reads them mid-rewrite sees them missing or torn; with every entry
  // fresh, no reader needs them during a rewrite.
  auto one_register = [&](Client& client, int thread) {
    ThreadStats& mine = client.stats;
    size_t nsm = client.next_nsm++ % kMixNsms;
    const hcs::NsmInfo& info = topology.served()[nsm];
    hcs::RequestContext context = next_context(client, thread);
    int64_t start = NowNs();
    Status status;
    if (traced) {
      hcs::ScopedRequestContext scope(context);
      ScopedSpan span("hns.register", context.trace_id);
      status = topology.hns().RegisterNsm(info);
    } else {
      status = topology.hns().RegisterNsm(info);
    }
    ++mine.registers;
    if (!status.ok()) {
      ++mine.register_failed;
    }
    {
      std::optional<ScopedSpan> span;
      if (traced) {
        span.emplace("hns.reresolve", context.trace_id);
      }
      for (size_t index : topology.pairs_of(nsm)) {
        const Pair& pair = pairs[index];
        ++mine.refreshes;
        if (!topology.session().FindNsm(pair.name, pair.query_class, context).ok()) {
          ++mine.register_failed;
        }
      }
    }
    int64_t ns = NowNs() - start;
    mine.reg.Record(ns);
    ++client.slice_ops;
    client.slice_ns += ns;
  };
  // Runs `body` on every client thread, and `wait` on this one until they
  // are joined.
  auto run_threads = [&](const std::function<void(Client&, int)>& body,
                         const std::function<void()>& wait) {
    std::vector<std::thread> threads;
    for (int thread = 0; thread < kThreads; ++thread) {
      threads.emplace_back([&, thread] { body(clients[thread], thread); });
    }
    if (wait) {
      wait();
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  };

  run_threads(
      [&](Client& client, int thread) {
        for (int i = 0; i < kWarmupQueriesPerThread; ++i) {
          one_query(client, thread, /*record=*/false);
        }
      },
      nullptr);

  Phase phase;
  int slices = std::max(1, static_cast<int>(std::lround(seconds / slice_seconds)));
  int64_t slice_ns = static_cast<int64_t>(seconds * 1e9) / slices;
  for (int i = 0; i < slices && !wrong.load(); ++i) {
    stop.store(false);
    int64_t start = NowNs();
    run_threads(
        [&](Client& client, int thread) {
          while (!stop.load(std::memory_order_relaxed)) {
            if (churn && thread == 0 && ++client.ops % kRegisterEvery == 0) {
              one_register(client, thread);
            } else {
              one_query(client, thread, /*record=*/true);
            }
            if (ops_ended.fetch_add(1, std::memory_order_relaxed) + 1 == kRssAfterOps) {
              rss_mb = PeakRssMb();
            }
          }
        },
        [&] {
          for (int64_t left = slice_ns; left > 0 && !wrong.load();
               left = slice_ns - (NowNs() - start)) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(std::min<int64_t>(left, 20'000'000)));
          }
          stop.store(true);
        });
    phase.elapsed_s += SecondsSince(start);
    uint64_t ops = 0;
    int64_t ops_ns = 0;
    for (Client& client : clients) {
      ops += std::exchange(client.slice_ops, 0);
      ops_ns += std::exchange(client.slice_ns, 0);
    }
    phase.slice_mean_us.push_back(
        Ratio(static_cast<double>(ops_ns) / 1e3, static_cast<double>(ops)));
    if (between && i + 1 < slices && ops_ended.load() >= kRssAfterOps) {
      between();
    }
  }
  phase.rss_mb = rss_mb;
  if (ops_ended.load() < kRssAfterOps) {
    std::printf("note: the window ended after %" PRIu64 " operations, before %" PRIu64
                "; peak RSS read at its end\n",
                ops_ended.load(), kRssAfterOps);
    phase.rss_mb = PeakRssMb();
  }
  for (const Client& client : clients) {
    const ThreadStats& s = client.stats;
    phase.total.query.Merge(s.query);
    phase.total.reg.Merge(s.reg);
    phase.total.queries += s.queries;
    phase.total.failed += s.failed;
    phase.total.wrong += s.wrong;
    phase.total.registers += s.registers;
    phase.total.refreshes += s.refreshes;
    phase.total.register_failed += s.register_failed;
  }
  return phase;
}

void PrintPhases(const char* label, const SetupPhases& p) {
  std::printf("setup %s: testbeds %.2f ms, serve %.2f ms, session %.2f ms, register %.2f ms, "
              "cold resolve %.2f ms, total %.2f ms\n",
              label, p.testbeds_s * 1e3, p.serve_s * 1e3, p.session_s * 1e3, p.register_s * 1e3,
              p.resolve_s * 1e3, p.Total() * 1e3);
}

void PrintPhase(const char* label, const Phase& phase) {
  const ThreadStats& t = phase.total;
  std::printf("%s: %" PRIu64 " queries in %.3f s = %.0f/s, p50 %.2f us, p99 %.2f us, "
              "mean %.2f us; %" PRIu64 " answers checked, failed %" PRIu64 ", wrong %" PRIu64 "\n",
              label, t.query.count(), phase.elapsed_s,
              static_cast<double>(t.query.count()) / phase.elapsed_s,
              t.query.PercentileNs(0.50) / 1e3, t.query.PercentileNs(0.99) / 1e3,
              t.query.MeanNs() / 1e3, t.queries, t.failed, t.wrong);
  std::printf("%s: operation mean of %zu slices: quartiles %.2f / %.2f / %.2f us\n", label,
              phase.slice_mean_us.size(), Quantile(phase.slice_mean_us, 0.25),
              Quantile(phase.slice_mean_us, 0.5), Quantile(phase.slice_mean_us, 0.75));
  if (t.registers > 0) {
    double op_ns = t.query.MeanNs() * static_cast<double>(t.query.count()) +
                   t.reg.MeanNs() * static_cast<double>(t.reg.count());
    std::printf("%s: %" PRIu64 " registrations with %" PRIu64 " re-resolutions, p50 %.2f us, "
                "p99 %.2f us, mean %.2f us, %.1f%% of operation time, failed %" PRIu64 "\n",
                label, t.registers, t.refreshes, t.reg.PercentileNs(0.50) / 1e3,
                t.reg.PercentileNs(0.99) / 1e3, t.reg.MeanNs() / 1e3,
                100.0 * t.reg.MeanNs() * static_cast<double>(t.reg.count()) / op_ns,
                t.register_failed);
  }
}

hcs::CacheStats SumNsmCaches(const Topology& topology) {
  hcs::CacheStats total;
  for (hcs::HnsCache* cache : topology.nsm_caches()) {
    total += cache->stats();
  }
  return total;
}

void AccountPhase(const Phase& phase, RunResult* result) {
  const ThreadStats& t = phase.total;
  result->attempted += t.queries + t.registers + t.refreshes;
  result->failed += t.failed + t.register_failed;
  if (t.wrong > 0) {
    result->correct = false;
  }
}

// The traced half of a --trace 1 run: per-layer metrics. Tracing overhead
// compares the median query time with the untraced half's.
void TracedPhase(const RunConfig& config, bool churn, double untraced_p50_us,
                 RunResult* result) {
  SetupPhases phases;
  std::string error;
  std::unique_ptr<Topology> topology = Topology::Build(/*traced=*/true, &phases, &error);
  if (topology == nullptr) {
    std::fprintf(stderr, "traced set-up failed: %s\n", error.c_str());
    result->correct = false;
    return;
  }
  PrintPhases("(traced)", phases);
  hcs::Hns& hns = topology->hns();
  SpanLog::Get().Clear();
  hns.cache().ResetStats();
  hns.composite_cache().ResetStats();
  for (hcs::HnsCache* cache : topology->nsm_caches()) {
    cache->ResetStats();
  }
  uint64_t meta_lookups0 = hns.meta().remote_lookups();
  uint64_t meta_requests0 = topology->meta_service()->requests();
  hcs::AsyncEngineStats engine0 = hcs::GlobalAsyncClientEngine()->stats();
  hcs::SetMutexTimingEnabled(true);
  uint64_t lock_wait0 = HnsLockWaitNs();

  // One slice: the client threads, and so their span buffers, live through
  // the whole traced window.
  Phase phase = Measure(*topology, config, churn, /*traced=*/true, config.seconds / 2,
                        config.seconds / 2, nullptr);

  uint64_t lock_wait_ns = HnsLockWaitNs() - lock_wait0;
  hcs::SetMutexTimingEnabled(false);
  hcs::AsyncEngineStats engine1 = hcs::GlobalAsyncClientEngine()->stats();
  uint64_t meta_requests = topology->meta_service()->requests() - meta_requests0;
  uint64_t meta_lookups = hns.meta().remote_lookups() - meta_lookups0;
  hcs::CacheStats record = hns.cache().stats();
  hcs::CacheStats composite = hns.composite_cache().stats();
  hcs::CacheStats nsm = SumNsmCaches(*topology);
  uint64_t server_drops = topology->server_drops();
  topology.reset();  // stops the serving threads: every span is closed
  PrintPhase("traced", phase);
  AccountPhase(phase, result);

  SpanLog& log = SpanLog::Get();
  std::map<std::string, SpanLog::NameStats> spans = log.Aggregate();
  auto mean_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count) / 1e3;
  };
  uint64_t matched = 0;
  double hop_us = log.MeanGapNs("rpc.call", "rpc.serve_nsm", &matched) / 1e3;
  double queries = static_cast<double>(phase.total.queries);
  double calls = static_cast<double>(engine1.calls - engine0.calls);
  double record_probes = static_cast<double>(record.hits + record.misses + record.negative_hits);

  result->Set("hns.find_nsm_us", mean_us("hns.find_nsm"));
  result->Set("hns.composite_hit_ratio",
              Ratio(static_cast<double>(composite.hits),
                    static_cast<double>(composite.hits + composite.misses)));
  // No record probe at all (every FindNSM a composite hit) means nothing missed.
  result->Set("hns.record_hit_ratio",
              record_probes == 0 ? 1.0 : static_cast<double>(record.hits) / record_probes);
  result->Set("hns.meta_lookups_per_kquery",
              Ratio(1e3 * static_cast<double>(meta_lookups), queries));
  result->Set("hns.coalesced_per_kquery",
              Ratio(1e3 * static_cast<double>(record.coalesced_misses), queries));
  result->Set("hns.register_us", mean_us("hns.register"));
  result->Set("hns.lock_wait_us", Ratio(static_cast<double>(lock_wait_ns) / 1e3, queries));
  result->Set("wire.encode_us", mean_us("wire.encode"));
  result->Set("wire.decode_us", mean_us("wire.decode"));
  result->Set("rpc.call_us", mean_us("rpc.call"));
  result->Set("rpc.serve_nsm_us", mean_us("rpc.serve_nsm"));
  result->Set("rpc.serve_meta_us", mean_us("rpc.serve_meta"));
  result->Set("rpc.hop_us", hop_us);
  result->Set("rpc.retries_per_kcall",
              Ratio(1e3 * static_cast<double>(engine1.retries - engine0.retries), calls));
  result->Set("rpc.unmatched_replies",
              static_cast<double>(engine1.udp_unmatched - engine0.udp_unmatched));
  result->Set("rpc.send_drops",
              static_cast<double>(engine1.udp_send_drops - engine0.udp_send_drops));
  result->Set("rpc.server_drops", static_cast<double>(server_drops));
  result->Set("nsm.query_us", mean_us("nsm.query"));
  result->Set("nsm.cache_hit_ratio", nsm.HitFraction());
  result->Set("bindns.meta_requests_per_kop",
              Ratio(1e3 * static_cast<double>(meta_requests),
                    queries + static_cast<double>(phase.total.registers)));

  double traced_p50_us = phase.total.query.PercentileNs(0.50) / 1e3;
  result->Set("trace.overhead_pct", 100.0 * (traced_p50_us - untraced_p50_us) / untraced_p50_us);

  // The per-layer split of one query: self time of each layer.
  std::printf("traced spans (%" PRIu64 " dropped), self time per span:\n", log.dropped());
  for (const auto& [name, stats] : spans) {
    std::printf("  %-16s n=%-8" PRIu64 " mean %8.2f us  self %8.2f us\n", name.c_str(),
                stats.count, stats.total_ns / static_cast<double>(stats.count) / 1e3,
                stats.self_ns / static_cast<double>(stats.count) / 1e3);
  }
  double layer_sum_us = mean_us("hns.find_nsm") + mean_us("wire.encode") +
                        mean_us("rpc.call") + mean_us("wire.decode");
  std::printf("layer sum %.2f us of traced mean query %.2f us (%.1f%%); hop %.2f us over %" PRIu64
              " matched calls; median query %.2f us traced, %.2f us untraced\n",
              layer_sum_us, mean_us("query"), 100.0 * layer_sum_us / mean_us("query"), hop_us,
              matched, traced_p50_us, untraced_p50_us);
  if (!config.spans_path.empty() && !log.WriteTsv(config.spans_path, 16)) {
    std::fprintf(stderr, "cannot write spans to %s\n", config.spans_path.c_str());
  }
}

}  // namespace

RunResult RunSocketWorkload(const RunConfig& config) {
  const bool churn = config.workload == "evolve_churn";
  RunResult result;
  std::printf("workload %s: row 4 [NSMs] [Client, HNS] over loopback UDP, %d client threads, "
              "%d contexts x 2 query classes, zipf s=%.1f%s\n",
              config.workload.c_str(), kThreads, kContexts, kZipfS,
              churn ? ", RegisterNsm every 25th op of thread 0" : "");

  // One timed set-up before the window and, in untraced runs, one between
  // every two slices once peak RSS is read, so that set-ups sample the
  // same spells of machine speed as the queries do. Each set-up follows a
  // loopback round-trip reference.
  std::vector<double> setup_times;
  std::vector<double> round_trip_ns;
  auto reference = [&] {
    double ns = LoopbackRoundTripNs(kReferenceTrips);
    if (ns <= 0) {
      std::fprintf(stderr, "loopback round-trip reference failed\n");
      std::exit(1);
    }
    round_trip_ns.push_back(ns);
  };
  SetupPhases phases;
  auto set_up = [&] {
    std::string error;
    int64_t start = NowNs();
    std::unique_ptr<Topology> topology = Topology::Build(/*traced=*/false, &phases, &error);
    if (topology == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      std::exit(1);
    }
    setup_times.push_back(SecondsSince(start));
    return topology;
  };
  reference();
  std::unique_ptr<Topology> topology = set_up();
  PrintPhases("(first)", phases);

  Phase phase = Measure(*topology, config, churn, /*traced=*/false,
                        config.trace ? config.seconds / 2 : config.seconds, kSliceSeconds,
                        config.trace ? std::function<void()>() : std::function<void()>([&] {
                          reference();
                          set_up();
                        }));
  topology.reset();
  PrintPhase("untraced", phase);
  AccountPhase(phase, &result);
  const ThreadStats& t = phase.total;

  if (config.trace) {
    TracedPhase(config, churn, t.query.PercentileNs(0.50) / 1e3, &result);
    for (const char* name : {"sim.messages_per_query", "sim.meta_exchange_virtual_ms",
                             "sim.exchange_wall_us", "workload.self_us_per_query"}) {
      result.Set(name, 0);
    }
    return result;
  }
  PrintPhases("(last)", phases);
  std::printf("setup: %zu set-ups, quartiles %.2f / %.2f / %.2f ms\n", setup_times.size(),
              Quantile(setup_times, 0.25) * 1e3, Quantile(setup_times, 0.5) * 1e3,
              Quantile(setup_times, 0.75) * 1e3);
  // Scaled to the host speed at which the reference round trip takes its
  // nominal time.
  double scale = kNominalRoundTripNs / Median(round_trip_ns);
  std::printf("reference: %zu loopback round-trip samples, median %.3f us; gated times scaled "
              "by %.4f\n",
              round_trip_ns.size(), Median(round_trip_ns) / 1e3, scale);
  // A slow spell on the machine slows the slices it covers, and the lower
  // quartile still shows what the code costs. Set-up times are single
  // samples, not means, and spread wider within a run; their median moved
  // less from run to run than their lower quartile.
  result.Set("op_latency_us", Quantile(phase.slice_mean_us, 0.25) * scale);
  result.Set("setup_s", Median(setup_times) * scale);
  result.Set("peak_rss_mb", phase.rss_mb);
  return result;
}

}  // namespace hnsbench
