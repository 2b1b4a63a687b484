// Concurrency suite for the real-transport resolution path (ctest label
// `concurrency`; run it under -DHCS_SANITIZE=thread). Four storms and two
// scripted races:
//
//   1. N threads hammering FindNSM through the composite binding cache
//      while another thread loops RegisterNsm/UnregisterNsm — the
//      invalidation hooks racing the fast path, over real UDP sockets.
//   2. FindNSM readers against back-to-back re-registrations of one NSM,
//      with the composite cache on and off: every read must succeed with
//      one complete binding (registration is one atomic update).
//   3. A meta read in flight across a commit, held on a latch in the
//      served BIND: it must not refill the record cache with what it read.
//   4. The sharded LRU under a mixed Put/Get/Remove load, checked against
//      HnsCache::CheckInvariants afterwards.
//   5. Multi-threaded logging through the hcs::Mutex sink — no torn lines.
//   6. A registration the meta BIND commits but whose reply comes too late:
//      FindNSM must not answer from a composite entry composed before it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "src/bindns/server.h"
#include "src/common/logging.h"
#include "src/common/rand.h"
#include "src/common/sync.h"
#include "src/hns/hns.h"
#include "src/hns/name.h"
#include "src/rpc/ports.h"
#include "src/rpc/server.h"
#include "src/rpc/udp_transport.h"
#include "src/sim/world.h"
#include "src/wire/value.h"

namespace hcs {
namespace {

// A linked HostAddress NSM answering from a fixed table — bounds the
// FindNSM recursion without touching the network, exactly how production
// deployments link their HostAddress NSMs (§3).
class FixedAddressNsm : public Nsm {
 public:
  FixedAddressNsm(NsmInfo info, uint32_t address)
      : info_(std::move(info)), address_(address) {}

  const NsmInfo& info() const override { return info_; }

  Result<WireValue> Query(const HnsName& name, const WireValue&) override {
    return RecordBuilder().U32("address", address_).Str("host", name.individual).Build();
  }

 private:
  NsmInfo info_;
  uint32_t address_;
};

// The modified-BIND meta authority on `world`'s host "metahost".
BindServer* InstallMetaBind(World* world) {
  EXPECT_TRUE(world->network().AddHost("metahost", MachineType::kMicroVax, OsType::kUnix).ok());
  BindServerOptions options;
  options.allow_dynamic_update = true;
  options.allow_unspecified_type = true;
  BindServer* bind = BindServer::InstallOn(world, "metahost", options).value();
  EXPECT_TRUE(bind->AddZone(MetaStore::kMetaZoneOrigin).ok());
  return bind;
}

// Registers the name service UW-BIND, its contexts stormctx and hostctx,
// and a linked HostAddress NSM for it that answers 127.0.0.1.
void RegisterUwBind(Hns* hns) {
  NsmInfo addr_info;
  addr_info.nsm_name = "AddrNSM";
  addr_info.query_class = kQueryClassHostAddress;
  addr_info.ns_name = "UW-BIND";
  addr_info.host = "metahost";
  addr_info.host_context = "hostctx";
  EXPECT_TRUE(hns->LinkNsm(std::make_shared<FixedAddressNsm>(addr_info, 0x7f000001)).ok());

  NameServiceInfo ns_info;
  ns_info.name = "UW-BIND";
  ns_info.type = "BIND";
  EXPECT_TRUE(hns->RegisterNameService(ns_info).ok());
  EXPECT_TRUE(hns->RegisterContext("stormctx", "UW-BIND").ok());
  EXPECT_TRUE(hns->RegisterContext("hostctx", "UW-BIND").ok());
  EXPECT_TRUE(hns->RegisterNsm(addr_info).ok());
}

// The meta authority on one real UDP socket, and an Hns over real UDP
// registered with UW-BIND. The serve loop is the only thread touching
// `world` after setup. Member order is teardown order, reversed: the host
// stops before the server it serves goes.
struct ServedMeta {
  explicit ServedMeta(bool composite_cache) : bind(InstallMetaBind(&world)) {
    Result<uint16_t> port = server_host.Serve(bind->rpc(), 0);
    EXPECT_TRUE(port.ok()) << port.status();

    HnsOptions options;
    options.meta_server_host = "metahost";
    options.composite_cache = composite_cache;
    options.cache.negative_ttl_seconds = 1;
    hns = std::make_unique<Hns>(/*world=*/nullptr, "client", &transport, options);
    hns->meta().set_meta_port(port.ok() ? *port : 0);
    RegisterUwBind(hns.get());
  }

  World world;
  BindServer* bind = nullptr;
  UdpServerHost server_host;
  UdpTransport transport;
  std::unique_ptr<Hns> hns;
};

NsmInfo StormNsmInfo() {
  NsmInfo info;
  info.nsm_name = "StormNSM";
  info.query_class = kQueryClassHrpcBinding;
  info.ns_name = "UW-BIND";
  info.host = "nsmhost";
  info.host_context = "hostctx";
  info.program = 4242;
  info.version = 1;
  info.port = 999;
  return info;
}

// FindNSM storm vs. a Register/Unregister loop, sharing one Hns (cache
// shards, singleflight table, composite cache, RpcClient) over real UDP.
// Correctness bar: every reader sees either a fully-consistent handle or
// NotFound (an unregistered window), and the system converges once
// registration settles.
TEST(ConcurrencyTest, CompositeInvalidationRacesFindNsm) {
  ServedMeta meta(/*composite_cache=*/true);
  Hns& hns = *meta.hns;
  NsmInfo storm_info = StormNsmInfo();
  ASSERT_TRUE(hns.RegisterNsm(storm_info).ok());

  HnsName name;
  name.context = "stormctx";
  name.individual = "anything";

  // Prove the happy path before the storm: a quiescent FindNSM must compose
  // the full handle. During the storm a success is not guaranteed — the
  // first Unregister may land before any read and negatively cache the
  // mapping for the storm's whole duration — so the storm itself only
  // asserts that no read ever observes a *torn* handle.
  {
    Result<NsmHandle> warm = hns.FindNsm(name, kQueryClassHrpcBinding);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->nsm_name, "StormNSM");
    EXPECT_EQ(warm->binding.program, 4242u);
    EXPECT_EQ(warm->binding.port, 999);
    EXPECT_EQ(warm->binding.address, 0x7f000001u);
  }

  constexpr int kReaders = 4;
  constexpr int kReadsPerThread = 250;
  std::atomic<int> ok_results{0};
  std::atomic<int> not_found{0};
  std::atomic<int> other_failures{0};
  std::atomic<int> wrong_results{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReadsPerThread; ++i) {
        Result<NsmHandle> handle = hns.FindNsm(name, kQueryClassHrpcBinding);
        if (handle.ok()) {
          // A successful handle must be internally consistent — never a
          // half-invalidated composite entry.
          if (handle->nsm_name == "StormNSM" && handle->binding.program == 4242 &&
              handle->binding.port == 999 && handle->binding.address == 0x7f000001) {
            ++ok_results;
          } else {
            ++wrong_results;
          }
        } else if (handle.status().code() == StatusCode::kNotFound) {
          ++not_found;
        } else if (++other_failures == 1) {
          // A torn record reads as PROTOCOL_ERROR; no other failure is
          // expected from an unregistered window.
          ADD_FAILURE() << "FindNSM failed with " << handle.status();
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 20; ++round) {
      EXPECT_TRUE(hns.UnregisterNsm("UW-BIND", kQueryClassHrpcBinding).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      EXPECT_TRUE(hns.RegisterNsm(storm_info).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done = true;
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(wrong_results.load(), 0) << "a FindNSM result was torn by invalidation";
  EXPECT_EQ(other_failures.load(), 0) << "only NotFound may fail a read";
  EXPECT_EQ(ok_results.load() + not_found.load(), kReaders * kReadsPerThread);

  // Once registration settles the system must converge to success within
  // the negative TTL (1 s) plus slack.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool converged = false;
  while (std::chrono::steady_clock::now() < deadline) {
    Result<NsmHandle> handle = hns.FindNsm(name, kQueryClassHrpcBinding);
    if (handle.ok() && handle->nsm_name == "StormNSM") {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(converged) << "FindNSM never recovered after the registration storm";

  EXPECT_TRUE(hns.cache().CheckInvariants().ok());
}

// Re-registration storm: one NSM registered back to back, alternating
// between two ports, never unregistered, while FindNSM readers run. Each
// registration is one atomic update of the map entry and the location
// record, so a reader can meet neither a half-written record nor a map
// entry without its location: every read succeeds with one of the two
// complete bindings. Once the writer stops, the caches hold nothing older
// than its last registration. Parameter: the composite cache on or off.
class ReRegistrationStormTest : public ::testing::TestWithParam<bool> {};

TEST_P(ReRegistrationStormTest, EveryReadSeesOneCompleteBinding) {
  ServedMeta meta(/*composite_cache=*/GetParam());
  Hns& hns = *meta.hns;
  constexpr uint16_t kPorts[2] = {1001, 1002};
  NsmInfo storm_info = StormNsmInfo();
  storm_info.port = kPorts[0];
  ASSERT_TRUE(hns.RegisterNsm(storm_info).ok());

  HnsName name;
  name.context = "stormctx";
  name.individual = "anything";
  auto complete = [&](const NsmHandle& handle) {
    return handle.nsm_name == "StormNSM" && handle.binding.service_name == "StormNSM" &&
           handle.binding.host == "nsmhost" && handle.binding.program == 4242 &&
           handle.binding.version == 1 && handle.binding.address == 0x7f000001 &&
           (handle.binding.port == kPorts[0] || handle.binding.port == kPorts[1]);
  };

  constexpr int kReaders = 4;
  constexpr int kRegistrations = 200;
  constexpr int kMinReadsPerThread = 100;
  std::atomic<int> reads{0};
  std::atomic<int> failures{0};
  std::atomic<int> wrong{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kMinReadsPerThread || !writer_done.load(); ++i) {
        ++reads;
        Result<NsmHandle> handle = hns.FindNsm(name, kQueryClassHrpcBinding);
        if (!handle.ok()) {
          if (++failures == 1) {
            ADD_FAILURE() << "FindNSM failed mid-registration: " << handle.status();
          }
        } else if (!complete(*handle)) {
          if (++wrong == 1) {
            ADD_FAILURE() << "incomplete binding: " << handle->nsm_name << " port "
                          << handle->binding.port;
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int r = 1; r <= kRegistrations; ++r) {
      storm_info.port = kPorts[r % 2];
      EXPECT_TRUE(hns.RegisterNsm(storm_info).ok());
    }
    writer_done = true;
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(reads.load(), kReaders * kMinReadsPerThread);

  Result<NsmHandle> settled = hns.FindNsm(name, kQueryClassHrpcBinding);
  ASSERT_TRUE(settled.ok()) << settled.status();
  EXPECT_EQ(settled->binding.port, kPorts[kRegistrations % 2])
      << "a binding read before the last registration outlived it";
  EXPECT_TRUE(hns.cache().CheckInvariants().ok());
  EXPECT_TRUE(hns.composite_cache().CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(CompositeCache, ReRegistrationStormTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return std::string(param.param ? "On" : "Off");
                         });

// A meta read in flight across a commit. The served BIND answers the read
// with the pre-commit record, then holds the reply on a latch while the
// writer commits a new value and drops the name from the record cache. The
// reader may return the value it read, but must not put it back into the
// record cache, where it would outlive the commit for the record's TTL.
TEST(ConcurrencyTest, ReadInFlightAcrossACommitLeavesNothingStaleCached) {
  World world;
  BindServer* bind = InstallMetaBind(&world);

  // The two serve loops share `bind` (and its world) under bind_mu; a
  // query waits on the latch after it has read, when the latch is armed.
  Mutex bind_mu{"gated-meta-bind"};
  Mutex latch_mu{"gated-meta-latch"};
  CondVar latch_cv;
  bool armed = false;
  bool read_done = false;
  bool released = false;
  RpcServer gated(ControlKind::kRaw, "gated-meta-bind");
  gated.RegisterProcedure(kBindProgram, kBindProcQuery, [&](BytesView args) -> Result<Bytes> {
    HCS_ASSIGN_OR_RETURN(BindQueryRequest request, BindQueryRequest::Decode(args.ToBytes()));
    Result<BindQueryResponse> response = [&] {
      MutexLock lock(bind_mu);
      return bind->QueryLocal(request);
    }();
    {
      MutexLock lock(latch_mu);
      if (armed) {
        armed = false;
        read_done = true;
        latch_cv.NotifyAll();
        latch_cv.Wait(latch_mu, [&] { return released; });
      }
    }
    HCS_RETURN_IF_ERROR(response.status());
    return response->Encode();
  });
  gated.RegisterProcedure(kBindProgram, kBindProcUpdate, [&](BytesView args) -> Result<Bytes> {
    HCS_ASSIGN_OR_RETURN(BindUpdateRequest request, BindUpdateRequest::Decode(args.ToBytes()));
    MutexLock lock(bind_mu);
    HCS_ASSIGN_OR_RETURN(BindUpdateResponse response, bind->UpdateLocal(request));
    return response.Encode();
  });
  UdpServerHost server_host(/*workers=*/2);
  Result<uint16_t> port = server_host.ServeConcurrent(&gated, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport;
  RpcClient rpc(/*world=*/nullptr, "client", &transport);
  HnsCache cache(/*world=*/nullptr, CacheMode::kMarshalled);
  MetaStore meta(&rpc, "metahost", "", &cache);
  meta.set_meta_port(*port);
  ASSERT_TRUE(meta.RegisterContext("racectx", "OLD-NS").ok());

  {
    MutexLock lock(latch_mu);
    armed = true;
  }
  Result<std::string> in_flight = UnavailableError("not read");
  std::thread reader([&] { in_flight = meta.ContextToNameService("racectx"); });
  {
    MutexLock lock(latch_mu);
    latch_cv.Wait(latch_mu, [&] { return read_done; });
  }
  // The upstream has read OLD-NS; the reply is held. Commit over it.
  ASSERT_TRUE(meta.RegisterContext("racectx", "NEW-NS").ok());
  {
    MutexLock lock(latch_mu);
    released = true;
  }
  latch_cv.NotifyAll();
  reader.join();
  ASSERT_TRUE(in_flight.ok()) << in_flight.status();
  EXPECT_EQ(*in_flight, "OLD-NS") << "the read was answered before the commit";

  Result<std::string> after = meta.ContextToNameService("racectx");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(*after, "NEW-NS") << "the pre-commit read refilled the record cache";
  server_host.StopAll();
}

// A registration whose reply comes back after the client gave up. The
// meta BIND applies the update, then holds its reply until the caller has
// seen kTimeout; the commit stands, so FindNSM must answer from it, not
// from a composite entry composed before it. One lost reply each for
// RegisterNsm, RegisterContext and UnregisterNsm; the last also removes an
// NSM that a second context's entry designates.
TEST(ConcurrencyTest, LostRegistrationReplyLeavesNoStaleCompositeEntry) {
  World world;
  BindServer* bind = InstallMetaBind(&world);

  // One serve loop, so `bind` has one thread. An update applied while
  // `hold` is set keeps its reply until the test clears `held`; waiting on
  // `held`, not `hold`, lets the reply go even if the next case has
  // already set `hold` again.
  Mutex latch_mu{"held-reply-latch"};
  CondVar latch_cv;
  bool hold = false;
  bool held = false;
  RpcServer gated(ControlKind::kRaw, "held-reply-bind");
  gated.RegisterProcedure(kBindProgram, kBindProcQuery, [&](BytesView args) -> Result<Bytes> {
    HCS_ASSIGN_OR_RETURN(BindQueryRequest request, BindQueryRequest::Decode(args.ToBytes()));
    HCS_ASSIGN_OR_RETURN(BindQueryResponse response, bind->QueryLocal(request));
    return response.Encode();
  });
  gated.RegisterProcedure(kBindProgram, kBindProcUpdate, [&](BytesView args) -> Result<Bytes> {
    HCS_ASSIGN_OR_RETURN(BindUpdateRequest request, BindUpdateRequest::Decode(args.ToBytes()));
    HCS_ASSIGN_OR_RETURN(BindUpdateResponse response, bind->UpdateLocal(request));
    MutexLock lock(latch_mu);
    if (hold) {
      held = true;
      latch_cv.NotifyAll();
      latch_cv.Wait(latch_mu, [&] { return !held; });
    }
    return response.Encode();
  });
  UdpServerHost server_host;
  Result<uint16_t> port = server_host.Serve(&gated, 0);
  ASSERT_TRUE(port.ok()) << port.status();

  UdpTransport transport(/*timeout_ms=*/250);
  HnsOptions options;
  options.meta_server_host = "metahost";
  options.composite_cache = true;
  Hns hns(/*world=*/nullptr, "client", &transport, options);
  hns.meta().set_meta_port(*port);
  RegisterUwBind(&hns);
  NsmInfo storm_info = StormNsmInfo();
  storm_info.port = 1001;
  NsmInfo other_info = StormNsmInfo();
  other_info.nsm_name = "OtherNSM";
  other_info.ns_name = "OTHER-NS";
  NsmInfo third_info = other_info;
  third_info.ns_name = "THIRD-NS";
  for (const char* ns_name : {"OTHER-NS", "THIRD-NS"}) {
    NameServiceInfo ns_info;
    ns_info.name = ns_name;
    ns_info.type = "BIND";
    ASSERT_TRUE(hns.RegisterNameService(ns_info).ok());
  }
  ASSERT_TRUE(hns.RegisterContext("thirdctx", "THIRD-NS").ok());
  for (const NsmInfo& info : {storm_info, other_info, third_info}) {
    ASSERT_TRUE(hns.RegisterNsm(info).ok());
  }

  // Runs `registration` with its reply held until it has returned, then
  // lets the reply go; the client drops it as unmatched.
  auto with_late_reply = [&](auto registration) {
    {
      MutexLock lock(latch_mu);
      hold = true;
    }
    Status status = registration();
    MutexLock lock(latch_mu);
    latch_cv.Wait(latch_mu, [&] { return held; });
    hold = false;
    held = false;
    latch_cv.NotifyAll();
    return status;
  };
  auto find = [&](const char* context) {
    HnsName name;
    name.context = context;
    name.individual = "anything";
    return hns.FindNsm(name, kQueryClassHrpcBinding);
  };
  Result<NsmHandle> composed = find("stormctx");
  ASSERT_TRUE(composed.ok()) << composed.status();
  ASSERT_EQ(composed->binding.port, 1001);

  storm_info.port = 1002;
  EXPECT_EQ(with_late_reply([&] { return hns.RegisterNsm(storm_info); }).code(),
            StatusCode::kTimeout);
  Result<NsmHandle> moved = find("stormctx");
  ASSERT_TRUE(moved.ok()) << moved.status();
  EXPECT_EQ(moved->binding.port, 1002) << "RegisterNsm left the old port composed";

  EXPECT_EQ(with_late_reply([&] { return hns.RegisterContext("stormctx", "OTHER-NS"); }).code(),
            StatusCode::kTimeout);
  Result<NsmHandle> remapped = find("stormctx");
  ASSERT_TRUE(remapped.ok()) << remapped.status();
  EXPECT_EQ(remapped->nsm_name, "OtherNSM") << "RegisterContext left the old mapping composed";

  ASSERT_TRUE(find("thirdctx").ok());
  EXPECT_EQ(
      with_late_reply([&] { return hns.UnregisterNsm("OTHER-NS", kQueryClassHrpcBinding); })
          .code(),
      StatusCode::kTimeout);
  EXPECT_EQ(find("stormctx").status().code(), StatusCode::kNotFound)
      << "UnregisterNsm left the removed mapping composed";
  EXPECT_EQ(find("thirdctx").status().code(), StatusCode::kNotFound)
      << "UnregisterNsm left the removed NSM composed";
  server_host.StopAll();
}

TEST(ConcurrencyTest, ShardedCacheSurvivesMixedStormIntact) {
  HnsCacheOptions options;
  options.shards = 4;
  options.max_bytes = 16 * 1024;  // force evictions under the storm
  HnsCache cache(/*world=*/nullptr, CacheMode::kDemarshalled, options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "key-" + std::to_string(rng.Uniform(200));
        switch (rng.Uniform(5)) {
          case 0:
            cache.Put(key, WireValue::OfString(std::string(64, 'v')), /*ttl_seconds=*/60);
            break;
          case 1:
            cache.PutNegative(key);
            break;
          case 2:
            cache.Remove(key);
            break;
          default:
            (void)cache.Lookup(key);  // hcs:ignore-status(stress loop; absence of data races is the assertion)
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  Status invariants = cache.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants;
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.bytes, cache.ApproximateBytes());
  EXPECT_GT(stats.inserts, 0u);
}

TEST(ConcurrencyTest, LogLinesNeverTearAcrossThreads) {
  // Divert fd 2 to a temp file for the duration of the storm.
  FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  int saved_stderr = dup(2);
  ASSERT_GE(saved_stderr, 0);
  ASSERT_GE(dup2(fileno(capture), 2), 0);
  LogLevel saved_threshold = GetLogThreshold();
  SetLogThreshold(LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        HCS_LOG(Info) << "interleave-marker t=" << t << " i=" << i << " end";
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  SetLogThreshold(saved_threshold);
  fflush(stderr);
  dup2(saved_stderr, 2);
  close(saved_stderr);

  std::fseek(capture, 0, SEEK_SET);
  std::string captured;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0) {
    captured.append(buffer, n);
  }
  std::fclose(capture);

  // Every emitted line must be whole: prefix, marker, and terminator with
  // nothing interleaved. Count both well-formed lines and any fragment of
  // the marker that escaped the pattern.
  std::regex whole_line(R"(\[I [^\]]+\] interleave-marker t=\d+ i=\d+ end)");
  size_t well_formed = 0;
  size_t marker_mentions = 0;
  size_t start = 0;
  while (start < captured.size()) {
    size_t end = captured.find('\n', start);
    if (end == std::string::npos) {
      end = captured.size();
    }
    std::string line = captured.substr(start, end - start);
    if (line.find("interleave-marker") != std::string::npos) {
      ++marker_mentions;
      if (std::regex_match(line, whole_line)) {
        ++well_formed;
      }
    }
    start = end + 1;
  }
  EXPECT_EQ(well_formed, static_cast<size_t>(kThreads * kLinesPerThread));
  EXPECT_EQ(marker_mentions, well_formed) << "some log line was torn mid-write";
}

}  // namespace
}  // namespace hcs
