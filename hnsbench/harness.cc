#include "harness.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/common/sync.h"
#include "src/rpc/context.h"
#include "src/rpc/control.h"

namespace hnsbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

Zipf::Zipf(uint32_t n, double s) : cdf_(n) {
  double total = 0;
  for (uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

uint32_t Zipf::Draw(SplitMix& rng) const {
  double u = rng.Uniform();
  size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return static_cast<uint32_t>(std::min(rank, cdf_.size() - 1));
}

// --- Histogram -----------------------------------------------------------------

namespace {
constexpr int kSubBits = 8;
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
}  // namespace

Histogram::Histogram() : buckets_(static_cast<size_t>(64 - kSubBits + 1) << kSubBits, 0) {}

size_t Histogram::Index(uint64_t v) const {
  if (v < kSub) {
    return static_cast<size_t>(v);
  }
  int e = std::bit_width(v) - 1;
  int shift = e - kSubBits;
  return static_cast<size_t>(shift + 1) * kSub + static_cast<size_t>((v >> shift) - kSub);
}

uint64_t Histogram::BucketLow(size_t index) const {
  if (index < kSub) {
    return index;
  }
  size_t group = index / kSub;
  uint64_t mantissa = index % kSub + kSub;
  return mantissa << (group - 1);
}

uint64_t Histogram::BucketHigh(size_t index) const {
  if (index < kSub) {
    return index + 1;
  }
  size_t group = index / kSub;
  uint64_t mantissa = index % kSub + kSub;
  return (mantissa + 1) << (group - 1);
}

void Histogram::Record(int64_t ns) {
  uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
  ++buckets_[Index(v)];
  ++count_;
  sum_ += v;
  max_ = std::max(max_, v);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double Histogram::MeanNs() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_ / count_);
}

double Histogram::PercentileNs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  double target = q * static_cast<double>(count_);
  double before = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    double in_bucket = static_cast<double>(buckets_[i]);
    if (before + in_bucket >= target) {
      double frac = (target - before) / in_bucket;
      double low = static_cast<double>(BucketLow(i));
      double high = static_cast<double>(BucketHigh(i));
      return std::min(low + frac * (high - low), static_cast<double>(max_));
    }
    before += in_bucket;
  }
  return static_cast<double>(max_);
}

// --- Spans -----------------------------------------------------------------------

namespace {
// A thread stops recording past this many spans (about 56 MB); the run
// reports how many were dropped.
constexpr size_t kMaxSpansPerThread = 1'000'000;
std::mutex g_buffers_mu;
}  // namespace

struct SpanLog::ThreadBuffer {
  uint64_t index = 0;
  uint64_t next_id = 0;
  std::vector<Span> spans;
  std::vector<size_t> stack;
};

SpanLog& SpanLog::Get() {
  static SpanLog* log = [] {
    auto* l = new SpanLog;
    l->buffers_ = new std::vector<std::unique_ptr<ThreadBuffer>>;
    return l;
  }();
  return *log;
}

SpanLog::ThreadBuffer* SpanLog::Mine() {
  thread_local ThreadBuffer* mine = nullptr;
  if (mine == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->index = next_thread_.fetch_add(1, std::memory_order_relaxed);
    buffer->spans.reserve(1 << 16);
    mine = buffer.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffers_->push_back(std::move(buffer));
  }
  return mine;
}

int64_t SpanLog::Open(const char* name, uint64_t trace_id) {
  ThreadBuffer* b = Mine();
  if (b->spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span span;
  span.trace_id = trace_id;
  span.id = (b->index << 40) | ++b->next_id;
  span.parent = b->stack.empty() ? 0 : b->spans[b->stack.back()].id;
  span.name = name;
  span.start_ns = NowNs();
  b->spans.push_back(span);
  b->stack.push_back(b->spans.size() - 1);
  return static_cast<int64_t>(b->spans.size() - 1);
}

void SpanLog::Close(int64_t slot) {
  if (slot < 0) {
    return;
  }
  ThreadBuffer* b = Mine();
  Span& span = b->spans[static_cast<size_t>(slot)];
  span.end_ns = NowNs();
  b->stack.pop_back();
  if (!b->stack.empty()) {
    b->spans[b->stack.back()].child_ns += span.end_ns - span.start_ns;
  }
}

void SpanLog::SetTrace(int64_t slot, uint64_t trace_id) {
  if (slot >= 0) {
    Mine()->spans[static_cast<size_t>(slot)].trace_id = trace_id;
  }
}

std::map<std::string, SpanLog::NameStats> SpanLog::Aggregate() const {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::map<std::string, NameStats> out;
  for (const auto& buffer : *buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.end_ns == 0) {
        continue;
      }
      NameStats& stats = out[span.name];
      double duration = static_cast<double>(span.end_ns - span.start_ns);
      ++stats.count;
      stats.total_ns += duration;
      stats.self_ns += duration - static_cast<double>(span.child_ns);
    }
  }
  return out;
}

double SpanLog::MeanGapNs(const char* client_name, const char* server_name,
                          uint64_t* matched) const {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::unordered_map<uint64_t, int64_t> server_ns;
  for (const auto& buffer : *buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.end_ns != 0 && span.trace_id != 0 && std::strcmp(span.name, server_name) == 0) {
        server_ns[span.trace_id] += span.end_ns - span.start_ns;
      }
    }
  }
  double total = 0;
  uint64_t n = 0;
  for (const auto& buffer : *buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.end_ns == 0 || std::strcmp(span.name, client_name) != 0) {
        continue;
      }
      auto it = server_ns.find(span.trace_id);
      if (it != server_ns.end()) {
        total += static_cast<double>(span.end_ns - span.start_ns - it->second);
        ++n;
      }
    }
  }
  *matched = n;
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

bool SpanLog::WriteTsv(const std::string& path, uint64_t sample_every) const {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "trace_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n");
  for (const auto& buffer : *buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.end_ns == 0 || span.trace_id % sample_every != 0) {
        continue;
      }
      std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(span.trace_id),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.name,
                   static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : *buffers_) {
    buffer->spans.clear();
    buffer->stack.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

// --- Decorators --------------------------------------------------------------------

hcs::Result<hcs::Bytes> TracedService::HandleMessage(const hcs::Bytes& request) {
  return HandleFrame(request.data(), request.size());
}

hcs::Result<hcs::Bytes> TracedService::HandleFrame(const uint8_t* data, size_t size) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan span(span_name_, 0);
  // The trace id rides in the control header; decoding it here is part of
  // the tracing cost and lands inside this span, not in the hop.
  hcs::Result<hcs::RpcCallView> call =
      hcs::GetControlProtocol(inner_->control_kind()).DecodeCallView(data, size);
  if (call.ok()) {
    span.SetTrace(call->context.trace_id);
  }
  return inner_->HandleFrame(data, size);
}

hcs::Result<hcs::WireValue> TracedNsm::Query(const hcs::HnsName& name,
                                             const hcs::WireValue& args) {
  ScopedSpan span("nsm.query", hcs::CurrentRequestContext().trace_id);
  return inner_->Query(name, args);
}

hcs::Result<hcs::Bytes> TracedTransport::RoundTrip(const std::string& from_host,
                                                   const std::string& to_host, uint16_t port,
                                                   const hcs::Bytes& message) {
  ScopedSpan span("sim.exchange", 0);
  hcs::SimTime virtual_start = world_->clock().Now();
  hcs::Result<hcs::Bytes> reply = inner_->RoundTrip(from_host, to_host, port, message);
  ++exchanges;
  if (std::find(meta_hosts_.begin(), meta_hosts_.end(), to_host) != meta_hosts_.end()) {
    ++meta_exchanges;
    meta_virtual_us += world_->clock().Now() - virtual_start;
  }
  return reply;
}

// --- Misc ---------------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double LoopbackRoundTripNs(int trips) {
  int client = socket(AF_INET, SOCK_DGRAM, 0);
  int echo = socket(AF_INET, SOCK_DGRAM, 0);
  // Bound to an ephemeral loopback port, with a receive timeout so that a
  // lost datagram ends the reference instead of blocking it.
  auto bound_address = [](int fd) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    timeval timeout{.tv_sec = 1, .tv_usec = 0};
    bool ok = setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) == 0 &&
              bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
              getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    return ok ? addr : sockaddr_in{};
  };
  sockaddr_in client_addr = bound_address(client);
  sockaddr_in echo_addr = bound_address(echo);
  if (client < 0 || echo < 0 || client_addr.sin_port == 0 || echo_addr.sin_port == 0 ||
      connect(client, reinterpret_cast<sockaddr*>(&echo_addr), sizeof(echo_addr)) != 0 ||
      connect(echo, reinterpret_cast<sockaddr*>(&client_addr), sizeof(client_addr)) != 0) {
    close(client);
    close(echo);
    return 0;
  }
  std::thread echoer([&] {
    uint8_t buffer[256];
    for (int i = 0; i < trips; ++i) {
      ssize_t n = recv(echo, buffer, sizeof(buffer), 0);
      if (n <= 0 || send(echo, buffer, static_cast<size_t>(n), 0) != n) {
        return;
      }
    }
  });
  uint8_t buffer[256] = {};
  bool ok = true;
  int64_t start = NowNs();
  for (int i = 0; i < trips && ok; ++i) {
    ok = send(client, buffer, sizeof(buffer), 0) == static_cast<ssize_t>(sizeof(buffer)) &&
         recv(client, buffer, sizeof(buffer), 0) == static_cast<ssize_t>(sizeof(buffer));
  }
  int64_t ns = NowNs() - start;
  echoer.join();
  close(client);
  close(echo);
  return ok ? static_cast<double>(ns) / trips : 0;
}

double CpuReferenceNs() {
  int64_t start = NowNs();
  SplitMix rng(1);
  std::map<std::string, std::string> map;
  for (int i = 0; i < 4000; ++i) {
    map[std::to_string(rng.Next() % 100000)] = std::string(24, 'x');
  }
  size_t found = 0;
  for (int i = 0; i < 4000; ++i) {
    found += map.count(std::to_string(rng.Next() % 100000));
  }
  int64_t ns = NowNs() - start;
  static std::atomic<size_t> sink;  // keeps the probes
  sink.fetch_add(found, std::memory_order_relaxed);
  return static_cast<double>(ns);
}

uint64_t HnsLockWaitNs() {
  uint64_t total = 0;
  for (const hcs::MutexStats& stats : hcs::AllMutexStats()) {
    if (stats.name.rfind("hns-", 0) == 0) {
      total += stats.wait_ns;
    }
  }
  return total;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double position = q * static_cast<double>(values.size() - 1);
  size_t below = static_cast<size_t>(position);
  size_t above = std::min(below + 1, values.size() - 1);
  double frac = position - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace hnsbench
