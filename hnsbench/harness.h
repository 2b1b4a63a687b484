// Shared pieces of the HNS benchmark harness: a fixed-memory latency
// histogram, an in-memory span log, the decorators the traced runs wrap
// around served components, and the result record every workload fills.
//
// Everything here sits outside src/: spans are taken around calls into the
// modules' public functions, so a change under src/ cannot move the
// instrumentation.

#ifndef HNSBENCH_HARNESS_H_
#define HNSBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/hns/nsm_interface.h"
#include "src/rpc/server.h"
#include "src/rpc/transport.h"
#include "src/sim/world.h"

namespace hnsbench {

// Monotonic nanoseconds.
int64_t NowNs();

// SplitMix64: the harness's own input generator, so a change to src/ cannot
// change what the benchmark asks for.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, 1).
  double Uniform();

 private:
  uint64_t state_;
};

// Zipf(s) over items 0..n-1, item k at popularity rank k, drawn by inverse
// CDF. The ranking is fixed so that every seed asks for the same mix; the
// seed only drives the draws.
class Zipf {
 public:
  Zipf(uint32_t n, double s);
  uint32_t Draw(SplitMix& rng) const;

 private:
  std::vector<double> cdf_;
};

// Log-linear histogram over nanoseconds: 256 linear sub-buckets per power
// of two (relative bucket width <= 1/256), fixed size, exact count/sum/max.
class Histogram {
 public:
  Histogram();
  void Record(int64_t ns);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  double MeanNs() const;
  // Percentile (q in [0,1]) with linear interpolation inside the bucket.
  double PercentileNs(double q) const;

 private:
  size_t Index(uint64_t v) const;
  uint64_t BucketLow(size_t index) const;
  uint64_t BucketHigh(size_t index) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  long double sum_ = 0;
  uint64_t max_ = 0;
};

// --- Spans -------------------------------------------------------------------
// One timed interval on one thread. `parent` is the enclosing span on the
// same thread (0 = none); spans of one request share `trace_id`, which is
// how a server-side span is matched to the client call that caused it.
struct Span {
  uint64_t trace_id = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t child_ns = 0;  // time covered by same-thread child spans
};

// Per-thread span buffers, kept in memory until the run ends. Recording is
// only ever done by traced runs; untraced runs construct no spans at all.
class SpanLog {
 public:
  static SpanLog& Get();
  // Opens a span on the calling thread; returns its slot (or -1 when the
  // per-thread cap is reached and the span is dropped).
  int64_t Open(const char* name, uint64_t trace_id);
  void Close(int64_t slot);
  void SetTrace(int64_t slot, uint64_t trace_id);

  // Aggregates and writes. Call only after every recording thread has
  // stopped (client threads joined, servers stopped).
  struct NameStats {
    uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  std::map<std::string, NameStats> Aggregate() const;
  // Mean over matched pairs of (client span duration - server span
  // duration) for spans sharing a trace id; `matched` receives the count.
  double MeanGapNs(const char* client_name, const char* server_name, uint64_t* matched) const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  // Writes every span of traces whose id is a multiple of `sample_every`
  // (plus untraced spans) as TSV. Returns false on I/O failure.
  bool WriteTsv(const std::string& path, uint64_t sample_every) const;
  void Clear();

 private:
  struct ThreadBuffer;
  ThreadBuffer* Mine();

  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint32_t> next_thread_{1};
  std::vector<std::unique_ptr<ThreadBuffer>>* buffers_;
};

class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t trace_id)
      : slot_(SpanLog::Get().Open(name, trace_id)) {}
  ~ScopedSpan() { SpanLog::Get().Close(slot_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void SetTrace(uint64_t trace_id) { SpanLog::Get().SetTrace(slot_, trace_id); }

 private:
  int64_t slot_;
};

// --- Decorators ----------------------------------------------------------------
// A served RpcServer, timed per request; the span carries the trace id the
// request's control header holds.
class TracedService : public hcs::SimService {
 public:
  TracedService(hcs::RpcServer* inner, const char* span_name)
      : inner_(inner), span_name_(span_name) {}
  hcs::Result<hcs::Bytes> HandleMessage(const hcs::Bytes& request) override;
  hcs::Result<hcs::Bytes> HandleFrame(const uint8_t* data, size_t size) override;
  uint64_t requests() const { return requests_.load(std::memory_order_relaxed); }

 private:
  hcs::RpcServer* inner_;
  const char* span_name_;
  std::atomic<uint64_t> requests_{0};
};

// A served NSM, timed per query under the ambient request's trace id.
class TracedNsm : public hcs::Nsm {
 public:
  explicit TracedNsm(std::shared_ptr<hcs::Nsm> inner) : inner_(std::move(inner)) {}
  const hcs::NsmInfo& info() const override { return inner_->info(); }
  hcs::Result<hcs::WireValue> Query(const hcs::HnsName& name,
                                    const hcs::WireValue& args) override;
  hcs::HnsCache* cache() override { return inner_->cache(); }

 private:
  std::shared_ptr<hcs::Nsm> inner_;
};

// The sim session's transport, counting exchanges on both clocks.
class TracedTransport : public hcs::Transport {
 public:
  TracedTransport(hcs::Transport* inner, hcs::World* world, std::vector<std::string> meta_hosts)
      : inner_(inner), world_(world), meta_hosts_(std::move(meta_hosts)) {}
  hcs::Result<hcs::Bytes> RoundTrip(const std::string& from_host, const std::string& to_host,
                                    uint16_t port, const hcs::Bytes& message) override;

  uint64_t exchanges = 0;
  uint64_t meta_exchanges = 0;
  int64_t meta_virtual_us = 0;

 private:
  hcs::Transport* inner_;
  hcs::World* world_;
  std::vector<std::string> meta_hosts_;
};

// --- Results -------------------------------------------------------------------
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;  // required: main.cc refuses a run without --seconds
  bool trace = false;
  std::string spans_path;  // traced runs write spans here
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Metric name -> value; main.cc prints them with the units BENCHMARK.json
  // gives.
  std::map<std::string, double> metrics;
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();

// --- Host-speed references -----------------------------------------------------
// The machine this benchmark was tuned on changed speed by up to 2.7x for
// minutes at a time, which moves whole runs and which no statistic inside a
// run can remove. So each run also times a fixed piece of harness-owned work
// of the same kind as its workload, and its gated times are scaled to the
// host speed at which that work takes its nominal time. No src/ code runs
// inside a reference, so a change under src/ moves a scaled time exactly as
// it moves the raw one.

// Mean ns of one loopback UDP round trip between two harness threads, over
// `trips` round trips of a 256-byte datagram; 0 if a socket call fails.
double LoopbackRoundTripNs(int trips);
// Wall ns of a fixed piece of single-threaded harness CPU work: building and
// probing an ordered map of short strings.
double CpuReferenceNs();
// Linear-interpolated quantile, q in [0, 1]; 0 for no values.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// num / den, or 0 when nothing was counted.
double Ratio(double num, double den);
// Time spent waiting for the hns-* mutexes (cache shards, composite shards),
// summed over every live one; zero unless mutex timing is on.
uint64_t HnsLockWaitNs();

RunResult RunSocketWorkload(const RunConfig& config);
RunResult RunSimWorkload(const RunConfig& config);

}  // namespace hnsbench

#endif  // HNSBENCH_HARNESS_H_
