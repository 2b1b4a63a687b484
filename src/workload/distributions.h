// Seeded sampling distributions for the workload engine: Zipf popularity
// over a finite rank space, exponential inter-arrival times for Poisson
// processes, and the chi-square goodness-of-fit statistic the self-tests
// use to verify the samplers actually produce what they claim. Also the
// one latency-tail rule (Percentiles) the sim-clock engine and the
// wall-clock driver share.
//
// Everything here is a pure function of an explicit Rng, so two runs at the
// same seed draw identical streams no matter where the call sites live —
// the same discipline as src/rpc/fault.h (seed-replayable chaos) applied to
// load generation.

#ifndef HCS_SRC_WORKLOAD_DISTRIBUTIONS_H_
#define HCS_SRC_WORKLOAD_DISTRIBUTIONS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/rand.h"
#include "src/sim/time.h"

namespace hcs {

// Zipf(s) over ranks [0, n): P(rank = k) proportional to 1 / (k+1)^s.
// s = 0 degenerates to uniform; larger s concentrates mass on low ranks
// (rank 0 is the most popular). The CDF is precomputed once (O(n)) and each
// Sample is one uniform draw plus a binary search (O(log n)), so a
// million-client scenario pays nothing per draw beyond the PRNG step.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double s);

  // Draws a rank in [0, n).
  uint32_t Sample(Rng& rng) const;

  // Exact probability of `rank` under this distribution (chi-square
  // expected counts; also the popularity curve benches report).
  double Pmf(uint32_t rank) const;

  uint32_t n() const { return static_cast<uint32_t>(cdf_.size()); }
  double s() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k); cdf_.back() == 1.0
};

// One exponential inter-arrival draw for a Poisson process of `rate_per_s`
// events per simulated second, as a simulated duration (microseconds,
// rounded up so a huge rate still advances time). Precondition:
// rate_per_s > 0.
SimDuration SampleInterArrival(Rng& rng, double rate_per_s);

// Pearson's chi-square statistic over `observed` counts vs the expected
// probabilities (sum((obs - exp)^2 / exp) with exp = p * total). Bins with
// expected probability 0 must have 0 observations (asserted by the caller's
// test, not here). The self-tests compare the statistic against a critical
// value for len(observed) - 1 degrees of freedom.
double ChiSquareStatistic(const std::vector<uint64_t>& observed,
                          const std::vector<double>& expected_probability);

// A latency sample in whole microseconds, kept as value -> count: its
// memory grows with the distinct values, not with the samples (a
// million-client sim run holds about ten).
using LatencyCounts = std::map<uint64_t, uint64_t>;

// Exact tails of a sample: each is the sorted sample at index
// floor(q * (n - 1)), with no interpolation, found by walking the counts in
// value order. All zero when `counts` is empty.
struct Percentiles {
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};
Percentiles ComputePercentiles(const LatencyCounts& counts);

}  // namespace hcs

#endif  // HCS_SRC_WORKLOAD_DISTRIBUTIONS_H_
