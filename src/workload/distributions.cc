#include "src/workload/distributions.h"

#include <algorithm>
#include <cmath>

namespace hcs {

ZipfSampler::ZipfSampler(uint32_t n, double s) : s_(s) {
  if (n == 0) {
    n = 1;
  }
  cdf_.resize(n);
  double total = 0;
  for (uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k) + 1.0, s_);
    cdf_[k] = total;
  }
  for (uint32_t k = 0; k < n; ++k) {
    cdf_[k] /= total;
  }
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

uint32_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) {
    return static_cast<uint32_t>(cdf_.size() - 1);
  }
  return static_cast<uint32_t>(it - cdf_.begin());
}

double ZipfSampler::Pmf(uint32_t rank) const {
  if (rank >= cdf_.size()) {
    return 0.0;
  }
  if (rank == 0) {
    return cdf_[0];
  }
  return cdf_[rank] - cdf_[rank - 1];
}

SimDuration SampleInterArrival(Rng& rng, double rate_per_s) {
  // Inverse CDF of the exponential: -ln(1 - U) / rate. NextDouble() is in
  // [0, 1), so 1 - u is in (0, 1] and the log is finite.
  double u = rng.NextDouble();
  double seconds = -std::log(1.0 - u) / rate_per_s;
  double micros = seconds * 1e6;
  if (micros < 1.0) {
    return 1;  // always advance the clock; same-time floods are scheduled explicitly
  }
  return static_cast<SimDuration>(micros);
}

double ChiSquareStatistic(const std::vector<uint64_t>& observed,
                          const std::vector<double>& expected_probability) {
  uint64_t total = 0;
  for (uint64_t count : observed) {
    total += count;
  }
  double statistic = 0;
  size_t bins = std::min(observed.size(), expected_probability.size());
  for (size_t i = 0; i < bins; ++i) {
    double expected = expected_probability[i] * static_cast<double>(total);
    if (expected <= 0) {
      continue;  // caller asserts observed[i] == 0 for impossible bins
    }
    double diff = static_cast<double>(observed[i]) - expected;
    statistic += diff * diff / expected;
  }
  return statistic;
}

Percentiles ComputePercentiles(const LatencyCounts& counts) {
  uint64_t n = 0;
  for (const auto& [value, count] : counts) {
    n += count;
  }
  Percentiles out;
  if (n == 0) {
    return out;
  }
  auto at = [&counts, n](double q) {
    const uint64_t index = static_cast<uint64_t>(q * static_cast<double>(n - 1));
    uint64_t below = 0;  // samples in the values walked so far
    for (const auto& [value, count] : counts) {
      below += count;
      if (index < below) {
        return value;
      }
    }
    return counts.rbegin()->first;  // unreachable: index < n
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  out.p999 = at(0.999);
  return out;
}

}  // namespace hcs
