#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dbtf {
namespace bench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return p;
  }
  return 0.0;
}

}  // namespace bench
}  // namespace dbtf
