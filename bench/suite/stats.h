#ifndef DBTF_BENCH_SUITE_STATS_H_
#define DBTF_BENCH_SUITE_STATS_H_

#include <cstddef>
#include <vector>

namespace dbtf {
namespace bench {

/// The `p`-th percentile (0..100) of `samples`, linearly interpolated
/// between the two nearest order statistics. Exact, never bucketed, so a
/// reported time keeps all its digits. 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 50).
double Median(std::vector<double> samples);

/// The highest percentile of the ladder 99.9, 99, 90, 50 that leaves at
/// least `min_beyond` of `n` samples above it, or 0 when even the median
/// does not. A tail is reported at the percentile this names for the run's
/// sample count, so it never rests on a handful of outliers.
double HighestSupportedPercentile(std::size_t n, std::size_t min_beyond = 10);

}  // namespace bench
}  // namespace dbtf

#endif  // DBTF_BENCH_SUITE_STATS_H_
