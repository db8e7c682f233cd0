// Order statistics for the pipeline benchmark: medians, exact
// sorted-sample percentiles and the tail rule (a percentile is reported
// only when at least ten samples lie beyond it).
#ifndef PIPEBENCH_STATS_H_
#define PIPEBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace pipebench {

/// Median of `values` (mean of the two middle samples for an even
/// count); 0 for an empty vector.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the sample at sorted index ceil(q*n) - 1,
/// clamped into [0, n-1]. 0 for an empty vector.
double Percentile(std::vector<double> values, double q);

/// Samples that lie strictly after the nearest-rank index of `q` in a
/// sorted sample of size n.
int64_t SamplesBeyond(int64_t n, double q);

/// The tail rule: true, with *out set to Percentile(values, q), only
/// when at least `min_beyond` samples lie beyond that percentile.
bool TailPercentile(const std::vector<double>& values, double q,
                    double* out, int64_t min_beyond = 10);

}  // namespace pipebench

#endif  // PIPEBENCH_STATS_H_
