#include "stats.h"

#include <algorithm>
#include <cmath>

namespace pipebench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

int64_t NearestRankIndex(int64_t n, double q) {
  const int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<int64_t>(rank - 1, 0, n - 1);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  return values[static_cast<size_t>(NearestRankIndex(n, q))];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - 1 - NearestRankIndex(n, q);
}

bool TailPercentile(const std::vector<double>& values, double q,
                    double* out, int64_t min_beyond) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (SamplesBeyond(n, q) < min_beyond) return false;
  *out = Percentile(values, q);
  return true;
}

}  // namespace pipebench
