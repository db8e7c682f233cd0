// Readings of the program's own telemetry: span records (obs/trace.h)
// aggregated into per-layer totals, and registry counters. The benchmark
// adds no span or counter to the program; it only turns tracing on and
// reads what the existing instruments recorded.
#ifndef PIPEBENCH_SPANS_H_
#define PIPEBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  /// Per-span durations in ms (kept only for the request-scoped spans).
  std::vector<double> durations_ms;
  /// gemm spans: sum of 2*m*k*n over the calls.
  double flops = 0.0;
};

/// Totals by span name of everything recorded since the last
/// obs::ClearTrace(); clears the buffers afterwards so the next phase
/// starts empty.
std::map<std::string, SpanTotals> DrainSpans();

/// Current value of a counter in the process-wide obs registry.
int64_t CounterValue(const char* name);

/// Total of one span name (zeros when absent).
SpanTotals Totals(const std::map<std::string, SpanTotals>& spans,
                  const std::string& name);

}  // namespace pipebench

#endif  // PIPEBENCH_SPANS_H_
