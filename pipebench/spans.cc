#include "spans.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pipebench {

std::map<std::string, SpanTotals> DrainSpans() {
  std::map<std::string, SpanTotals> out;
  for (const crossem::obs::SpanRecord& s : crossem::obs::CollectSpans()) {
    SpanTotals& t = out[s.name];
    ++t.count;
    const double ms = static_cast<double>(s.duration_ns) * 1e-6;
    t.total_s += ms * 1e-3;
    if (s.trace_hi != 0 || s.trace_lo != 0) t.durations_ms.push_back(ms);
    if (std::string(s.name) == "gemm") {
      double m = 0, k = 0, n = 0;
      for (const crossem::obs::SpanArg& a : s.args) {
        const std::string key = a.key;
        if (key == "m") m = static_cast<double>(a.int_value);
        if (key == "k") k = static_cast<double>(a.int_value);
        if (key == "n") n = static_cast<double>(a.int_value);
      }
      t.flops += 2.0 * m * k * n;
    }
  }
  crossem::obs::ClearTrace();
  return out;
}

int64_t CounterValue(const char* name) {
  return crossem::obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

SpanTotals Totals(const std::map<std::string, SpanTotals>& spans,
                  const std::string& name) {
  auto it = spans.find(name);
  return it == spans.end() ? SpanTotals() : it->second;
}

}  // namespace pipebench
