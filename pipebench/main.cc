// Pipeline benchmark: runs one workload for a fixed timed window,
// checks the program's outputs, and prints the result object as the
// last line of standard output. See README.md.
//
//   pipebench --workload tune|serve_cold|serve_hot --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--source-id ID]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"
#include "obs/trace.h"
#include "pipebench.h"
#include "util/parallel.h"

namespace pipebench {

// Taken during static initialization: the closest in-process stand-in
// for the process start that setup_s is measured from.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

// Parallel-runtime threads: more than one, so a threading change shows,
// and half of a 4-core host, so the serving workloads' HTTP workers,
// engine threads and clients are not starved (README.md).
constexpr int kThreads = 2;
// Closed-loop client connections: one core's worth below nproc, so
// serve_hot's admin connection keeps the total at or under nproc.
constexpr long kClients = 3;

/// ISA flags of interest from /proc/cpuinfo.
std::string IsaFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::string out;
    for (const char* f : {"avx2", "fma", "avx512f", "avx512_vnni", "avx512bw",
                          "f16c"}) {
      if ((" " + line + " ").find(std::string(" ") + f + " ") !=
          std::string::npos) {
        out += out.empty() ? f : std::string(",") + f;
      }
    }
    return out;
  }
  return "unknown";
}

// Every per-layer metric, in report order. Each workload fills the ones
// whose layer it runs; the rest read 0 (README.md, "Traced run").
struct MetricSpec {
  const char* name;
  const char* unit;
};
constexpr MetricSpec kPerLayer[] = {
    {"pipeline.pretrain_s", "s"},
    {"pipeline.fit_s", "s"},
    {"pipeline.score_s", "s"},
    {"pipeline.match_p99_ms", "ms"},
    {"pipeline.swap_s", "s"},
    {"clip.pretrain_ms_per_step", "ms"},
    {"tensor.gemm_s", "s"},
    {"tensor.gemm_calls", "count"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"util.parallel_regions", "count"},
    {"util.parallel_region_s", "s"},
    {"tensor.pool_hit_rate", "1"},
    {"core.fit.batch_gen_s", "s"},
    {"core.fit.encode_s", "s"},
    {"core.fit.score_s", "s"},
    {"core.fit.backward_s", "s"},
    {"core.fit.optimizer_s", "s"},
    {"core.fit.pairs", "count"},
    {"core.pcp_s", "s"},
    {"core.kmeans_s", "s"},
    {"core.plan.replays", "count"},
    {"core.plan.traces", "count"},
    {"core.encode_vertices_s", "s"},
    {"core.encode_images_s", "s"},
    {"core.score_matrix_s", "s"},
    {"eval.ranking_s", "s"},
    {"mem.tensor_peak_mb", "MB"},
    {"serve.engine_ms", "ms"},
    {"net.http_overhead_ms", "ms"},
    {"net.admission_ms", "ms"},
    {"serve.service_ms", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.cache_hit_rate", "1"},
    {"core.encode_vertices_ms", "ms"},
    {"serve.search_ms", "ms"},
    {"serve.sharded.gather_ms", "ms"},
    {"serve.sharded.shard_search_ms", "ms"},
    {"serve.sharded.hedges", "count"},
    {"serve.sharded.retries", "count"},
    {"serve.snapshot.load_ms", "ms"},
    {"serve.sharded.partition_ms", "ms"},
    {"serve.index_bytes", "bytes"},
    {"obs.trace_overhead_pct", "%"},
};

std::vector<Metric> PerLayerMetrics(
    const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : kPerLayer) {
    auto it = values.find(spec.name);
    out.push_back(
        {spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricSpec& spec : kPerLayer) known |= name == spec.name;
    if (!known) {
      std::fprintf(stderr, "unlisted per-layer metric %s\n", name.c_str());
    }
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    if (i != 0) out += ", ";
    out += crossem::obs::JsonString(metrics[i].name) + ": {\"value\": " +
           value + ", \"unit\": " + crossem::obs::JsonString(metrics[i].unit) +
           "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload tune|serve_cold|serve_hot "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--source-id ID]\n");
  return 2;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  RunOptions options;
  options.process_start = kProcessStart;
  options.out_dir = ".pipebench";
  std::string source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0 ||
      (options.workload != "tune" && options.workload != "serve_cold" &&
       options.workload != "serve_hot")) {
    return Usage();
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  options.threads = kThreads;
  options.clients = static_cast<int>(std::clamp<long>(nproc - 1, 1, kClients));
  setenv("CROSSEM_NUM_THREADS", std::to_string(options.threads).c_str(), 1);
  crossem::SetNumThreads(options.threads);
  crossem::obs::SetTraceEnabled(false);

  RunResult result = options.workload == "tune"
                         ? RunTune(options)
                         : RunServe(options, options.workload == "serve_hot");

  std::ostringstream stamp;
  stamp << "host: nproc " << nproc << ", isa " << IsaFlags()
        << ", compiler gcc " << __VERSION__ << ", source " << source_id
        << ", CROSSEM_NUM_THREADS " << options.threads << ", clients "
        << options.clients;
  std::printf("%s\n", stamp.str().c_str());
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("checks: %lld evaluated, %lld violated\n",
              static_cast<long long>(result.checks),
              static_cast<long long>(result.violated));
  for (const std::string& v : result.violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
  const std::vector<Metric> per_layer = PerLayerMetrics(result.per_layer);
  const std::vector<Metric>& metrics =
      options.trace ? per_layer : result.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const std::string line =
      std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  // The full record (both metric sets, notes, host stamp) for later
  // reading; the last stdout line is the result object.
  std::ofstream record(options.out_dir + "/" + options.workload + "-seed" +
                       std::to_string(options.seed) + "-trace" +
                       (options.trace ? "1" : "0") + ".json");
  if (record) {
    record << "{\"host\": " << crossem::obs::JsonString(stamp.str())
           << ", \"result\": " << line
           << ", \"end_to_end\": " << MetricsJson(result.end_to_end)
           << ", \"per_layer\": " << MetricsJson(per_layer)
           << ", \"notes\": [";
    for (size_t i = 0; i < result.notes.size(); ++i) {
      record << (i ? ", " : "") << crossem::obs::JsonString(result.notes[i]);
    }
    record << "]}\n";
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}
