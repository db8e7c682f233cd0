// Shared types of the pipeline benchmark (see README.md).
#ifndef PIPEBENCH_PIPEBENCH_H_
#define PIPEBENCH_PIPEBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clip/clip.h"

namespace pipebench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Parallel-runtime threads (CROSSEM_NUM_THREADS), fixed per run.
  int threads = 0;
  /// Closed-loop client connections driving the HTTP server.
  int clients = 0;
  /// Where result and trace files go (inside the checkout).
  std::string out_dir;
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (every run).
  std::vector<Metric> end_to_end;
  /// Per-layer values by metric name (traced runs); main.cc fixes the
  /// list and units, and a layer the workload does not run reads 0.
  std::map<std::string, double> per_layer;
  /// The first violated correctness checks, one line each; empty =
  /// correct.
  std::vector<std::string> violations;
  /// Checks evaluated and checks violated (for the report).
  int64_t checks = 0;
  int64_t violated = 0;
  /// Free-form report lines (stdout and the result file).
  std::vector<std::string> notes;

  void Check(const std::string& violation) {
    ++checks;
    if (violation.empty()) return;
    ++violated;
    if (violations.size() < 20) violations.push_back(violation);
  }
  bool correct() const { return violations.empty(); }
};

/// The mini-CLIP shape every workload uses (the bench harness's
/// CPU-scale model): serve_* serve an untrained model of tune's shape.
inline crossem::clip::ClipConfig ModelConfig(int64_t vocab_size,
                                             int64_t patch_dim) {
  crossem::clip::ClipConfig cc;
  cc.vocab_size = vocab_size;
  cc.text_context = 48;
  cc.model_dim = 32;
  cc.embed_dim = 24;
  cc.patch_dim = patch_dim;
  cc.max_patches = 16;
  return cc;
}

/// Seconds since the process started.
double SecondsSince(Clock::time_point start);

/// getrusage max RSS of this process, MB.
double PeakRssMb();

RunResult RunTune(const RunOptions& options);
RunResult RunServe(const RunOptions& options, bool hot);

}  // namespace pipebench

#endif  // PIPEBENCH_PIPEBENCH_H_
