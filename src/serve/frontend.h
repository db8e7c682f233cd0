// FrontEnd — the serving front end both query engines share.
//
// Requests (vertex id + top-k parameters) enter a bounded queue and one
// dispatch thread drains it in micro-batches. Dispatch is
// work-conserving: whenever the thread is free it takes everything
// queued, up to `max_batch`, and runs it at once. Requests that arrive
// while a batch runs form the next batch, so no request is held back
// waiting for peers, and batches still grow with load. Per batch the
// front end expires requests whose deadline passed in the queue,
// resolves embeddings from the fingerprint-keyed cache, runs one
// CrossEm::EncodeVertices forward over the batch's distinct misses
// (the text tower's per-call overhead amortizes across the batch), and
// hands each live request to the engine's AnswerStep: one index scan
// for MatchService, the scatter-gather resilience envelope for
// ShardedMatchService.
//
// Admission control:
//   * invalid request    -> Status::InvalidArgument at Submit time
//   * queue full         -> Status::Unavailable at Submit time, with a
//                           retry-after hint (backpressure: the caller
//                           sheds or retries)
//   * shut down          -> Status::Unavailable at Submit time
//   * deadline expired   -> Status::DeadlineExceeded when dequeued or
//                           after encoding (never silently dropped)
//   * Shutdown()         -> stops admissions, drains every queued
//                           request, then joins the dispatch thread.
#ifndef CROSSEM_SERVE_FRONTEND_H_
#define CROSSEM_SERVE_FRONTEND_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/crossem.h"
#include "graph/graph.h"
#include "obs/request_trace.h"
#include "serve/cache.h"
#include "serve/index.h"
#include "serve/stats.h"
#include "util/status.h"

namespace crossem {
namespace serve {

struct MatchServiceOptions {
  /// Max requests waiting in the queue; submits beyond this are
  /// rejected with Status::Unavailable (backpressure).
  int64_t max_queue = 256;
  /// Micro-batch cap: the dispatch thread takes at most this many
  /// queued requests into one batch.
  int64_t max_batch = 16;
  /// LRU embedding-cache capacity; <= 0 disables caching.
  int64_t cache_capacity = 4096;
  /// Optional embedding-cache byte cap; 0 = entries-only capacity.
  int64_t cache_max_bytes = 0;
  /// Storage format of cached embeddings (quantized entries pack 2-3.5x
  /// more vertices into the same bytes; dequantized on hit).
  quant::QuantFormat cache_format = quant::QuantFormat::kF32;
  /// Nearest images retrieved per query for the probability softmax
  /// (clamped up to the request's k and down to the index size).
  int64_t probability_candidates = 64;
};

/// The embedding-cache configuration a MatchServiceOptions implies.
inline EmbeddingCacheOptions CacheOptionsFor(
    const MatchServiceOptions& options) {
  return EmbeddingCacheOptions{options.cache_capacity,
                               options.cache_max_bytes,
                               options.cache_format};
}

/// Queue-full retry-after hint before any request has completed (after
/// that the hint is the observed p50 completion latency).
inline constexpr int64_t kRetryAfterFloorMicros = 1000;

struct MatchRequest {
  graph::VertexId vertex = 0;
  /// Matches to return (top-k by similarity).
  int64_t k = 1;
  /// Drop matches whose Eq. 4 probability falls below this.
  float min_probability = 0.0f;
  /// Per-request deadline, microseconds from submit; 0 = none. A
  /// request still queued (or just encoded) past its deadline completes
  /// with Status::DeadlineExceeded.
  int64_t deadline_micros = 0;
  /// Request-scoped trace to record engine spans into (null = tracing
  /// off for this request; every engine hook is then one pointer test).
  std::shared_ptr<obs::RequestTrace> trace;
  /// Parent span for the engine's spans (the ingress-side span id).
  uint64_t parent_span_id = 0;
};

struct RankedMatch {
  int64_t image = 0;        // row index in the serving index
  std::string image_id;     // the index's external id for that row
  float similarity = 0.0f;  // cosine similarity
  float probability = 0.0f; // Eq. 4 softmax over the retrieved candidates
};

struct MatchResponse {
  std::vector<RankedMatch> matches;
  /// True when the vertex embedding came from the cache.
  bool cache_hit = false;
  /// Row-weighted fraction of the repository actually searched. Always
  /// 1.0 from MatchService; ShardedMatchService lowers it when shards
  /// are skipped, down, or out of time — the query still succeeds.
  double coverage = 1.0;
  /// True iff coverage < 1.0 (the explicit partial-result flag).
  bool degraded = false;
};

/// The engine half behind the front end: answers one live request whose
/// embedding the front end has resolved. Called on the dispatch thread.
class AnswerStep {
 public:
  AnswerStep() = default;
  virtual ~AnswerStep() = default;
  AnswerStep(const AnswerStep&) = delete;
  AnswerStep& operator=(const AnswerStep&) = delete;

  /// Dimension of the rows searched; 0 while there are none (the front
  /// end then accepts any encoder dimension).
  virtual int64_t dim() const = 0;

  /// Fills `response` (matches; coverage and degraded) for `request`.
  /// `query` is its embedding, `candidates` the retrieval depth of the
  /// Eq. 4 softmax, `deadline` its absolute deadline (kNoSearchDeadline
  /// when none) and `span_id` the id of its `service` span, the parent
  /// of any span the step records (0 when the request is untraced).
  virtual void Answer(const MatchRequest& request, std::vector<float> query,
                      int64_t candidates, SearchDeadline deadline,
                      uint64_t span_id, MatchResponse* response) = 0;
};

class FrontEnd {
 public:
  /// `matcher` and `step` are borrowed and must outlive the front end;
  /// `name` prefixes rejection messages. The dispatch thread starts
  /// immediately.
  FrontEnd(const core::CrossEm* matcher, AnswerStep* step,
           MatchServiceOptions options, std::string name);
  ~FrontEnd();  // implies Shutdown()

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Enqueue a request. The future is always eventually satisfied: with
  /// a response, or with the rejection/expiry Status. Rejections
  /// (queue full, shut down, invalid request) resolve immediately.
  std::future<Result<MatchResponse>> Submit(const MatchRequest& request);

  /// Convenience: Submit and block for the result.
  Result<MatchResponse> Match(const MatchRequest& request);

  /// Stop admitting, drain every queued request, join the dispatch
  /// thread. Idempotent; concurrent callers all return after the join.
  void Shutdown();

  ServiceStats Snapshot() const { return stats_.Snapshot(); }
  const EmbeddingCache& cache() const { return cache_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    MatchRequest request;
    std::promise<Result<MatchResponse>> promise;
    Clock::time_point submitted;
    Clock::time_point deadline;  // time_point::max() when none
  };

  void DispatchLoop();
  void RunBatch(std::vector<Pending> batch);

  const core::CrossEm* matcher_;
  AnswerStep* step_;
  const MatchServiceOptions options_;
  const std::string name_;
  const uint32_t fingerprint_;  // encoder fingerprint at construction

  EmbeddingCache cache_;
  StatsCollector stats_;

  std::mutex mu_;  // guards queue_ and shutdown_
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;

  std::once_flag shutdown_once_;
  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace crossem

#endif  // CROSSEM_SERVE_FRONTEND_H_
