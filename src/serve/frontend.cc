#include "serve/frontend.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "tensor/tensor.h"

namespace crossem {
namespace serve {

namespace {

int64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

FrontEnd::FrontEnd(const core::CrossEm* matcher, AnswerStep* step,
                   MatchServiceOptions options, std::string name)
    : matcher_(matcher),
      step_(step),
      options_(std::move(options)),
      name_(std::move(name)),
      fingerprint_(matcher->EncoderFingerprint()),
      cache_(CacheOptionsFor(options_)) {
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

FrontEnd::~FrontEnd() { Shutdown(); }

std::future<Result<MatchResponse>> FrontEnd::Submit(
    const MatchRequest& request) {
  Pending pending;
  pending.request = request;
  pending.submitted = Clock::now();
  pending.deadline =
      request.deadline_micros > 0
          ? pending.submitted +
                std::chrono::microseconds(request.deadline_micros)
          : Clock::time_point::max();
  std::future<Result<MatchResponse>> future = pending.promise.get_future();

  if (request.k < 1) {
    pending.promise.set_value(
        Status::InvalidArgument("MatchRequest.k must be >= 1"));
    return future;
  }
  const int64_t vertices = matcher_->graph().NumVertices();
  if (request.vertex < 0 || request.vertex >= vertices) {
    pending.promise.set_value(Status::InvalidArgument(
        "MatchRequest.vertex " + std::to_string(request.vertex) +
        " out of range [0, " + std::to_string(vertices) + ")"));
    return future;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      stats_.RecordRejectedShutdown();
      pending.promise.set_value(Status::Unavailable(name_ + " is shut down"));
      return future;
    }
    if (static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
      stats_.RecordRejectedQueueFull();
      // The rejection carries the observed depth and a drain-time hint
      // (p50 completion latency, or a fixed floor before the first
      // completion) so callers — including the sharded layer — can back
      // off for a meaningful interval instead of guessing. The hint
      // never exceeds the request's own deadline: advising a retry that
      // would arrive post-deadline is wasted work on both sides.
      int64_t retry_after_us = stats_.LatencyP50Us();
      if (retry_after_us <= 0) retry_after_us = kRetryAfterFloorMicros;
      if (request.deadline_micros > 0) {
        retry_after_us = std::min(retry_after_us, request.deadline_micros);
      }
      pending.promise.set_value(Status::Unavailable(
          name_ + " queue full (" + std::to_string(queue_.size()) + " of " +
          std::to_string(options_.max_queue) + " pending); retry after " +
          std::to_string(retry_after_us) + "us"));
      return future;
    }
    stats_.RecordReceived();
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

Result<MatchResponse> FrontEnd::Match(const MatchRequest& request) {
  return Submit(request).get();
}

void FrontEnd::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    dispatcher_.join();
  });
}

void FrontEnd::DispatchLoop() {
  obs::SetThreadName("serve-dispatch");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down and drained

    // Work-conserving: the thread is free, so whatever is queued runs
    // now; what arrives while it runs forms the next batch.
    const auto end =
        queue_.begin() +
        std::min<int64_t>(static_cast<int64_t>(queue_.size()),
                          options_.max_batch);
    std::vector<Pending> batch(std::make_move_iterator(queue_.begin()),
                               std::make_move_iterator(end));
    queue_.erase(queue_.begin(), end);

    lock.unlock();
    RunBatch(std::move(batch));
    lock.lock();
  }
}

void FrontEnd::RunBatch(std::vector<Pending> batch) {
  CROSSEM_TRACE_SPAN_V(span, "serve_batch");
  const int64_t batch_size = static_cast<int64_t>(batch.size());
  span.Arg("requests", batch_size);
  // Resolves a request and records its `service` span (submit to
  // resolution, so the request tree shows queue wait + batch work).
  // `span_id` is pre-minted for answered requests so the answer step's
  // spans can parent onto it; 0 mints one here.
  auto finish = [batch_size](Pending& p, uint64_t span_id,
                             const char* outcome, bool cache_hit,
                             Result<MatchResponse> result) {
    if (p.request.trace != nullptr) {
      const uint64_t start_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              p.submitted.time_since_epoch())
              .count());
      const uint64_t end_ns = obs::RequestNowNs();
      std::vector<obs::SpanArg> args(3);
      args[0].key = "outcome";
      args[0].type = obs::SpanArg::Type::kString;
      args[0].string_value = outcome;
      args[1].key = "batch";
      args[1].int_value = batch_size;
      args[2].key = "cache_hit";
      args[2].int_value = cache_hit ? 1 : 0;
      p.request.trace->Record(
          "service", span_id != 0 ? span_id : obs::MintSpanId(),
          p.request.parent_span_id, start_ns,
          end_ns > start_ns ? end_ns - start_ns : 0, std::move(args));
    }
    p.promise.set_value(std::move(result));
  };

  // Expire requests that aged out while queued.
  const Clock::time_point dequeued = Clock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (p.deadline > dequeued) {
      live.push_back(std::move(p));
      continue;
    }
    stats_.RecordExpired();
    finish(p, 0, "expired_in_queue", false,
           Status::DeadlineExceeded(
               "request expired after " +
               std::to_string(MicrosBetween(p.submitted, dequeued)) +
               "us in queue"));
  }
  if (live.empty()) return;

  // Resolve embeddings: cache first, then one EncodeVertices forward
  // over the distinct uncached vertices of the batch.
  std::vector<std::vector<float>> embeddings(live.size());
  std::vector<bool> cached(live.size(), false);
  std::vector<graph::VertexId> to_encode;
  std::unordered_map<graph::VertexId, int64_t> encode_row;
  int64_t hits = 0;
  int64_t misses = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    const graph::VertexId v = live[i].request.vertex;
    if (cache_.Lookup(v, fingerprint_, &embeddings[i])) {
      cached[i] = true;
      ++hits;
    } else {
      ++misses;
      if (encode_row.find(v) == encode_row.end()) {
        encode_row.emplace(v, static_cast<int64_t>(to_encode.size()));
        to_encode.push_back(v);
      }
    }
  }
  stats_.RecordBatch(static_cast<int64_t>(live.size()), hits, misses);

  if (!to_encode.empty()) {
    NoGradGuard guard;
    Tensor encoded = matcher_->EncodeVertices(to_encode);  // [n, dim]
    const int64_t dim = encoded.size(1);
    const int64_t index_dim = step_->dim();
    if (index_dim > 0 && dim != index_dim) {
      Status mismatch = Status::Internal(
          "encoder dim " + std::to_string(dim) + " != index dim " +
          std::to_string(index_dim) +
          " (index built from a different model?)");
      for (Pending& p : live) finish(p, 0, "dim_mismatch", false, mismatch);
      return;
    }
    const float* data = encoded.data();
    for (size_t i = 0; i < live.size(); ++i) {
      if (cached[i]) continue;
      const int64_t row = encode_row.at(live[i].request.vertex);
      embeddings[i].assign(data + row * dim, data + (row + 1) * dim);
      cache_.Insert(live[i].request.vertex, fingerprint_, embeddings[i]);
    }
  }

  for (size_t i = 0; i < live.size(); ++i) {
    Pending& p = live[i];
    if (p.deadline <= Clock::now()) {
      stats_.RecordExpired();
      finish(p, 0, "expired_in_batch", cached[i],
             Status::DeadlineExceeded(
                 "request expired during batch processing"));
      continue;
    }
    const uint64_t span_id =
        p.request.trace != nullptr ? obs::MintSpanId() : 0;
    MatchResponse response;
    response.cache_hit = cached[i];
    step_->Answer(p.request, std::move(embeddings[i]),
                  std::max(p.request.k, options_.probability_candidates),
                  p.deadline, span_id, &response);
    stats_.RecordCompleted(MicrosBetween(p.submitted, Clock::now()));
    finish(p, span_id, response.degraded ? "degraded" : "ok", cached[i],
           std::move(response));
  }
}

}  // namespace serve
}  // namespace crossem
