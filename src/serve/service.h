// MatchService — the single-index query engine of the serving layer.
//
// The shared FrontEnd (serve/frontend.h) owns the queue, the
// work-conserving micro-batching, the embedding cache and one
// CrossEm::EncodeVertices call per batch; MatchService plugs in the
// answer step: one EmbeddingIndex::Search per request, then the Eq. 4
// tail below.
//
// Results carry matching probabilities from the Eq. 4 softmax applied
// over the `probability_candidates` nearest images retrieved for the
// query (at the model's temperature tau). Over a flat index with
// candidates >= index size this is exactly Eq. 4; over HNSW (or a
// trimmed candidate set) it is the standard retrieve-then-normalize
// approximation, identical policy for both backends so swapping the
// backend never changes probability semantics.
#ifndef CROSSEM_SERVE_SERVICE_H_
#define CROSSEM_SERVE_SERVICE_H_

#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/crossem.h"
#include "serve/cache.h"
#include "serve/frontend.h"
#include "serve/index.h"
#include "serve/stats.h"
#include "util/status.h"

namespace crossem {
namespace serve {

namespace internal {

/// The shared scoring tail of both services: Eq. 4 softmax at
/// `temperature` over the retrieved candidate list `found` (best first,
/// global row ids), keeping the top `k` above `min_probability`.
/// Identical arithmetic order whichever service runs it, so a sharded
/// merge that reproduces `found` bitwise also reproduces the
/// probabilities bitwise.
void AppendRankedMatches(const std::vector<eval::ScoredId>& found,
                         const std::vector<std::string>& ids, int64_t k,
                         float min_probability, float temperature,
                         std::vector<RankedMatch>* out);

}  // namespace internal

/// MatchService's answer step: one index scan + the Eq. 4 tail.
class IndexAnswerStep : public AnswerStep {
 public:
  /// `index` is borrowed and must outlive the step.
  IndexAnswerStep(const EmbeddingIndex* index, float temperature)
      : index_(index), temperature_(temperature) {}

  int64_t dim() const override {
    return index_->size() > 0 ? index_->dim() : 0;
  }
  void Answer(const MatchRequest& request, std::vector<float> query,
              int64_t candidates, SearchDeadline deadline, uint64_t span_id,
              MatchResponse* response) override;

 private:
  const EmbeddingIndex* index_;
  const float temperature_;  // tau at construction
};

class MatchService {
 public:
  /// `matcher` and `index` are borrowed and must outlive the service.
  /// The dispatch thread starts immediately.
  MatchService(const core::CrossEm* matcher, const EmbeddingIndex* index,
               MatchServiceOptions options)
      : step_(index, matcher->Temperature()),
        front_(matcher, &step_, std::move(options), "MatchService") {}

  /// See FrontEnd: Submit always resolves its future; Match blocks on
  /// it; Shutdown stops admitting, drains, and joins (idempotent).
  std::future<Result<MatchResponse>> Submit(const MatchRequest& request) {
    return front_.Submit(request);
  }
  Result<MatchResponse> Match(const MatchRequest& request) {
    return front_.Match(request);
  }
  void Shutdown() { front_.Shutdown(); }

  ServiceStats Snapshot() const { return front_.Snapshot(); }
  const EmbeddingCache& cache() const { return front_.cache(); }

 private:
  IndexAnswerStep step_;
  FrontEnd front_;  // declared last: its thread uses step_
};

}  // namespace serve
}  // namespace crossem

#endif  // CROSSEM_SERVE_SERVICE_H_
