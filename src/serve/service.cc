#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace crossem {
namespace serve {

namespace internal {

void AppendRankedMatches(const std::vector<eval::ScoredId>& found,
                         const std::vector<std::string>& ids, int64_t k,
                         float min_probability, float temperature,
                         std::vector<RankedMatch>* out) {
  if (found.empty()) return;
  // Eq. 4 softmax at temperature tau over the retrieved candidate set
  // (max-subtracted for stability; found is score-descending, so the
  // max is the first element).
  const float inv_tau = 1.0f / temperature;
  const float top = found.front().score;
  double denom = 0.0;
  for (const eval::ScoredId& c : found) {
    denom += std::exp(static_cast<double>((c.score - top) * inv_tau));
  }
  const int64_t take = std::min<int64_t>(k, static_cast<int64_t>(found.size()));
  for (int64_t j = 0; j < take; ++j) {
    const float prob = static_cast<float>(
        std::exp(static_cast<double>((found[j].score - top) * inv_tau)) /
        denom);
    if (prob < min_probability) break;  // scores descend
    RankedMatch match;
    match.image = found[j].id;
    match.image_id = ids[found[j].id];
    match.similarity = found[j].score;
    match.probability = prob;
    out->push_back(std::move(match));
  }
}

}  // namespace internal

void IndexAnswerStep::Answer(const MatchRequest& request,
                             std::vector<float> query, int64_t candidates,
                             SearchDeadline deadline, uint64_t /*span_id*/,
                             MatchResponse* response) {
  // The remaining budget rides into the scan so a nearly-expired query
  // early-exits instead of burning the full repository.
  const std::vector<eval::ScoredId> found =
      index_->Search(query.data(), candidates, deadline);
  internal::AppendRankedMatches(found, index_->ids(), request.k,
                                request.min_probability, temperature_,
                                &response->matches);
}

}  // namespace serve
}  // namespace crossem
