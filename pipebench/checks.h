// Correctness checks of the pipeline benchmark. Each check recomputes
// the program's output with the benchmark's own arithmetic (or tests a
// property the method must have) and returns an empty string when the
// output passes, or a one-line description of the first violation.
//
// The checks take plain containers rather than program objects, so the
// tests can hand them a corrupted copy of an output and see them fail.
#ifndef PIPEBENCH_CHECKS_H_
#define PIPEBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace pipebench {

/// Row-major float matrix.
struct Matrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<float> data;

  float at(int64_t r, int64_t c) const {
    return data[static_cast<size_t>(r * cols + c)];
  }
  const float* row(int64_t r) const { return data.data() + r * cols; }
};

/// Copies a 2-D tensor.
Matrix ToMatrix(const crossem::Tensor& t);

/// Rows scaled to unit L2 norm (double accumulation).
Matrix NormalizeRows(const Matrix& m);

/// Dot product in double precision.
double Dot(const float* a, const float* b, int64_t n);

// -- Tuning -----------------------------------------------------------------

/// scores[v][i] equals the cosine of vertex_emb row v and image_emb row
/// i, computed here, within `tol`.
std::string CheckScoreMatrix(const Matrix& scores, const Matrix& vertex_emb,
                             const Matrix& image_emb, double tol);

/// One FindMatches pick: the vertex's row in the score matrix, the image
/// it chose and the probability it reported.
struct Pick {
  int64_t row = 0;
  int64_t image = 0;
  float probability = 0.0f;
};

/// Each pick is its row's argmax, and its probability equals the Eq. 4
/// softmax of the row at `temperature`, computed here. Every row of
/// `scores` must be picked exactly once, in order.
std::string CheckFindMatches(const std::vector<Pick>& picks,
                             const Matrix& scores, double temperature,
                             double tol);

/// MRR from the benchmark's own ranking: each query's candidates are
/// sorted best first (a relevant candidate goes before an irrelevant one
/// of equal score) and the first relevant position is its rank.
double ReferenceMrr(const Matrix& scores,
                    const std::vector<int64_t>& query_class,
                    const std::vector<int64_t>& candidate_class);

/// Chance level: the mean ReferenceMrr over `permutations` seeded
/// shuffles of the candidate labels of the same score matrix.
double ChanceMrr(const Matrix& scores, const std::vector<int64_t>& query_class,
                 const std::vector<int64_t>& candidate_class, uint64_t seed,
                 int permutations);

/// |a - b| <= tol.
std::string CheckClose(const std::string& what, double a, double b,
                       double tol);

/// value > floor.
std::string CheckAbove(const std::string& what, double value, double floor);

/// The per-epoch facts a Fit must have.
struct EpochRecord {
  double loss = 0.0;
  int64_t bad_batches = 0;
  int64_t num_pairs = 0;
};

/// Every loss finite, no bad batch, and with mini-batch generation on,
/// fewer candidate pairs per epoch than |V|*|I|.
std::string CheckEpochs(const std::vector<EpochRecord>& epochs,
                        int64_t num_vertices, int64_t num_images, bool mbg);

// -- Serving ----------------------------------------------------------------

struct ServedMatch {
  std::string image_id;
  int64_t image = 0;
  float similarity = 0.0f;
  float probability = 0.0f;
};

/// One /v1/match answer as the client saw it.
struct ServedAnswer {
  int status = 0;
  int64_t snapshot_version = 0;
  bool degraded = false;
  std::vector<ServedMatch> matches;
};

/// Parses a /v1/match body; false (with *error set) when it is not the
/// documented shape.
bool ParseServedAnswer(int status, const std::string& body, ServedAnswer* out,
                       std::string* error);

/// HTTP 200, not degraded, exactly `k` matches.
std::string CheckComplete(const ServedAnswer& a, int64_t k);

/// Probabilities in (0, 1], non-increasing down the list.
std::string CheckProbabilities(const ServedAnswer& a);

/// The exact top-k of a query over unit rows, best first.
struct TopK {
  std::vector<int64_t> ids;
  std::vector<double> scores;
};

/// Brute-force cosine top-k of `query` over the unit rows of `rows`
/// (ties: lower row first).
TopK BruteForceTopK(const float* query, const Matrix& rows, int64_t k);

/// Every returned similarity equals the exact cosine of its row, within
/// `tol` (rows must be unit rows).
std::string CheckExactSimilarities(const ServedAnswer& a, const float* query,
                                   const Matrix& rows, double tol);

/// The answer is the exact top-k: similarities match the exact scores
/// position by position within `tol`, and every returned id is an exact
/// top-k id unless its score ties the k-th within `tol`.
std::string CheckTopK(const ServedAnswer& a, const TopK& exact, double tol);

/// |returned ids ∩ exact ids| / |exact ids|.
double RecallAt(const ServedAnswer& a, const TopK& exact);

/// Same ids, similarities and probabilities, position by position.
std::string CheckSameAnswer(const ServedAnswer& a, const ServedAnswer& b);

/// Every returned image id starts with `prefix` (which index file the
/// answer came from).
std::string CheckIdPrefix(const ServedAnswer& a, const std::string& prefix);

}  // namespace pipebench

#endif  // PIPEBENCH_CHECKS_H_
