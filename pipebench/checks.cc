#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "graph/json.h"

namespace pipebench {

namespace {

std::string Fmt(const char* format, double a, double b = 0.0, double c = 0.0,
                double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

/// SplitMix64: the benchmark's own generator for chance permutations.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Matrix ToMatrix(const crossem::Tensor& t) {
  Matrix m;
  m.rows = t.size(0);
  m.cols = t.size(1);
  m.data.assign(t.data(), t.data() + t.numel());
  return m;
}

Matrix NormalizeRows(const Matrix& m) {
  Matrix out = m;
  for (int64_t r = 0; r < m.rows; ++r) {
    const double norm = std::sqrt(Dot(m.row(r), m.row(r), m.cols));
    if (norm == 0.0) continue;
    for (int64_t c = 0; c < m.cols; ++c) {
      out.data[static_cast<size_t>(r * m.cols + c)] =
          static_cast<float>(m.at(r, c) / norm);
    }
  }
  return out;
}

double Dot(const float* a, const float* b, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return s;
}

std::string CheckScoreMatrix(const Matrix& scores, const Matrix& vertex_emb,
                             const Matrix& image_emb, double tol) {
  if (scores.rows != vertex_emb.rows || scores.cols != image_emb.rows ||
      vertex_emb.cols != image_emb.cols) {
    return "score matrix shape does not match the embeddings";
  }
  const Matrix v = NormalizeRows(vertex_emb);
  const Matrix im = NormalizeRows(image_emb);
  for (int64_t r = 0; r < scores.rows; ++r) {
    for (int64_t c = 0; c < scores.cols; ++c) {
      const double cosine = Dot(v.row(r), im.row(c), v.cols);
      if (!(std::fabs(cosine - scores.at(r, c)) <= tol)) {
        return Fmt("score[%g][%g] = %.7g, cosine %.7g", static_cast<double>(r),
                   static_cast<double>(c), scores.at(r, c), cosine);
      }
    }
  }
  return "";
}

std::string CheckFindMatches(const std::vector<Pick>& picks,
                             const Matrix& scores, double temperature,
                             double tol) {
  if (static_cast<int64_t>(picks.size()) != scores.rows) {
    return Fmt("%g picks for %g rows", static_cast<double>(picks.size()),
               static_cast<double>(scores.rows));
  }
  for (int64_t r = 0; r < scores.rows; ++r) {
    const Pick& p = picks[static_cast<size_t>(r)];
    if (p.row != r || p.image < 0 || p.image >= scores.cols) {
      return Fmt("pick %g names row %g image %g", static_cast<double>(r),
                 static_cast<double>(p.row), static_cast<double>(p.image));
    }
    int64_t best = 0;
    for (int64_t c = 1; c < scores.cols; ++c) {
      if (scores.at(r, c) > scores.at(r, best)) best = c;
    }
    if (scores.at(r, p.image) < scores.at(r, best)) {
      return Fmt("row %g picked image %g, argmax is %g",
                 static_cast<double>(r), static_cast<double>(p.image),
                 static_cast<double>(best));
    }
    double denom = 0.0;
    for (int64_t c = 0; c < scores.cols; ++c) {
      denom += std::exp((scores.at(r, c) - scores.at(r, best)) / temperature);
    }
    const double prob =
        std::exp((scores.at(r, p.image) - scores.at(r, best)) / temperature) /
        denom;
    if (!(std::fabs(prob - p.probability) <= tol)) {
      return Fmt("row %g probability %.7g, Eq. 4 gives %.7g",
                 static_cast<double>(r), p.probability, prob);
    }
  }
  return "";
}

double ReferenceMrr(const Matrix& scores,
                    const std::vector<int64_t>& query_class,
                    const std::vector<int64_t>& candidate_class) {
  double total = 0.0;
  int64_t counted = 0;
  std::vector<int64_t> order(static_cast<size_t>(scores.cols));
  for (int64_t q = 0; q < scores.rows; ++q) {
    const int64_t cls = query_class[static_cast<size_t>(q)];
    auto relevant = [&](int64_t c) {
      return candidate_class[static_cast<size_t>(c)] == cls;
    };
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      if (scores.at(q, a) != scores.at(q, b)) {
        return scores.at(q, a) > scores.at(q, b);
      }
      return relevant(a) && !relevant(b);
    });
    for (size_t pos = 0; pos < order.size(); ++pos) {
      if (relevant(order[pos])) {
        total += 1.0 / static_cast<double>(pos + 1);
        ++counted;
        break;
      }
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

double ChanceMrr(const Matrix& scores, const std::vector<int64_t>& query_class,
                 const std::vector<int64_t>& candidate_class, uint64_t seed,
                 int permutations) {
  double total = 0.0;
  uint64_t state = seed;
  std::vector<int64_t> shuffled = candidate_class;
  for (int p = 0; p < permutations; ++p) {
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[SplitMix(&state) % i]);
    }
    total += ReferenceMrr(scores, query_class, shuffled);
  }
  return permutations > 0 ? total / permutations : 0.0;
}

std::string CheckClose(const std::string& what, double a, double b,
                       double tol) {
  if (std::fabs(a - b) <= tol) return "";
  return what + Fmt(": %.9g vs %.9g", a, b);
}

std::string CheckAbove(const std::string& what, double value, double floor) {
  if (value > floor) return "";
  return what + Fmt(": %.6g is not above %.6g", value, floor);
}

std::string CheckEpochs(const std::vector<EpochRecord>& epochs,
                        int64_t num_vertices, int64_t num_images, bool mbg) {
  if (epochs.empty()) return "no epochs";
  for (size_t e = 0; e < epochs.size(); ++e) {
    const EpochRecord& r = epochs[e];
    const double i = static_cast<double>(e);
    if (!std::isfinite(r.loss)) return Fmt("epoch %g loss is not finite", i);
    if (r.bad_batches != 0) {
      return Fmt("epoch %g skipped %g bad batches", i,
                 static_cast<double>(r.bad_batches));
    }
    if (mbg && !(r.num_pairs > 0 && r.num_pairs < num_vertices * num_images)) {
      return Fmt("epoch %g processed %g pairs, |V||I| = %g", i,
                 static_cast<double>(r.num_pairs),
                 static_cast<double>(num_vertices * num_images));
    }
  }
  return "";
}

bool ParseServedAnswer(int status, const std::string& body, ServedAnswer* out,
                       std::string* error) {
  *out = ServedAnswer();
  out->status = status;
  auto doc = crossem::graph::ParseJson(body);
  if (!doc.ok()) {
    *error = "body is not JSON: " + doc.status().message();
    return false;
  }
  const auto* version = doc.value().Find("snapshot_version");
  const auto* degraded = doc.value().Find("degraded");
  const auto* matches = doc.value().Find("matches");
  if (version == nullptr || !version->is_number() || degraded == nullptr ||
      !degraded->is_bool() || matches == nullptr || !matches->is_array()) {
    *error = "body lacks snapshot_version/degraded/matches";
    return false;
  }
  out->snapshot_version = static_cast<int64_t>(version->number_value());
  out->degraded = degraded->bool_value();
  for (const auto& m : matches->array_items()) {
    const auto* id = m.Find("image_id");
    const auto* image = m.Find("image");
    const auto* sim = m.Find("similarity");
    const auto* prob = m.Find("probability");
    if (id == nullptr || !id->is_string() || image == nullptr ||
        !image->is_number() || sim == nullptr || !sim->is_number() ||
        prob == nullptr || !prob->is_number()) {
      *error = "match entry lacks image_id/image/similarity/probability";
      return false;
    }
    ServedMatch sm;
    sm.image_id = id->string_value();
    sm.image = static_cast<int64_t>(image->number_value());
    sm.similarity = static_cast<float>(sim->number_value());
    sm.probability = static_cast<float>(prob->number_value());
    out->matches.push_back(std::move(sm));
  }
  return true;
}

std::string CheckComplete(const ServedAnswer& a, int64_t k) {
  if (a.status != 200) return Fmt("HTTP status %g", a.status);
  if (a.degraded) return "degraded answer";
  if (static_cast<int64_t>(a.matches.size()) != k) {
    return Fmt("%g matches, asked for %g",
               static_cast<double>(a.matches.size()), static_cast<double>(k));
  }
  return "";
}

std::string CheckProbabilities(const ServedAnswer& a) {
  for (size_t j = 0; j < a.matches.size(); ++j) {
    const float p = a.matches[j].probability;
    if (!(p > 0.0f && p <= 1.0f)) {
      return Fmt("probability %.7g at position %g outside (0, 1]", p,
                 static_cast<double>(j));
    }
    if (j > 0 && p > a.matches[j - 1].probability) {
      return Fmt("probability rises at position %g", static_cast<double>(j));
    }
  }
  return "";
}

TopK BruteForceTopK(const float* query, const Matrix& rows, int64_t k) {
  std::vector<std::pair<double, int64_t>> scored(
      static_cast<size_t>(rows.rows));
  for (int64_t r = 0; r < rows.rows; ++r) {
    scored[static_cast<size_t>(r)] = {Dot(query, rows.row(r), rows.cols), r};
  }
  const int64_t take = std::min(k, rows.rows);
  std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  TopK out;
  for (int64_t j = 0; j < take; ++j) {
    out.ids.push_back(scored[static_cast<size_t>(j)].second);
    out.scores.push_back(scored[static_cast<size_t>(j)].first);
  }
  return out;
}

std::string CheckExactSimilarities(const ServedAnswer& a, const float* query,
                                   const Matrix& rows, double tol) {
  for (size_t j = 0; j < a.matches.size(); ++j) {
    const ServedMatch& m = a.matches[j];
    if (m.image < 0 || m.image >= rows.rows) {
      return Fmt("row %g out of range", static_cast<double>(m.image));
    }
    const double exact = Dot(query, rows.row(m.image), rows.cols);
    if (!(std::fabs(exact - m.similarity) <= tol)) {
      return Fmt("row %g similarity %.7g, exact cosine %.7g",
                 static_cast<double>(m.image), m.similarity, exact);
    }
  }
  return "";
}

std::string CheckTopK(const ServedAnswer& a, const TopK& exact, double tol) {
  if (a.matches.size() != exact.ids.size()) {
    return Fmt("%g matches, exact top-k has %g",
               static_cast<double>(a.matches.size()),
               static_cast<double>(exact.ids.size()));
  }
  const double kth = exact.scores.back();
  for (size_t j = 0; j < a.matches.size(); ++j) {
    const ServedMatch& m = a.matches[j];
    if (!(std::fabs(m.similarity - exact.scores[j]) <= tol)) {
      return Fmt("position %g similarity %.7g, exact %.7g",
                 static_cast<double>(j), m.similarity, exact.scores[j]);
    }
    for (size_t i = 0; i < j; ++i) {
      if (a.matches[i].image == m.image) return "duplicate row in answer";
    }
    const bool in_exact = std::find(exact.ids.begin(), exact.ids.end(),
                                    m.image) != exact.ids.end();
    if (!in_exact && !(std::fabs(m.similarity - kth) <= tol)) {
      return Fmt("row %g (similarity %.7g) is not in the exact top-k",
                 static_cast<double>(m.image), m.similarity);
    }
  }
  return "";
}

double RecallAt(const ServedAnswer& a, const TopK& exact) {
  if (exact.ids.empty()) return 0.0;
  int64_t hit = 0;
  for (const ServedMatch& m : a.matches) {
    if (std::find(exact.ids.begin(), exact.ids.end(), m.image) !=
        exact.ids.end()) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(exact.ids.size());
}

std::string CheckSameAnswer(const ServedAnswer& a, const ServedAnswer& b) {
  if (a.matches.size() != b.matches.size()) {
    return Fmt("%g matches vs %g", static_cast<double>(a.matches.size()),
               static_cast<double>(b.matches.size()));
  }
  for (size_t j = 0; j < a.matches.size(); ++j) {
    const ServedMatch& x = a.matches[j];
    const ServedMatch& y = b.matches[j];
    if (x.image_id != y.image_id || x.similarity != y.similarity ||
        x.probability != y.probability) {
      return "position " + std::to_string(j) + ": " + x.image_id + " " +
             Fmt("%.9g/%.9g vs ", x.similarity, x.probability) + y.image_id +
             Fmt(" %.9g/%.9g", y.similarity, y.probability);
    }
  }
  return "";
}

std::string CheckIdPrefix(const ServedAnswer& a, const std::string& prefix) {
  for (const ServedMatch& m : a.matches) {
    if (m.image_id.compare(0, prefix.size(), prefix) != 0) {
      return "image id " + m.image_id + " is not from the index file '" +
             prefix + "'";
    }
  }
  return "";
}

}  // namespace pipebench
