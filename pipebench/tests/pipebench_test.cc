// Tests of the benchmark's own helpers and correctness checks: each
// check passes on a faithful output and fails on a corrupted copy.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "checks.h"
#include "eval/metrics.h"
#include "stats.h"
#include "tensor/tensor.h"

namespace pipebench {
namespace {

// -- Stats --------------------------------------------------------------------

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(Stats, TailNeedsTenSamplesBeyond) {
  // p99 of n samples sits at index ceil(0.99 n) - 1; 1000 samples leave
  // exactly 10 beyond it, 999 leave 9.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9);
  std::vector<double> v(1000);
  for (int i = 0; i < 1000; ++i) v[i] = i;
  double p99 = -1;
  ASSERT_TRUE(TailPercentile(v, 0.99, &p99));
  EXPECT_DOUBLE_EQ(p99, 989.0);
  v.pop_back();
  p99 = -1;
  EXPECT_FALSE(TailPercentile(v, 0.99, &p99));
  EXPECT_DOUBLE_EQ(p99, -1.0);  // untouched when not reportable
  EXPECT_TRUE(TailPercentile(v, 0.5, &p99));
}

// -- Tuning checks ------------------------------------------------------------

Matrix Random(int64_t rows, int64_t cols, uint64_t seed) {
  Matrix m{rows, cols, {}};
  uint64_t s = seed;
  for (int64_t i = 0; i < rows * cols; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    m.data.push_back(static_cast<float>((s >> 33) % 2000) / 1000.0f - 1.0f);
  }
  return m;
}

Matrix Cosines(const Matrix& a, const Matrix& b) {
  const Matrix na = NormalizeRows(a);
  const Matrix nb = NormalizeRows(b);
  Matrix s{a.rows, b.rows, {}};
  for (int64_t r = 0; r < a.rows; ++r) {
    for (int64_t c = 0; c < b.rows; ++c) {
      s.data.push_back(static_cast<float>(Dot(na.row(r), nb.row(c), a.cols)));
    }
  }
  return s;
}

TEST(Checks, ScoreMatrixCatchesACorruptedEntry) {
  const Matrix v = Random(5, 8, 1);
  const Matrix i = Random(7, 8, 2);
  Matrix s = Cosines(v, i);
  EXPECT_EQ(CheckScoreMatrix(s, v, i, 1e-6), "");
  s.data[12] += 1e-3f;
  EXPECT_NE(CheckScoreMatrix(s, v, i, 1e-6), "");
  EXPECT_NE(CheckScoreMatrix(Cosines(v, Random(6, 8, 2)), v, i, 1e-6), "");
}

std::vector<Pick> FaithfulPicks(const Matrix& s, double tau) {
  std::vector<Pick> picks;
  for (int64_t r = 0; r < s.rows; ++r) {
    int64_t best = 0;
    for (int64_t c = 1; c < s.cols; ++c) {
      if (s.at(r, c) > s.at(r, best)) best = c;
    }
    double denom = 0;
    for (int64_t c = 0; c < s.cols; ++c) {
      denom += std::exp((s.at(r, c) - s.at(r, best)) / tau);
    }
    picks.push_back(Pick{r, best, static_cast<float>(1.0 / denom)});
  }
  return picks;
}

TEST(Checks, FindMatchesCatchesWrongImageAndProbability) {
  const Matrix s = Cosines(Random(6, 8, 3), Random(9, 8, 4));
  const double tau = 0.07;
  std::vector<Pick> picks = FaithfulPicks(s, tau);
  EXPECT_EQ(CheckFindMatches(picks, s, tau, 1e-6), "");

  std::vector<Pick> wrong_image = picks;
  wrong_image[2].image = (wrong_image[2].image + 1) % s.cols;
  EXPECT_NE(CheckFindMatches(wrong_image, s, tau, 1e-6), "");

  std::vector<Pick> wrong_prob = picks;
  wrong_prob[4].probability *= 0.9f;
  EXPECT_NE(CheckFindMatches(wrong_prob, s, tau, 1e-6), "");

  std::vector<Pick> missing = picks;
  missing.pop_back();
  EXPECT_NE(CheckFindMatches(missing, s, tau, 1e-6), "");
}

TEST(Checks, ReferenceMrrAgreesWithEvalAndCatchesAWrongValue) {
  const Matrix s = Cosines(Random(6, 8, 5), Random(18, 8, 6));
  const std::vector<int64_t> qc = {0, 1, 2, 3, 4, 5};
  std::vector<int64_t> cc;
  for (int i = 0; i < 18; ++i) cc.push_back(i % 6);
  const crossem::Tensor t =
      crossem::Tensor::FromVector({s.rows, s.cols}, s.data);
  const double eval_mrr =
      crossem::eval::ComputeRankingMetricsByClass(t, qc, cc).mrr;
  const double own = ReferenceMrr(s, qc, cc);
  EXPECT_EQ(CheckClose("mrr", own, eval_mrr, 1e-12), "");
  EXPECT_NE(CheckClose("mrr", own, eval_mrr + 1e-6, 1e-9), "");
}

TEST(Checks, ReferenceMrrRanksByHand) {
  // Query 0's relevant candidate (class 0) is ranked 2nd; query 1's 1st.
  const Matrix s{2, 3, {0.9f, 0.5f, 0.1f, 0.2f, 0.3f, 0.8f}};
  EXPECT_DOUBLE_EQ(ReferenceMrr(s, {0, 1}, {2, 0, 1}), (0.5 + 1.0) / 2);
}

TEST(Checks, ChanceMrrSeparatesASignalFromNoise) {
  // Perfect scores: every query's own class scores 1, the rest 0.
  const int64_t q = 8, per = 4;
  Matrix s{q, q * per, {}};
  std::vector<int64_t> qc, cc;
  for (int64_t c = 0; c < q * per; ++c) cc.push_back(c % q);
  for (int64_t r = 0; r < q; ++r) {
    qc.push_back(r);
    for (int64_t c = 0; c < q * per; ++c) {
      s.data.push_back(c % q == r ? 1.0f : 0.0f);
    }
  }
  const double chance = ChanceMrr(s, qc, cc, 7, 32);
  EXPECT_EQ(CheckAbove("perfect", ReferenceMrr(s, qc, cc), chance), "");
  EXPECT_LT(chance, 0.9);
  EXPECT_EQ(ChanceMrr(s, qc, cc, 7, 32), chance);  // seeded
  // An MRR at chance level fails the check.
  EXPECT_NE(CheckAbove("at chance", chance, chance), "");
}

TEST(Checks, EpochsCatchNonFiniteLossBadBatchesAndFullPairs) {
  const std::vector<EpochRecord> ok = {{2.0, 0, 50}, {1.5, 0, 48}};
  EXPECT_EQ(CheckEpochs(ok, 10, 20, true), "");
  auto nan = ok;
  nan[1].loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(CheckEpochs(nan, 10, 20, true), "");
  auto bad = ok;
  bad[0].bad_batches = 1;
  EXPECT_NE(CheckEpochs(bad, 10, 20, true), "");
  auto full = ok;
  full[1].num_pairs = 200;  // |V||I|: MBG did not cut anything
  EXPECT_NE(CheckEpochs(full, 10, 20, true), "");
  EXPECT_EQ(CheckEpochs(full, 10, 20, false), "");
  EXPECT_NE(CheckEpochs({}, 10, 20, true), "");
}

// -- Serving checks -----------------------------------------------------------

Matrix UnitRows() { return NormalizeRows(Random(40, 6, 9)); }

ServedAnswer FaithfulAnswer(const float* query, const Matrix& rows,
                            int64_t k) {
  const TopK exact = BruteForceTopK(query, rows, k);
  ServedAnswer a;
  a.status = 200;
  a.snapshot_version = 1;
  auto weight = [&](double s) {
    return std::exp((s - exact.scores[0]) / 0.07);
  };
  double denom = 0;
  for (double s : exact.scores) denom += weight(s);
  for (size_t j = 0; j < exact.ids.size(); ++j) {
    a.matches.push_back(ServedMatch{"a/" + std::to_string(exact.ids[j]),
                                    exact.ids[j],
                                    static_cast<float>(exact.scores[j]),
                                    static_cast<float>(weight(exact.scores[j]) /
                                                       denom)});
  }
  return a;
}

TEST(Checks, ParseServedAnswer) {
  const std::string body =
      "{\"entity\":\"x\",\"snapshot_version\":3,\"cache_hit\":false,"
      "\"coverage\":1,\"degraded\":false,\"matches\":[{\"image_id\":\"a/4\","
      "\"image\":4,\"similarity\":0.5,\"probability\":0.25}]}";
  ServedAnswer a;
  std::string error;
  ASSERT_TRUE(ParseServedAnswer(200, body, &a, &error)) << error;
  EXPECT_EQ(a.snapshot_version, 3);
  ASSERT_EQ(a.matches.size(), 1u);
  EXPECT_EQ(a.matches[0].image_id, "a/4");
  EXPECT_FLOAT_EQ(a.matches[0].probability, 0.25f);
  EXPECT_FALSE(ParseServedAnswer(200, "{\"matches\":[]}", &a, &error));
  EXPECT_FALSE(ParseServedAnswer(200, body.substr(0, 40), &a, &error));
}

TEST(Checks, CompleteCatchesPartialAnswers) {
  const Matrix rows = UnitRows();
  ServedAnswer a = FaithfulAnswer(rows.row(0), rows, 5);
  EXPECT_EQ(CheckComplete(a, 5), "");
  ServedAnswer partial = a;
  partial.status = 206;
  EXPECT_NE(CheckComplete(partial, 5), "");
  ServedAnswer degraded = a;
  degraded.degraded = true;
  EXPECT_NE(CheckComplete(degraded, 5), "");
  EXPECT_NE(CheckComplete(a, 6), "");
}

TEST(Checks, ProbabilitiesCatchRangeAndOrder) {
  const Matrix rows = UnitRows();
  ServedAnswer a = FaithfulAnswer(rows.row(1), rows, 5);
  EXPECT_EQ(CheckProbabilities(a), "");
  ServedAnswer rising = a;
  std::swap(rising.matches[1].probability, rising.matches[2].probability);
  if (rising.matches[1].probability == rising.matches[2].probability) {
    rising.matches[2].probability *= 2;
  }
  EXPECT_NE(CheckProbabilities(rising), "");
  ServedAnswer zero = a;
  zero.matches[4].probability = 0.0f;
  EXPECT_NE(CheckProbabilities(zero), "");
  ServedAnswer above = a;
  above.matches[0].probability = 1.5f;
  EXPECT_NE(CheckProbabilities(above), "");
}

TEST(Checks, ExactSimilaritiesCatchAnInexactScore) {
  const Matrix rows = UnitRows();
  ServedAnswer a = FaithfulAnswer(rows.row(2), rows, 5);
  EXPECT_EQ(CheckExactSimilarities(a, rows.row(2), rows, 1e-6), "");
  a.matches[3].similarity += 1e-4f;
  EXPECT_NE(CheckExactSimilarities(a, rows.row(2), rows, 1e-6), "");
}

TEST(Checks, TopKCatchesAWrongRowAScoreAndADuplicate) {
  const Matrix rows = UnitRows();
  const float* q = rows.row(3);
  const TopK exact = BruteForceTopK(q, rows, 5);
  ServedAnswer a = FaithfulAnswer(q, rows, 5);
  EXPECT_EQ(CheckTopK(a, exact, 1e-6), "");
  EXPECT_DOUBLE_EQ(RecallAt(a, exact), 1.0);

  // Replace the last match with the 6th-best row (a real miss).
  const TopK six = BruteForceTopK(q, rows, 6);
  ServedAnswer miss = a;
  miss.matches[4].image = six.ids[5];
  miss.matches[4].similarity = static_cast<float>(six.scores[5]);
  EXPECT_NE(CheckTopK(miss, exact, 1e-6), "");
  EXPECT_DOUBLE_EQ(RecallAt(miss, exact), 0.8);

  ServedAnswer off = a;
  off.matches[0].similarity -= 1e-3f;
  EXPECT_NE(CheckTopK(off, exact, 1e-6), "");

  ServedAnswer dup = a;
  dup.matches[2] = dup.matches[1];
  EXPECT_NE(CheckTopK(dup, exact, 1.0), "");
}

TEST(Checks, SameAnswerCatchesOneBitOfDifference) {
  const Matrix rows = UnitRows();
  const ServedAnswer a = FaithfulAnswer(rows.row(4), rows, 5);
  EXPECT_EQ(CheckSameAnswer(a, a), "");
  ServedAnswer b = a;
  b.matches[1].probability =
      std::nextafter(b.matches[1].probability, 1.0f);
  EXPECT_NE(CheckSameAnswer(a, b), "");
  ServedAnswer c = a;
  c.matches[0].image_id = "a/999";
  EXPECT_NE(CheckSameAnswer(a, c), "");
  ServedAnswer d = a;
  d.matches.pop_back();
  EXPECT_NE(CheckSameAnswer(a, d), "");
}

TEST(Checks, IdPrefixCatchesAnAnswerFromTheOtherFile) {
  const Matrix rows = UnitRows();
  ServedAnswer a = FaithfulAnswer(rows.row(5), rows, 5);
  EXPECT_EQ(CheckIdPrefix(a, "a/"), "");
  EXPECT_NE(CheckIdPrefix(a, "b/"), "");
  a.matches[2].image_id = "b/7";
  EXPECT_NE(CheckIdPrefix(a, "a/"), "");
}

}  // namespace
}  // namespace pipebench
